module htmcmp/bench

go 1.22

require htmcmp v0.0.0

replace htmcmp => ../
