// Bank: a classic transactional-memory workload — random transfers between
// accounts — run on all four platform models, demonstrating isolation (the
// total balance is invariant), abort behaviour, and how conflict-detection
// granularity changes the abort ratio when accounts are packed densely
// versus padded to cache lines.
//
//	go run ./examples/bank
package main

import (
	"fmt"

	"htmcmp"
)

const (
	nAccounts  = 256
	nThreads   = 8
	transfers  = 2000
	initialBal = 1000
)

func run(kind htmcmp.PlatformKind, padded bool) (aborts float64, ok bool) {
	eng := htmcmp.NewEngine(kind, htmcmp.EngineConfig{Threads: nThreads})
	t0 := eng.Thread(0)

	accounts := make([]uint64, nAccounts)
	for i := range accounts {
		if padded {
			accounts[i] = t0.AllocAligned(8, eng.LineSize()) // one account per line
		} else {
			accounts[i] = t0.Alloc(8) // densely packed: false sharing
		}
		t0.Store64(accounts[i], initialBal)
	}

	lock := htmcmp.NewGlobalLock(eng)
	eng.Run(nThreads, func(_ int, t *htmcmp.Thread) {
		x := htmcmp.NewExecutor(t, lock, htmcmp.DefaultPolicy(kind))
		rng := t.Rand()
		for j := 0; j < transfers; j++ {
			from := accounts[rng.Intn(nAccounts)]
			to := accounts[rng.Intn(nAccounts)]
			amount := uint64(rng.Intn(20))
			x.Run(func(t *htmcmp.Thread) {
				balance := t.Load64(from)
				if balance < amount {
					return
				}
				t.Store64(from, balance-amount)
				t.Store64(to, t.Load64(to)+amount)
			})
		}
	})

	var total uint64
	for _, a := range accounts {
		total += t0.Load64(a)
	}
	st := eng.Stats()
	return st.AbortRatio(), total == nAccounts*initialBal
}

func main() {
	fmt.Println("bank transfers: abort ratio by platform and account layout")
	fmt.Printf("%-12s  %-14s  %-14s\n", "platform", "packed abort%", "padded abort%")
	for _, spec := range htmcmp.AllPlatforms() {
		packed, okP := run(spec.Kind, false)
		padded, okA := run(spec.Kind, true)
		status := ""
		if !okP || !okA {
			status = "  BALANCE VIOLATION!"
		}
		fmt.Printf("%-12s  %-14.1f  %-14.1f%s\n", spec.Kind, packed, padded, status)
	}
	fmt.Println("\nLarger conflict-detection lines (zEC12: 256 B) suffer more from")
	fmt.Println("packed accounts — the false-conflict effect behind the paper's")
	fmt.Println("Section 4 kmeans fix.")
}
