# Make targets mirror what CI runs, so humans and the workflow invoke the
# same commands.

GO      ?= go
BIN     := bin
SMOKE   := /tmp/htmcmp-smoke
JOBS    ?= 4
# GATE is the bench-hotpath-smoke regression threshold in percent. It is
# deliberately loose: CI hosts differ from the machine that recorded
# BENCH_hotpath.json, so only a gross slowdown should fail the build.
GATE    ?= 200

# FUZZTIME is the per-target budget for fuzz-smoke.
FUZZTIME ?= 30s

.PHONY: build test race lint bench-smoke bench-e2e bench-test bench-hotpath bench-hotpath-smoke profile pgo trace-smoke fuzz-smoke chaos-smoke cover results-sim results-sim-diff clean

# htmbench must pick up the checked-in profile cmd/htmbench/default.pgo
# (-pgo=auto); `go version -m` lists the profile a binary was built with.
build:
	$(GO) build ./...
	$(GO) build -o $(BIN)/htmbench ./cmd/htmbench
	@$(GO) version -m $(BIN)/htmbench | grep -q -- '-pgo=.*default.pgo' || { \
		echo "htmbench was built without cmd/htmbench/default.pgo"; exit 1; }
	$(GO) build -o $(BIN)/htmtrace ./cmd/htmtrace
	$(GO) build -o $(BIN)/htmtune ./cmd/htmtune

test:
	$(GO) test ./...

# racecheck also compiles in internal/mem's shadow allocation tracker. The
# engine is lock-free because one goroutine drives all of an engine's threads
# (Engine.Run), so the detector is what catches a test that touches two
# threads of one engine from unsynchronised goroutines. The second run
# repeats what crosses stacks or goroutines: the coroutine switches and the
# unwinding of parked threads after a body panic (the detector follows
# iter.Pull's hand-offs), and the Register/BeginWork/ExitWork adapter, whose
# members and driver pass the unlocked engine around by channel.
race:
	$(GO) test -race -tags racecheck ./internal/...
	$(GO) test -race -count=10 -run 'Run|SpinUntil|Livelock|Deadlock|Adapter' ./internal/htm

# lint runs go vet and the gofmt gate. The repo's own invariant checks
# (internal/lint's determinism check over the default and the build-tagged
# files, plus the cache-key rules) run in `go test ./...` as the root
# package's TestInvariants.
lint:
	$(GO) vet ./...
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi

# bench-smoke runs every experiment twice at test scale against a fresh
# cache: the first run computes every cell, the second must plan the same
# cells, report a 100% cache hit (all cells skipped — Figures 6 and 9
# included, so it simulates nothing), emit byte-identical tables and leave
# every file under the cache as it found it. A flag value htmbench cannot
# use must exit 2 in one line, creating no cache. A cold -exp capacity, whose
# TMCAM sizes that never bind share one simulation, must simulate as many
# regions at -jobs 1 as at -jobs 4. Last, htmtune on the same cache adds one
# record per search trial plus its winner: its default and adaptive runs are
# the -exp all cells.
bench-smoke: build
	rm -rf $(SMOKE)
	mkdir -p $(SMOKE)
	./$(BIN)/htmbench -exp all -scale test -jobs $(JOBS) \
		-cache-dir $(SMOKE)/cache >$(SMOKE)/run1.txt 2>$(SMOKE)/run1.log
	cd $(SMOKE)/cache && find . -type f | LC_ALL=C sort | xargs sha256sum >$(SMOKE)/cache1.sum
	./$(BIN)/htmbench -exp all -scale test -jobs $(JOBS) \
		-cache-dir $(SMOKE)/cache >$(SMOKE)/run2.txt 2>$(SMOKE)/run2.log
	cd $(SMOKE)/cache && find . -type f | LC_ALL=C sort | xargs sha256sum >$(SMOKE)/cache2.sum
	@cmp -s $(SMOKE)/cache1.sum $(SMOKE)/cache2.sum || { \
		echo "the warm run wrote to the cache:"; diff $(SMOKE)/cache1.sum $(SMOKE)/cache2.sum; exit 1; }
	cmp $(SMOKE)/run1.txt $(SMOKE)/run2.txt
	@c1=$$(grep -o 'summary: cells=[0-9]*' $(SMOKE)/run1.log); \
	c2=$$(grep -o 'summary: cells=[0-9]*' $(SMOKE)/run2.log); \
	[ -n "$$c1" ] && [ "$$c1" = "$$c2" ] || { \
		echo "runs planned different cell sets: '$$c1' then '$$c2'"; exit 1; }
	grep -q 'hit=100.0%' $(SMOKE)/run2.log || { \
		echo "second run did not skip all cells:"; cat $(SMOKE)/run2.log; exit 1; }
	grep -q ' computed=0 ' $(SMOKE)/run2.log || { \
		echo "second run recomputed cells:"; cat $(SMOKE)/run2.log; exit 1; }
	@! grep -q 'steals=' $(SMOKE)/run2.log || { \
		echo "warm summary line carries a steals= field:"; cat $(SMOKE)/run2.log; exit 1; }
	@for bad in '-exp bogus' '-repeats 0' '-jobs -3' '-cell-timeout -5s'; do \
		./$(BIN)/htmbench $$bad -cache-dir $(SMOKE)/bad >/dev/null 2>$(SMOKE)/bad.log; \
		[ $$? -eq 2 ] && [ "$$(wc -l <$(SMOKE)/bad.log)" -eq 1 ] && [ ! -e $(SMOKE)/bad ] || { \
			echo "htmbench $$bad: want exit 2, one stderr line and no cache directory:"; \
			cat $(SMOKE)/bad.log; exit 1; }; \
	done
	@r1=$$(./$(BIN)/htmbench -exp capacity -scale test -jobs 1 -no-cache -progress=false 2>&1 >/dev/null | grep -o ' regions=[0-9]*'); \
	r4=$$(./$(BIN)/htmbench -exp capacity -scale test -jobs 4 -no-cache -progress=false 2>&1 >/dev/null | grep -o ' regions=[0-9]*'); \
	[ -n "$$r1" ] && [ "$$r1" = "$$r4" ] || { \
		echo "cold -exp capacity simulated$$r1 at -jobs 1 and$$r4 at -jobs 4"; exit 1; }
	@before=$$(find $(SMOKE)/cache -type f | wc -l); \
	./$(BIN)/htmtune -platform bgq -bench labyrinth -scale test -rounds 0 -jobs $(JOBS) \
		-cache-dir $(SMOKE)/cache >$(SMOKE)/tune.txt || exit 1; \
	added=$$(( $$(find $(SMOKE)/cache -type f | wc -l) - before )); \
	trials=$$(grep -c ' r0 ' $(SMOKE)/tune.txt); \
	[ "$$added" -eq $$((trials + 1)) ] || { \
		echo "htmtune added $$added cache records, want $$trials trials + 1 winner:" \
			"its default and adaptive runs must be hits from the -exp all cells"; \
		cat $(SMOKE)/tune.txt; exit 1; }
	@echo "bench-smoke ok: warm-cache run skipped 100% of cells, tables byte-identical, htmtune reused the sweep's cells"

# bench-e2e runs the repository benchmark BENCHMARK.json declares: host
# wall-clock of results regeneration on four workloads (bench/README.md).
# Arguments pass through BENCH_ARGS, e.g. BENCH_ARGS='--workload
# engine_serial --trace 1'.
bench-e2e:
	bash bench/run.sh $(BENCH_ARGS)

# bench-test runs the benchmark program's own tests. bench/ is a nested
# module, so `go test ./...` at the root does not reach them; -short skips
# the end-to-end smoke.
bench-test:
	cd bench && $(GO) test -short ./...

# bench-hotpath measures the engine hot-path microbenchmarks (see
# internal/htm/hotpath_bench_test.go) and rewrites BENCH_hotpath.json. When
# the file already exists its current numbers are carried forward as the
# baseline, so the JSON records the before/after comparison.
bench-hotpath:
	$(GO) build -o $(BIN)/benchjson ./cmd/benchjson
	$(GO) test -run '^$$' -bench '^BenchmarkHotpath' -benchmem \
		-count=1 ./internal/htm | tee /tmp/htmcmp-bench-hotpath.txt
	@if [ -f BENCH_hotpath.json ]; then \
		./$(BIN)/benchjson -baseline BENCH_hotpath.json -label "$$(git rev-parse --short HEAD 2>/dev/null || echo local)" \
			-o BENCH_hotpath.json </tmp/htmcmp-bench-hotpath.txt; \
	else \
		./$(BIN)/benchjson -label "$$(git rev-parse --short HEAD 2>/dev/null || echo local)" \
			-o BENCH_hotpath.json </tmp/htmcmp-bench-hotpath.txt; \
	fi
	@echo "bench-hotpath: wrote BENCH_hotpath.json"

# bench-hotpath-smoke is the CI gate: every microbenchmark must execute
# (one iteration) without failing; the parsed JSON is left in $(SMOKE) for
# artifact upload. Numbers from a 1x run are not meaningful and are not
# compared against anything; the tx load/store and lock-convoy (spin-wait)
# benchmarks then run 20000 iterations each, gated against
# BENCH_hotpath.json by GATE.
bench-hotpath-smoke:
	mkdir -p $(SMOKE)
	$(GO) build -o $(BIN)/benchjson ./cmd/benchjson
	$(GO) test -run '^$$' -bench '^BenchmarkHotpath' -benchtime=1x \
		-count=1 ./internal/htm | tee $(SMOKE)/bench-hotpath.txt
	./$(BIN)/benchjson -label smoke-1x -o $(SMOKE)/BENCH_hotpath.json \
		<$(SMOKE)/bench-hotpath.txt
	$(GO) test -run '^$$' -bench '^BenchmarkHotpath(Tx(Load|Store)(8|64)|LockConvoy(4|16))$$$$' \
		-benchmem -benchtime=20000x -count=1 ./internal/htm | tee $(SMOKE)/bench-gate.txt
	./$(BIN)/benchjson -baseline BENCH_hotpath.json -gate $(GATE) \
		-o $(SMOKE)/BENCH_gate.json <$(SMOKE)/bench-gate.txt
	@echo "bench-hotpath-smoke ok (gate: no per-op benchmark regressed >$(GATE)% or grew allocs/op)"

# profile captures CPU and heap pprof profiles of a cold test-scale sweep of
# every experiment into a fresh cache, then a CPU profile of warm passes
# over that cache, into $(SMOKE) for artifact upload. A warm pass takes a few
# ms, under a handful of profiler samples, so ten of them are merged (as
# pgo merges its runs). profile.log gets the run logs and the profiles'
# pprof-label splits: the cold pass by cell kind and benchmark, the warm
# passes by phase (plan, prewarm, render). Inspect with
# `go tool pprof $(SMOKE)/sweep.cpu.pprof`.
profile: build
	rm -rf $(SMOKE)/profile
	mkdir -p $(SMOKE)/profile
	./$(BIN)/htmbench -exp all -scale test -jobs $(JOBS) -cache-dir $(SMOKE)/profile/cache -progress=false \
		-cpuprofile $(SMOKE)/sweep.cpu.pprof -memprofile $(SMOKE)/sweep.heap.pprof \
		>/dev/null 2>$(SMOKE)/profile.log
	@for i in 1 2 3 4 5 6 7 8 9 10; do \
		./$(BIN)/htmbench -exp all -scale test -jobs $(JOBS) -cache-dir $(SMOKE)/profile/cache -progress=false \
			-cpuprofile $(SMOKE)/profile/warm$$i.pprof >/dev/null 2>>$(SMOKE)/profile.log || exit 1; \
	done
	$(GO) tool pprof -proto $(SMOKE)/profile/warm*.pprof >$(SMOKE)/sweep.warm.cpu.pprof
	@test -s $(SMOKE)/sweep.cpu.pprof || { echo "empty CPU profile"; exit 1; }
	@test -s $(SMOKE)/sweep.heap.pprof || { echo "empty heap profile"; exit 1; }
	@test $$(grep -c 'computed=0 .*hit=100.0%' $(SMOKE)/profile.log) -eq 10 || { echo "the warm passes were not all hits"; exit 1; }
	@{ echo "== cold pass, by kind and benchmark"; \
		$(GO) tool pprof -tags -tagshow='^(kind|bench)$$' $(SMOKE)/sweep.cpu.pprof; \
		echo "== 10 warm passes, by phase"; \
		$(GO) tool pprof -tags -tagshow='^phase$$' $(SMOKE)/sweep.warm.cpu.pprof; } >>$(SMOKE)/profile.log 2>&1
	@echo "profile ok: wrote $(SMOKE)/sweep.cpu.pprof, $(SMOKE)/sweep.heap.pprof and $(SMOKE)/sweep.warm.cpu.pprof; splits in $(SMOKE)/profile.log"

# pgo regenerates cmd/htmbench/default.pgo, the CPU profile that `go build`,
# `go run` and `go test` of htmbench compile with by default (-pgo=auto). It
# profiles what users and the repository benchmark run — every experiment at
# test scale, uncached, on one worker — over seeds 1-6 from a build that
# ignores the old profile, and merges the six profiles into one. -trimpath
# keeps the checkout's location out of the profile: the compiler matches
# samples by function name and line offset, not by file path. Refresh it
# when the engine's hot path changes.
pgo:
	rm -rf $(SMOKE)/pgo
	mkdir -p $(SMOKE)/pgo
	$(GO) build -pgo=off -trimpath -o $(SMOKE)/pgo/htmbench ./cmd/htmbench
	@for seed in 1 2 3 4 5 6; do \
		$(SMOKE)/pgo/htmbench -exp all -scale test -repeats 2 -jobs 1 -no-cache -progress=false \
			-seed $$seed -cpuprofile $(SMOKE)/pgo/cpu$$seed.pprof >/dev/null 2>$(SMOKE)/pgo/run$$seed.log || { \
			cat $(SMOKE)/pgo/run$$seed.log; exit 1; }; \
	done
	$(GO) tool pprof -proto $(SMOKE)/pgo/cpu*.pprof >cmd/htmbench/default.pgo
	@echo "pgo: rewrote cmd/htmbench/default.pgo"

# trace-smoke records an event-traced run of a small benchmark and validates
# both export formats, then exercises the sweep-level tracing/metrics flags:
# every per-cell JSONL file must validate and METRICS.json must report the
# computed cells.
trace-smoke: build
	mkdir -p $(SMOKE)
	./$(BIN)/htmtrace -events -bench intruder -scale test -threads 4 \
		-jsonl $(SMOKE)/intruder.jsonl -perfetto $(SMOKE)/intruder.trace.json \
		>$(SMOKE)/intruder-report.txt 2>$(SMOKE)/intruder-report.log
	grep -q 'top conflicting lines' $(SMOKE)/intruder-report.txt
	./$(BIN)/htmtrace -check-events $(SMOKE)/intruder.jsonl \
		-check-trace $(SMOKE)/intruder.trace.json
	rm -rf $(SMOKE)/traces
	./$(BIN)/htmbench -exp fig2+3 -scale test -jobs $(JOBS) -no-cache \
		-trace-dir $(SMOKE)/traces -metrics $(SMOKE)/METRICS.json \
		>/dev/null 2>$(SMOKE)/trace-sweep.log
	@ls $(SMOKE)/traces/*.jsonl >/dev/null 2>&1 || { \
		echo "sweep produced no per-cell trace files"; exit 1; }
	@for f in $(SMOKE)/traces/*.jsonl; do \
		./$(BIN)/htmtrace -check-events $$f >/dev/null || exit 1; done
	@grep -q '"sweep_cells_computed_total"' $(SMOKE)/METRICS.json || { \
		echo "METRICS.json missing counters:"; cat $(SMOKE)/METRICS.json; exit 1; }
	@echo "trace-smoke ok: event report, Chrome trace, per-cell JSONL and METRICS.json all validate"

# fuzz-smoke runs each native fuzz target for $(FUZZTIME) of coverage-guided
# input generation (generated transactional programs differentially checked
# against STM and a global lock, with witness-log replay; FuzzSchedules also
# draws the yield quantum and per-thread start offsets that steer the
# scheduler through interleavings its default would not pick), then proves the
# oracle actually fires: a build with -tags mutate_isolation seeds a
# write-set-isolation bug in the engine that the mutation tests must catch.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDifferential$$' -fuzztime $(FUZZTIME) ./internal/verify
	$(GO) test -run '^$$' -fuzz '^FuzzProgramHTM$$' -fuzztime $(FUZZTIME) ./internal/verify
	$(GO) test -run '^$$' -fuzz '^FuzzSchedules$$' -fuzztime $(FUZZTIME) ./internal/verify
	$(GO) test -tags mutate_isolation -run '^TestMutation' -count=1 ./internal/verify
	@echo "fuzz-smoke ok: all fuzz targets ran clean and the seeded mutation was caught"

# chaos-smoke runs the chaos/soak test suite under the race detector, then
# every experiment at test scale under -chaos (the four engine abort classes
# and torn cache records armed): every afflicted run must validate, so the
# sweep must complete with zero failed cells, name no deleted fault class and
# emit tables byte-identical to a fault-free run. The chaos report is left in
# $(SMOKE) for artifact upload.
chaos-smoke: build
	$(GO) test -race -count=1 -run 'Chaos' \
		./internal/harness/sweep ./internal/chaos ./internal/htm ./internal/adapt ./internal/harness
	rm -rf $(SMOKE)/chaos
	mkdir -p $(SMOKE)/chaos
	./$(BIN)/htmbench -exp all -scale test -jobs $(JOBS) \
		-cache-dir $(SMOKE)/chaos/cache-clean \
		>$(SMOKE)/chaos/clean.txt 2>$(SMOKE)/chaos/clean.log
	./$(BIN)/htmbench -exp all -scale test -jobs $(JOBS) \
		-chaos -chaos-seed 42 \
		-chaos-report $(SMOKE)/chaos/report.json \
		-cache-dir $(SMOKE)/chaos/cache-chaos \
		>$(SMOKE)/chaos/chaos.txt 2>$(SMOKE)/chaos/chaos.log
	cmp $(SMOKE)/chaos/clean.txt $(SMOKE)/chaos/chaos.txt
	@grep -q ' failed=0 ' $(SMOKE)/chaos/chaos.log || { \
		echo "chaos sweep failed cells:"; cat $(SMOKE)/chaos/chaos.log; exit 1; }
	@grep -q '"total_fired": [1-9]' $(SMOKE)/chaos/report.json || { \
		echo "chaos never fired anything:"; cat $(SMOKE)/chaos/report.json; exit 1; }
	@! grep -qE 'cell-panic|cell-stall|worker-crash' $(SMOKE)/chaos/report.json || { \
		echo "chaos report names a deleted fault class:"; cat $(SMOKE)/chaos/report.json; exit 1; }
	@echo "chaos-smoke ok: every afflicted run validated, tables byte-identical to the fault-free run"

# cover gates statement coverage of the engine and its verification oracle,
# the experiment harness, the sweep scheduler and the result cache against
# the checked-in floors. Each line of COVERAGE.floor is a whole percent and
# the packages it holds to it: htm and verify together, htm on its own,
# harness, sweep, and cache. The tm suite runs too because it drives much of
# internal/htm. A block counts toward a package only if its file sits in that
# package's own directory (harness does not take in harness/sweep), and its
# statements count once however many test binaries report it, as in
# `go tool cover -func`.
cover:
	mkdir -p $(SMOKE)
	$(GO) test -count=1 -coverprofile=$(SMOKE)/cover.out \
		-coverpkg=./internal/htm,./internal/verify,./internal/harness,./internal/harness/sweep,./internal/cache \
		./internal/htm ./internal/verify ./internal/tm ./internal/harness ./internal/harness/sweep ./internal/cache
	@while read -r floor pkgs; do \
		total=$$(awk -v pkgs="$$pkgs" 'BEGIN { n = split(pkgs, p, " ") } \
			NR > 1 { d = $$1; sub(/\/[^\/]*$$/, "", d); for (i = 1; i <= n; i++) if (d == p[i]) { s[$$1] = $$2; if ($$3 > 0) c[$$1] = 1 } } \
			END { for (b in s) { t += s[b]; if (b in c) h += s[b] } printf "%.1f", 100 * h / t }' $(SMOKE)/cover.out); \
		echo "coverage of $$pkgs: $$total% (floor: $$floor%)"; \
		awk -v t=$$total -v f=$$floor 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || { \
			echo "coverage $$total% of $$pkgs fell below the checked-in floor $$floor%"; exit 1; }; \
	done <COVERAGE.floor

# results-sim regenerates the checked-in sim-scale results file. Run after
# any change that intentionally shifts measured numbers, and commit the
# result; CI's results-sim-diff job diffs against it.
results-sim: build
	./$(BIN)/htmbench -exp all -scale sim -repeats 2 -jobs $(JOBS) > results_sim.txt
	@echo "results-sim: rewrote results_sim.txt"

# results-sim-diff is the drift gate CI runs on every push and PR:
# regenerate the sim-scale results into $(SMOKE) and fail on any difference
# from the checked-in file, leaving the diff behind for artifact upload. CI
# runs it cold (about 25 s); locally it reuses the content-addressed
# .htmcache, where a warm run is ~0.03 s of htmbench.
results-sim-diff: build
	mkdir -p $(SMOKE)
	./$(BIN)/htmbench -exp all -scale sim -repeats 2 -jobs $(JOBS) \
		>$(SMOKE)/results_sim.txt 2>$(SMOKE)/results_sim.log
	@if ! diff -u results_sim.txt $(SMOKE)/results_sim.txt >$(SMOKE)/results_sim.diff; then \
		echo "results_sim.txt drifted from a fresh sim sweep:"; \
		cat $(SMOKE)/results_sim.diff; exit 1; fi
	@echo "results-sim-diff ok: fresh sweep matches checked-in results_sim.txt byte-for-byte"

clean:
	rm -rf $(BIN) $(SMOKE) .htmcache
