package main

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"time"

	"htmcmp/internal/cache"
	"htmcmp/internal/features"
	"htmcmp/internal/harness"
	"htmcmp/internal/harness/sweep"
	"htmcmp/internal/htm"
	"htmcmp/internal/mem"
	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
	"htmcmp/internal/stats"
	"htmcmp/internal/tm"
	"htmcmp/internal/trace"
)

// The twins re-enact, from the benchmark's own files and through public
// functions only, what an htmbench process does, with a span around each
// call into a layer. Spans inside the program are a later change.

// replicaExec is the engine twin's harness.Exec: where the CLI's scheduler
// would call harness.Run, it runs a replica of harness.Run written against
// the layers' public functions, so each of them can be timed.
type replicaExec struct {
	rec   *recorder
	store *cache.Store
	// arenas recycles simulated address spaces between runs the way
	// harness/pool.go does — a sync.Pool, so the garbage collector may drop
	// a parked arena and the next engine pays mem.NewSpace again.
	arenas sync.Pool

	results  map[string]harness.Result // by cache key
	cellS    map[string]float64        // replica host seconds, by cache key
	handoffs uint64                    // virtual-scheduler handoffs of the parallel runs
	txAccess uint64                    // transactional loads+stores of the parallel runs
}

// Measure implements harness.Exec.
func (x *replicaExec) Measure(spec harness.RunSpec, tune bool) (harness.Result, error) {
	if tune {
		return harness.Result{}, fmt.Errorf("bench: the replica does not model the retry-count search")
	}
	cell := sweep.Cell{Kind: sweep.Measure, Spec: spec}
	id := x.rec.begin("sweep", "sweep.Cell.Key")
	key, err := cell.Key()
	x.rec.end(id)
	if err != nil {
		return harness.Result{}, err
	}
	x.rec.setCell(key)
	defer x.rec.setCell("")

	var hit cacheRecord
	id = x.rec.begin("cache", "cache.Get")
	ok, err := x.store.Get(key, &hit)
	x.rec.end(id)
	if err != nil {
		return harness.Result{}, err
	}
	if ok {
		return harness.Result{}, fmt.Errorf("bench: the twin's cache already holds %s", cell.Label())
	}

	start := time.Now()
	res, err := x.run(spec)
	if err != nil {
		return res, err
	}
	secs := time.Since(start).Seconds()

	id = x.rec.begin("cache", "cache.Put")
	err = x.store.Put(key, cacheRecord{Cell: cell, Result: &res, Seconds: secs})
	x.rec.end(id)
	x.results[key], x.cellS[key] = res, secs
	return res, err
}

// run is the replica of harness.Run for the plain HTM cells of Figures 2
// and 3. checkReplica compares what it returns with what the CLI stored for
// the same cell.
func (x *replicaExec) run(spec harness.RunSpec) (harness.Result, error) {
	if spec.UseHLE || spec.UseSTM || spec.Adaptive || spec.Policy != nil || spec.TMCAMEntries != 0 {
		return harness.Result{}, fmt.Errorf("bench: the replica models plain HTM cells only, not %s", spec.Label())
	}
	// RunSpec.withDefaults, which is unexported.
	if spec.Repeats <= 0 {
		spec.Repeats = 2
	}
	if spec.CostScale == 0 {
		spec.CostScale = 1
	}
	if spec.Seed == 0 {
		spec.Seed = 42
	}
	if spec.SpaceSize == 0 {
		spec.SpaceSize = 64 << 20
	}
	if spec.Threads <= 0 {
		spec.Threads = 4
	}
	res := harness.Result{Spec: spec}
	seedOf := func(i int) uint64 { return spec.Seed + uint64(i)*1009 }

	seqTimes := make([]float64, 0, spec.Repeats)
	id := x.rec.begin("harness", "harness.seq")
	for i := 0; i < spec.Repeats; i++ {
		s, _, _, err := x.once(spec, seedOf(i), false)
		if err != nil {
			x.rec.end(id)
			return res, err
		}
		seqTimes = append(seqTimes, s)
	}
	x.rec.end(id)
	res.SeqSeconds = stats.Mean(seqTimes)

	parTimes := make([]float64, 0, spec.Repeats)
	speedups := make([]float64, 0, spec.Repeats)
	id = x.rec.begin("harness", "harness.par")
	for i := 0; i < spec.Repeats; i++ {
		p, tmStats, eng, err := x.once(spec, seedOf(i), true)
		if err != nil {
			x.rec.end(id)
			return res, err
		}
		parTimes = append(parTimes, p)
		speedups = append(speedups, seqTimes[i]/p)
		res.TM.Add(&tmStats)
		res.Engine = addEngine(res.Engine, eng)
	}
	x.rec.end(id)
	x.txAccess += res.Engine.TxLoads + res.Engine.TxStores
	res.ParSeconds = stats.Mean(parTimes)
	res.Speedup = stats.Mean(speedups)
	res.SpeedupCI = stats.CI95(speedups)
	res.AbortRatio = res.TM.AbortRatio()
	res.Breakdown = res.TM.CategoryBreakdown()
	res.SerializationRatio = res.TM.SerializationRatio()
	return res, nil
}

// once is one sequential (par false) or parallel run: harness.runSeqOnce and
// runParOnce with no tracer, telemetry or fault injector attached.
func (x *replicaExec) once(spec harness.RunSpec, seed uint64, par bool) (float64, tm.Stats, htm.Stats, error) {
	rec := x.rec
	threads := 1
	if par {
		threads = spec.Threads
	}
	cfg := htm.Config{
		Threads: threads, SpaceSize: spec.SpaceSize, Seed: seed, Mode: spec.Mode,
		DisablePrefetch: spec.DisablePrefetch, DisableSMTSharing: spec.DisableSMTSharing,
		ResponderWins: spec.ResponderWins, CostScale: spec.CostScale, Virtual: true,
	}
	id := rec.begin("mem", "mem.NewSpace")
	if sp, ok := x.arenas.Get().(*mem.Space); ok && sp.Size() == cfg.SpaceSize {
		cfg.Space = sp
	} else {
		cfg.Space = mem.NewSpace(cfg.SpaceSize)
	}
	rec.end(id)

	id = rec.begin("htm", "htm.New")
	e := htm.New(platform.New(spec.Platform), cfg)
	rec.end(id)

	id = rec.begin("stamp", "stamp.New")
	b, err := stamp.New(spec.Benchmark, stamp.Config{
		Scale: spec.Scale, Variant: spec.Variant, Seed: seed, ChunkStep1: spec.ChunkStep1})
	rec.end(id)
	if err != nil {
		return 0, tm.Stats{}, htm.Stats{}, err
	}

	id = rec.begin("stamp", "stamp.Setup")
	b.Setup(e.Thread(0))
	rec.end(id)

	runners := []stamp.Runner{stamp.SeqRunner{T: e.Thread(0)}}
	var execs []*tm.Executor
	if par {
		id = rec.begin("tm", "tm.NewExecutors")
		lock := tm.NewGlobalLock(e)
		pol := tm.DefaultPolicy(spec.Platform)
		if spec.Platform == platform.BlueGeneQ && spec.Mode == platform.LongRunning {
			pol.LazySubscription = true
		}
		runners = make([]stamp.Runner, threads)
		execs = make([]*tm.Executor, threads)
		for i := range runners {
			execs[i] = tm.NewExecutorConfig(e.Thread(i), lock, tm.Config{Policy: pol})
			runners[i] = stamp.TMRunner{X: execs[i]}
		}
		rec.end(id)
		e.ResetStats()
	}
	e.ResetClocks()

	id = rec.begin("stamp", "stamp.Run")
	b.Run(runners)
	rec.end(id)
	elapsed := float64(e.MaxClock())

	id = rec.begin("stamp", "stamp.Validate")
	err = b.Validate(e.Thread(0))
	rec.end(id)
	if err != nil {
		return 0, tm.Stats{}, htm.Stats{}, fmt.Errorf("%s on %s (%d threads): %w", spec.Benchmark, spec.Platform, threads, err)
	}

	var agg tm.Stats
	for _, ex := range execs {
		agg.Add(&ex.Stats)
	}
	eng := e.Stats()
	if par {
		x.handoffs += e.SchedHandoffs()
	}
	sp := e.Space()
	id = rec.begin("htm", "htm.Release")
	e.Release()
	rec.end(id)

	id = rec.begin("mem", "mem.Reset")
	sp.Reset()
	x.arenas.Put(sp)
	rec.end(id)
	return elapsed, agg, eng, nil
}

// addEngine is harness.mergeEngine, which is unexported.
func addEngine(a, b htm.Stats) htm.Stats {
	a.Begins += b.Begins
	a.Commits += b.Commits
	a.Aborts += b.Aborts
	for i := range a.AbortsByReason {
		a.AbortsByReason[i] += b.AbortsByReason[i]
	}
	a.TxLoads += b.TxLoads
	a.TxStores += b.TxStores
	a.SpecIDWaits += b.SpecIDWaits
	if b.MaxReadLines > a.MaxReadLines {
		a.MaxReadLines = b.MaxReadLines
	}
	if b.MaxWriteLines > a.MaxWriteLines {
		a.MaxWriteLines = b.MaxWriteLines
	}
	return a
}

// engineTwinResult is one pass of the engine_serial twin.
type engineTwinResult struct {
	Seconds  float64 // root span duration
	Tables   []byte  // Figures 2 and 3 as the CLI prints them
	Results  map[string]harness.Result
	CellS    map[string]float64
	Handoffs uint64
	TxAccess uint64
}

// engineTwin runs Figures 2 and 3 through the replica against an empty
// cache in storeDir. rec may be nil (tracing off).
func engineTwin(rec *recorder, scale stamp.Scale, seed uint64, storeDir string) (engineTwinResult, error) {
	store, err := cache.Open(storeDir)
	if err != nil {
		return engineTwinResult{}, err
	}
	x := &replicaExec{rec: rec, store: store, results: map[string]harness.Result{}, cellS: map[string]float64{}}
	start := time.Now()
	root := rec.begin(unattributed, "engine_serial twin")
	defer rec.end(root)

	id := rec.begin("harness", "harness.Fig2And3")
	f2, f3, err := harness.Fig2And3(harness.Options{Scale: scale, Repeats: 2, Seed: seed, Exec: x})
	rec.end(id)
	if err != nil {
		return engineTwinResult{}, err
	}
	var out bytes.Buffer
	id = rec.begin("harness", "harness.Table.Fprint")
	f2.Fprint(&out)
	f3.Fprint(&out)
	rec.end(id)
	return engineTwinResult{
		Seconds: time.Since(start).Seconds(), Tables: out.Bytes(),
		Results: x.results, CellS: x.cellS, Handoffs: x.handoffs, TxAccess: x.txAccess,
	}, nil
}

// checkReplica is the replica-drift guard: every cell the replica measured
// must equal, field for field, what the CLI stored for the same cell, and
// its tables must equal the CLI's stdout. It returns the ratio of replica to
// recorded cell seconds.
func checkReplica(twin engineTwinResult, cli procResult) (replicaRatio float64, problems []string) {
	recs, _, err := readRecords(cli.CacheDir)
	if err != nil {
		return 0, []string{fmt.Sprintf("reading the CLI's cache: %v", err)}
	}
	if len(recs) != len(twin.Results) {
		problems = append(problems, fmt.Sprintf("replica measured %d cells, CLI stored %d", len(twin.Results), len(recs)))
	}
	var twinS, cliS float64
	for key, got := range twin.Results {
		rec, ok := recs[key]
		if !ok || rec.Result == nil {
			problems = append(problems, fmt.Sprintf("CLI cache has no record for replica cell %s", got.Spec.Label()))
			continue
		}
		want := *rec.Result
		if got.SeqSeconds != want.SeqSeconds || got.ParSeconds != want.ParSeconds || got.Speedup != want.Speedup ||
			got.Engine != want.Engine || got.TM != want.TM {
			problems = append(problems, fmt.Sprintf("replica result differs from the CLI's for %s", got.Spec.Label()))
		}
		twinS += twin.CellS[key]
		cliS += rec.Seconds
	}
	if !bytes.Equal(twin.Tables, cli.Stdout) {
		problems = append(problems, "replica tables differ from the CLI's stdout")
	}
	return ratio(twinS, cliS), problems
}

// renderExperiment runs one cell-bearing experiment the way htmbench's
// runExperiment does and prints its tables to out. exec and coll decide how
// cells are satisfied: a *sweep.Plan records them, a *sweep.Scheduler serves
// them precomputed. The footprint figures are collected but not formatted
// (their table code lives in package main of cmd/htmbench).
func renderExperiment(name string, opts harness.Options, coll trace.Collector, out io.Writer) error {
	one := func(t harness.Table, err error) error {
		if err == nil {
			t.Fprint(out)
		}
		return err
	}
	switch name {
	case "fig2+3":
		f2, f3, err := harness.Fig2And3(opts)
		if err != nil {
			return err
		}
		f2.Fprint(out)
		f3.Fprint(out)
		return nil
	case "fig4":
		return one(harness.Fig4(opts))
	case "fig5":
		return one(harness.Fig5(opts))
	case "fig7":
		return one(harness.Fig7(opts))
	case "fig10", "fig11":
		_, err := trace.CollectAll(trace.Options{Scale: opts.Scale, Seed: opts.Seed, Exec: coll})
		return err
	case "prefetch":
		return one(harness.PrefetchAblation(opts))
	case "stm":
		return one(harness.STMComparison(opts))
	case "capacity":
		for _, bench := range []string{"intruder", "vacation-high", "yada"} {
			if err := one(harness.CapacitySweep(opts, bench)); err != nil {
				return err
			}
		}
		return nil
	case "adaptive":
		return one(harness.AdaptiveComparison(opts))
	}
	return fmt.Errorf("bench: experiment %q has no cells", name)
}

// warmTwinResult is one pass of the regen_warm twin.
type warmTwinResult struct {
	Seconds  float64
	PrewarmS float64
	Cells    []sweep.Cell
}

// warmTwin replays the warm path over the workload's experiments against the
// populated cache in cacheDir: planning pass, an all-hit Prewarm, the render
// pass, and the two feature experiments that never enter the cache.
func warmTwin(rec *recorder, w workload, scale stamp.Scale, seed uint64, cacheDir string) (warmTwinResult, error) {
	var res warmTwinResult
	start := time.Now()
	root := rec.begin(unattributed, "regen_warm twin")
	defer rec.end(root)

	opts := harness.Options{Scale: scale, Repeats: 2, Seed: seed}
	plan := sweep.NewPlan()
	planOpts := opts
	planOpts.Exec = plan
	id := rec.begin("sweep", "sweep.plan")
	for _, name := range w.experiments() {
		if err := renderExperiment(name, planOpts, plan, io.Discard); err != nil {
			rec.end(id)
			return res, fmt.Errorf("planning %s: %w", name, err)
		}
	}
	rec.end(id)
	res.Cells = plan.Cells()

	id = rec.begin("cache", "cache.Open")
	store, err := cache.Open(cacheDir)
	rec.end(id)
	if err != nil {
		return res, err
	}
	sched := sweep.New(sweep.Config{Jobs: w.jobs(), Cache: store, Resume: true, Timeout: 30 * time.Minute, Retries: 2, Seed: 42})
	id = rec.begin("sweep", "sweep.Prewarm")
	sum := sched.Prewarm(res.Cells)
	rec.end(id)
	res.PrewarmS = sum.Elapsed.Seconds()
	if sum.Computed != 0 || sum.Failed != 0 || sum.Cached != len(res.Cells) {
		return res, fmt.Errorf("warm twin expected %d cache hits, got %s", len(res.Cells), sum)
	}

	renderOpts := opts
	renderOpts.Exec = sched
	id = rec.begin("sweep", "sweep.render")
	for _, name := range w.experiments() {
		if err := renderExperiment(name, renderOpts, sched, io.Discard); err != nil {
			rec.end(id)
			return res, fmt.Errorf("rendering %s: %w", name, err)
		}
	}
	rec.end(id)

	id = rec.begin("features", "features.RunCLQ")
	_, err = features.RunCLQ(features.CLQOptions{Seed: seed})
	rec.end(id)
	if err != nil {
		return res, err
	}
	id = rec.begin("features", "features.RunTLS")
	_, err = features.RunTLS(features.TLSOptions{Seed: seed})
	rec.end(id)
	res.Seconds = time.Since(start).Seconds()
	return res, err
}

// cacheProbe times cache.Key, Get and Put per record, on the real payloads
// of the populated cache in cacheDir (Put goes to the empty scratchDir), and
// returns the p50 of each in microseconds.
func cacheProbe(cells []sweep.Cell, cacheDir, scratchDir string) (keyUS, getUS, putUS float64, err error) {
	store, err := cache.Open(cacheDir)
	if err != nil {
		return 0, 0, 0, err
	}
	scratch, err := cache.Open(scratchDir)
	if err != nil {
		return 0, 0, 0, err
	}
	var keys, gets, puts []float64
	for _, c := range cells {
		t0 := time.Now()
		key, err := c.Key()
		t1 := time.Now()
		if err != nil {
			return 0, 0, 0, err
		}
		var rec cacheRecord
		ok, err := store.Get(key, &rec)
		t2 := time.Now()
		if err != nil || !ok {
			return 0, 0, 0, fmt.Errorf("cache probe: no record for %s (err %v)", c.Label(), err)
		}
		if err := scratch.Put(key, rec); err != nil {
			return 0, 0, 0, err
		}
		t3 := time.Now()
		keys = append(keys, t1.Sub(t0).Seconds()*1e6)
		gets = append(gets, t2.Sub(t1).Seconds()*1e6)
		puts = append(puts, t3.Sub(t2).Seconds()*1e6)
	}
	return median(keys), median(gets), median(puts), nil
}
