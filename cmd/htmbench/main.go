// Command htmbench regenerates the tables and figures of Nakaike et al.,
// "Quantitative Comparison of Hardware Transactional Memory for Blue
// Gene/Q, zEnterprise EC12, Intel Core, and POWER8" (ISCA 2015) on the
// simulated-HTM substrate.
//
// Usage:
//
//	htmbench -exp fig2 [-scale sim] [-repeats 2] [-tune] [-csv] [-v]
//	         [-jobs N] [-cache-dir .htmcache] [-no-cache] [-resume=false]
//	         [-trace-dir DIR] [-metrics FILE] [-verify]
//	         [-chaos] [-chaos-seed N] [-chaos-report FILE]
//
// Experiments: htmbench -h lists the -exp names (one per table or figure,
// prefetch for the Section 5.1 ablation, or all).
//
// Sweeps are scheduled: the selected experiments are first decomposed into
// their independent cells (a measured configuration, a footprint collection
// or one Figure 6 / Figure 9 engine run each; only table1 has none), which a
// worker pool executes concurrently (-jobs) on top of a content-addressed
// on-disk result cache (-cache-dir), so a rerun or an interrupted sweep
// resumes by skipping completed cells. Tables are then rendered from the
// precomputed results, byte-identical to a serial run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"htmcmp/internal/cache"
	"htmcmp/internal/chaos"
	"htmcmp/internal/features"
	"htmcmp/internal/harness"
	"htmcmp/internal/harness/sweep"
	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
	"htmcmp/internal/trace"
)

func main() {
	exp := flag.String("exp", "all", "experiment, one of: "+strings.Join(expNames(), ", "))
	scaleName := flag.String("scale", "sim", "workload scale: test, sim, full")
	repeats := flag.Int("repeats", 2, "measured runs per point (paper: 4)")
	tune := flag.Bool("tune", false, "search retry counts per test case as the paper does (slow)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	verbose := flag.Bool("v", false, "log per-point progress to stderr")
	seed := flag.Uint64("seed", 42, "workload seed")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "concurrent sweep workers")
	cacheDir := flag.String("cache-dir", ".htmcache", "on-disk result cache directory")
	noCache := flag.Bool("no-cache", false, "disable the on-disk result cache entirely")
	resume := flag.Bool("resume", true, "reuse cached results from earlier runs (false recomputes and overwrites)")
	cellTimeout := flag.Duration("cell-timeout", 30*time.Minute, "per-cell wall-clock budget (0 = unbounded)")
	progress := flag.Bool("progress", true, "print live sweep progress/ETA to stderr")
	traceDir := flag.String("trace-dir", "", "write one JSONL transaction-event file per simulated engine region into this directory (implies -resume=false: cached cells execute nothing)")
	verify := flag.Bool("verify", false, "cross-check every planned cell under {HTM, NOrec STM, global lock} before measuring; exit non-zero on divergence")
	metricsPath := flag.String("metrics", "", "write the sweep's registry counters (sweep_*, htm_tx_*, tm_mode_switches_total) as JSON to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (taken after the sweep) to this file")
	chaosOn := flag.Bool("chaos", false, "inject deterministic faults into the sweep (engine aborts and torn cache records, default mix); an afflicted cell must validate and only its clean rerun is kept, so rendered tables are unchanged")
	chaosSeed := flag.Uint64("chaos-seed", 42, "seed for fault injection")
	chaosReport := flag.String("chaos-report", "", "write injected-fault counts and the sweep's failed and evicted cells as JSON to this file")
	flag.Parse()

	// Usage errors exit 2 here, before anything is created or bound.
	names, err := expandExp(*exp)
	if err != nil {
		usageError(err)
	}
	scale, err := stamp.ParseScale(*scaleName)
	if err != nil {
		usageError(err)
	}
	if *repeats < 1 {
		usageError(fmt.Errorf("-repeats must be 1 or more, got %d", *repeats))
	}
	if *jobs < 1 {
		usageError(fmt.Errorf("-jobs must be 1 or more, got %d", *jobs))
	}
	if *cellTimeout < 0 {
		usageError(fmt.Errorf("-cell-timeout must be 0 or more, got %s", *cellTimeout))
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "htmbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "htmbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "htmbench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush transient garbage so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "htmbench: memprofile: %v\n", err)
			}
		}()
	}

	opts := harness.Options{
		Scale:   scale,
		Repeats: *repeats,
		Tune:    *tune,
		Seed:    *seed,
	}

	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "htmbench: %v\n", err)
			os.Exit(1)
		}
	}
	*resume = reconcileTraceResume(*traceDir, *resume, os.Stderr)

	var store *cache.Store
	if !*noCache {
		var err error
		store, err = cache.Open(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "htmbench: %v (continuing without cache)\n", err)
		}
	}
	var progressW io.Writer
	if *progress {
		progressW = os.Stderr
	}
	var faults *chaos.Injector
	if *chaosOn {
		faults = chaos.New(chaos.DefaultConfig(*chaosSeed))
		fmt.Fprintf(os.Stderr, "htmbench: chaos enabled (seed %d); afflicted cells must validate, only clean runs are kept\n", *chaosSeed)
	}
	sched := sweep.New(sweep.Config{
		Jobs:     *jobs,
		Cache:    store,
		Resume:   *resume,
		Timeout:  *cellTimeout,
		Progress: progressW,
		TraceDir: *traceDir,
		Faults:   faults,
	})

	plan, err := planCells(names, opts, *csv)
	if err != nil {
		fmt.Fprintf(os.Stderr, "htmbench: %v\n", err)
		os.Exit(1)
	}

	// Verification pass (optional): every distinct measured configuration
	// is re-run under the differential runner modes before any time is
	// spent on the sweep proper.
	if *verify {
		if n, err := verifyCells(plan.Cells(), os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "htmbench: %v\n", err)
			os.Exit(1)
		} else {
			fmt.Fprintf(os.Stderr, "htmbench: verified %d cells\n", n)
		}
	}

	// Execution pass: the worker pool computes (or loads) every cell.
	sum := sched.Prewarm(plan.Cells())

	if *verbose {
		opts.Log = os.Stderr
	}
	err = renderTables(names, opts, sched, os.Stdout, *csv)
	if err != nil {
		fmt.Fprintf(os.Stderr, "htmbench: %v\n", err)
	}
	fmt.Fprintf(os.Stderr, "sweep summary: %s\n", sum)
	writeMetrics(*metricsPath, sched)
	writeChaosReport(*chaosReport, faults, sum)
	if err != nil {
		os.Exit(1)
	}
}

// usageError reports a bad flag value in one line and exits 2.
func usageError(err error) {
	fmt.Fprintf(os.Stderr, "htmbench: %v\n", err)
	os.Exit(2)
}

// experiments is every name -exp takes besides "all", in table order. inAll
// marks the ones "all" runs: it takes fig2+3, which renders both figures
// from one pass over their shared cells, in place of fig2 and fig3.
var experiments = []struct {
	name  string
	inAll bool
}{
	{"table1", true}, {"fig2", false}, {"fig3", false}, {"fig2+3", true},
	{"fig4", true}, {"fig5", true}, {"fig6", true}, {"fig7", true}, {"fig9", true},
	{"fig10", true}, {"fig11", true}, {"prefetch", true}, {"stm", true},
	{"capacity", true}, {"adaptive", true},
}

// expNames lists what -exp accepts.
func expNames() []string {
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return append(names, "all")
}

// expandExp turns the -exp value into the experiments to run, in table order.
func expandExp(exp string) ([]string, error) {
	var names []string
	for _, e := range experiments {
		if exp == e.name || exp == "all" && e.inAll {
			names = append(names, e.name)
		}
	}
	if names == nil {
		return nil, fmt.Errorf("unknown experiment %q (one of: %s)", exp, strings.Join(expNames(), ", "))
	}
	return names, nil
}

// planCells is the planning pass: it records every cell the experiments will
// request. Tables are rendered against zero results and discarded.
func planCells(names []string, opts harness.Options, csv bool) (*sweep.Plan, error) {
	plan := sweep.NewPlan()
	for _, n := range names {
		if err := runExperiment(n, opts, plan, io.Discard, csv); err != nil {
			return nil, fmt.Errorf("planning %s: %w", n, err)
		}
	}
	return plan, nil
}

// renderTables is the render pass: the experiments re-run serially, now
// satisfied from the results sched has precomputed, so tables come out
// byte-identical to a fully serial run.
func renderTables(names []string, opts harness.Options, sched *sweep.Scheduler, out io.Writer, csv bool) error {
	for _, n := range names {
		if err := runExperiment(n, opts, sched, out, csv); err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
	}
	return nil
}

// verifyCells runs harness.Verify over the distinct measured configurations
// among cells (only cells that carry a RunSpec have one to verify), logging
// per-cell progress to w, and returns how many were verified. The first
// divergence aborts the pass: a broken engine makes the sweep worthless.
func verifyCells(cells []sweep.Cell, w io.Writer) (int, error) {
	seen := map[string]bool{}
	n := 0
	for _, c := range cells {
		if !c.Kind.HasSpec() {
			continue
		}
		if seen[c.Spec.Label()] {
			continue
		}
		seen[c.Spec.Label()] = true
		fmt.Fprintf(w, "htmbench: verify %s\n", c.Spec.Label())
		if err := harness.Verify(c.Spec); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// reconcileTraceResume applies the -trace-dir / -resume flag interaction:
// cache hits never execute a simulation, so they would leave holes in the
// trace set — a non-empty trace dir therefore forces recomputation,
// warning on w. It returns the effective resume value.
func reconcileTraceResume(traceDir string, resume bool, w io.Writer) bool {
	if traceDir == "" || !resume {
		return resume
	}
	fmt.Fprintln(w, "htmbench: -trace-dir forces -resume=false (cached cells produce no events)")
	return false
}

// writeMetrics dumps the counters of the scheduler's registry to path (no-op
// when empty). Written even on render failure so a partial sweep is
// observable.
func writeMetrics(path string, sched *sweep.Scheduler) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "htmbench: metrics: %v\n", err)
		return
	}
	defer f.Close()
	if err := sched.Registry().WriteCountersJSON(f); err != nil {
		fmt.Fprintf(os.Stderr, "htmbench: metrics: %v\n", err)
	}
}

// writeChaosReport dumps the injected-fault counters and the sweep's failed
// and evicted cells to path as JSON (no-op when path is empty). CI uploads
// it as an artifact so a chaos-smoke run leaves an inspectable record of
// what was injected.
func writeChaosReport(path string, faults *chaos.Injector, sum sweep.Summary) {
	if path == "" {
		return
	}
	if faults == nil {
		fmt.Fprintln(os.Stderr, "htmbench: chaos-report: nothing to report without -chaos")
		return
	}
	report := struct {
		Seed       uint64            `json:"seed"`
		Injected   map[string]uint64 `json:"injected"`
		TotalFired uint64            `json:"total_fired"`
		Cells      int               `json:"cells"`
		Evicted    int               `json:"evicted"`
		Failed     int               `json:"failed"`
	}{
		Seed: faults.Seed(), Injected: faults.Counts(), TotalFired: faults.TotalFired(),
		Cells: sum.Cells, Evicted: sum.Evicted, Failed: sum.Failed,
	}
	data, err := json.MarshalIndent(report, "", " ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "htmbench: chaos-report: %v\n", err)
	}
}

// cellSource is how an experiment's cells are satisfied: a *sweep.Plan
// records them, a *sweep.Scheduler serves them precomputed. Everything the
// CLI simulates is requested through one.
type cellSource interface {
	harness.Exec
	trace.Collector
	features.Exec
}

// runExperiment renders one experiment to out, requesting every cell from
// cells (table1 is static and requests none).
func runExperiment(name string, opts harness.Options, cells cellSource, out io.Writer, csv bool) error {
	opts.Exec = cells
	emit := func(t harness.Table) {
		if csv {
			t.CSV(out)
		} else {
			t.Fprint(out)
		}
	}
	switch name {
	case "table1":
		emit(harness.Table1())
	case "fig2", "fig3":
		f2, f3, err := harness.Fig2And3(opts)
		if err != nil {
			return err
		}
		if name == "fig2" {
			emit(f2)
		} else {
			emit(f3)
		}
	case "fig2+3":
		f2, f3, err := harness.Fig2And3(opts)
		if err != nil {
			return err
		}
		emit(f2)
		emit(f3)
	case "fig4":
		t, err := harness.Fig4(opts)
		if err != nil {
			return err
		}
		emit(t)
	case "fig5":
		t, err := harness.Fig5(opts)
		if err != nil {
			return err
		}
		emit(t)
	case "fig6":
		t, err := fig6Table(opts, cells)
		if err != nil {
			return err
		}
		emit(t)
	case "fig7":
		t, err := harness.Fig7(opts)
		if err != nil {
			return err
		}
		emit(t)
	case "fig9":
		t, err := fig9Table(opts, cells)
		if err != nil {
			return err
		}
		emit(t)
	case "fig10", "fig11":
		t10, t11, err := figFootprintTables(opts, cells)
		if err != nil {
			return err
		}
		if name == "fig10" {
			emit(t10)
		} else {
			emit(t11)
		}
	case "prefetch":
		t, err := harness.PrefetchAblation(opts)
		if err != nil {
			return err
		}
		emit(t)
	case "stm":
		t, err := harness.STMComparison(opts)
		if err != nil {
			return err
		}
		emit(t)
	case "capacity":
		for _, bench := range []string{"intruder", "vacation-high", "yada"} {
			t, err := harness.CapacitySweep(opts, bench)
			if err != nil {
				return err
			}
			emit(t)
		}
	case "adaptive":
		t, err := harness.AdaptiveComparison(opts)
		if err != nil {
			return err
		}
		emit(t)
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}

// fig6Table renders the Figure 6 CLQ experiment; exec answers its engine runs.
func fig6Table(opts harness.Options, exec features.Exec) (harness.Table, error) {
	logf(opts.Log, "fig6: zEC12 constrained transactions on ConcurrentLinkedQueue")
	results, err := features.RunCLQ(features.CLQOptions{Seed: opts.Seed, Exec: exec})
	if err != nil {
		return harness.Table{}, err
	}
	t := harness.Table{
		Title:  "Figure 6: relative execution time vs lock-free ConcurrentLinkedQueue (zEC12)",
		Note:   "lower is better; baseline is the lock-free CAS implementation at each thread count",
		Header: []string{"threads", "LockFree", "NoRetryTM", "OptRetryTM", "ConstrainedTM"},
	}
	byThreads := map[int]map[features.CLQMode]float64{}
	var order []int
	for _, r := range results {
		if _, ok := byThreads[r.Threads]; !ok {
			byThreads[r.Threads] = map[features.CLQMode]float64{}
			order = append(order, r.Threads)
		}
		byThreads[r.Threads][r.Mode] = r.Relative
	}
	for _, n := range order {
		m := byThreads[n]
		t.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.2f", m[features.CLQLockFree]),
			fmt.Sprintf("%.2f", m[features.CLQNoRetryTM]),
			fmt.Sprintf("%.2f", m[features.CLQOptRetryTM]),
			fmt.Sprintf("%.2f", m[features.CLQConstrainedTM]))
	}
	return t, nil
}

// fig9Table renders the Figure 9 TLS experiment; exec answers its engine runs.
func fig9Table(opts harness.Options, exec features.Exec) (harness.Table, error) {
	logf(opts.Log, "fig9: POWER8 TLS with and without suspend/resume")
	results, err := features.RunTLS(features.TLSOptions{Seed: opts.Seed, Exec: exec})
	if err != nil {
		return harness.Table{}, err
	}
	t := harness.Table{
		Title:  "Figure 9: TLS speed-up over sequential on POWER8",
		Header: []string{"kernel", "suspend/resume", "threads", "speedup", "abort%"},
	}
	for _, r := range results {
		sr := "without"
		if r.SuspendResume {
			sr = "with"
		}
		t.AddRow(r.Kernel.String(), sr, fmt.Sprintf("%d", r.Threads),
			fmt.Sprintf("%.2f", r.Speedup), fmt.Sprintf("%.1f", r.AbortRatio))
	}
	return t, nil
}

// figFootprintTables renders Figures 10 and 11; coll routes the footprint
// collections through the sweep.
func figFootprintTables(opts harness.Options, coll trace.Collector) (t10, t11 harness.Table, err error) {
	logf(opts.Log, "fig10/11: transaction footprint traces")
	fps, err := trace.CollectAll(trace.Options{Scale: opts.Scale, Seed: opts.Seed, Exec: coll})
	if err != nil {
		return t10, t11, err
	}
	t10 = harness.Table{
		Title:  "Figure 10: 90-percentile transactional-load size vs capacity",
		Note:   "abort ratios for the same pairs appear in Figure 3; '>' marks sizes exceeding the platform's capacity",
		Header: []string{"benchmark", "platform", "P90 load KB", "max KB", "capacity KB", "over?"},
	}
	t11 = harness.Table{
		Title:  "Figure 11: 90-percentile transactional-store size vs capacity",
		Header: []string{"benchmark", "platform", "P90 store KB", "max KB", "capacity KB", "over?"},
	}
	for _, fp := range fps {
		spec := platform.New(fp.Platform)
		mark := func(over bool) string {
			if over {
				return ">"
			}
			return ""
		}
		t10.AddRow(fp.Benchmark, fp.Platform.Short(),
			fmt.Sprintf("%.2f", fp.P90LoadKB), fmt.Sprintf("%.2f", fp.MaxLoadKB),
			fmt.Sprintf("%.0f", float64(spec.LoadCapacity)/1024), mark(fp.ExceedsLoadCap))
		t11.AddRow(fp.Benchmark, fp.Platform.Short(),
			fmt.Sprintf("%.2f", fp.P90StoreKB), fmt.Sprintf("%.2f", fp.MaxStoreKB),
			fmt.Sprintf("%.0f", float64(spec.StoreCapacity)/1024), mark(fp.ExceedsStoreCap))
	}
	return t10, t11, nil
}

func logf(w io.Writer, format string, args ...interface{}) {
	if w != nil {
		if !strings.HasSuffix(format, "\n") {
			format += "\n"
		}
		fmt.Fprintf(w, format, args...)
	}
}
