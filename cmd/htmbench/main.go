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
// or one Figure 6 / Figure 9 point each; only table1 has none), which a
// worker pool executes concurrently (-jobs) on top of a content-addressed
// on-disk result cache (-cache-dir), so a rerun or an interrupted sweep
// resumes by skipping completed cells. Tables are then rendered from the
// precomputed results, byte-identical to a serial run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
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
	metricsPath := flag.String("metrics", "", "write the sweep's counters (sweep_*, htm_tx_*, tm_mode_switches_total) as JSON to this file")
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
	if *seed == 0 {
		// Every layer reads a zero seed as unset and runs seed 42.
		usageError(fmt.Errorf("-seed must be 1 or more: seed 0 would run seed 42"))
	}
	if *chaosReport != "" && !*chaosOn {
		usageError(fmt.Errorf("-chaos-report needs -chaos: without it nothing is injected to report"))
	}

	// Every output is created before any work, so a path that cannot be
	// written fails here in one line; from here on every exit goes through
	// exit, which writes them all.
	outs, err := createOutputs(*cpuProfile, *memProfile, *metricsPath, *chaosReport, *traceDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "htmbench: %v\n", err)
		os.Exit(1)
	}

	opts := harness.Options{
		Scale:   scale,
		Repeats: *repeats,
		Tune:    *tune,
		Seed:    *seed,
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

	var sum sweep.Summary
	exit := func(code int) {
		if !outs.finish(sched, faults, sum) && code == 0 {
			code = 1
		}
		os.Exit(code)
	}

	// Each phase carries a pprof label, so `go tool pprof -tags` splits a
	// -cpuprofile by phase; the cells the pool computes carry their own
	// labels (sweep.Scheduler).
	var plan *sweep.Plan
	phase("plan", func() { plan, err = planCells(names, opts, *csv) })
	if err != nil {
		fmt.Fprintf(os.Stderr, "htmbench: %v\n", err)
		exit(1)
	}

	// Verification pass (optional): every distinct measured configuration
	// is re-run under the differential runner modes before any time is
	// spent on the sweep proper.
	if *verify {
		if n, err := verifyCells(plan.Cells(), os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "htmbench: %v\n", err)
			exit(1)
		} else {
			fmt.Fprintf(os.Stderr, "htmbench: verified %d cells\n", n)
		}
	}

	// Execution pass: the worker pool computes (or loads) every cell.
	phase("prewarm", func() { sum = sched.Prewarm(plan.Cells()) })

	if *verbose {
		opts.Log = os.Stderr
	}
	phase("render", func() { err = renderTables(names, opts, sched, os.Stdout, *csv) })
	if err != nil {
		fmt.Fprintf(os.Stderr, "htmbench: %v\n", err)
	}
	fmt.Fprintf(os.Stderr, "sweep summary: %s\n", sum)
	if err != nil {
		exit(1)
	}
	exit(0)
}

// phase runs f under the pprof label phase=name.
func phase(name string, f func()) {
	pprof.Do(context.Background(), pprof.Labels("phase", name), func(context.Context) { f() })
}

// outputs are the files a run writes besides its tables, each created
// before any work so that a path that cannot be written costs nothing.
// finish writes them; a nil field is an output not asked for.
type outputs struct {
	cpu, heap, metrics, chaos *os.File
}

// createOutputs opens every output file and creates the trace directory,
// then starts the CPU profile. The first that fails is the error, and a
// failure leaves nothing behind: files this call created are removed again,
// and a file that already existed is truncated only once every output has
// opened.
func createOutputs(cpuPath, heapPath, metricsPath, chaosPath, traceDir string) (o *outputs, err error) {
	o = &outputs{}
	var opened []*os.File
	var made []string
	defer func() {
		if err != nil {
			for _, f := range opened {
				f.Close()
			}
			for _, path := range made {
				os.Remove(path)
			}
		}
	}()
	for _, f := range []struct {
		flag, path string
		file       **os.File
	}{
		{"cpuprofile", cpuPath, &o.cpu}, {"memprofile", heapPath, &o.heap},
		{"metrics", metricsPath, &o.metrics}, {"chaos-report", chaosPath, &o.chaos},
	} {
		if f.path == "" {
			continue
		}
		file, created, err := openOutput(f.path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.flag, err)
		}
		opened = append(opened, file)
		if created {
			made = append(made, f.path)
		}
		*f.file = file
	}
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, fmt.Errorf("trace-dir: %w", err)
		}
	}
	for _, f := range opened {
		if err := f.Truncate(0); err != nil {
			return nil, err
		}
	}
	if o.cpu != nil {
		if err := pprof.StartCPUProfile(o.cpu); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return o, nil
}

// openOutput opens path for writing without truncating it, creating it if
// it does not exist; created reports whether it did.
func openOutput(path string) (f *os.File, created bool, err error) {
	f, err = os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if errors.Is(err, fs.ErrExist) {
		f, err = os.OpenFile(path, os.O_WRONLY, 0)
		return f, false, err
	}
	return f, err == nil, err
}

// finish stops the CPU profile and writes the heap profile, the metrics and
// the chaos report, whatever state the run ended in, so a failed sweep is
// as observable as a good one. It reports whether every write succeeded.
func (o *outputs) finish(sched *sweep.Scheduler, faults *chaos.Injector, sum sweep.Summary) bool {
	ok := true
	write := func(flag string, f *os.File, w func(io.Writer) error) {
		if f == nil {
			return
		}
		err := w(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "htmbench: %s: %v\n", flag, err)
			ok = false
		}
	}
	write("cpuprofile", o.cpu, func(io.Writer) error { pprof.StopCPUProfile(); return nil })
	write("memprofile", o.heap, func(w io.Writer) error {
		runtime.GC() // flush transient garbage so the profile shows retained memory
		return pprof.WriteHeapProfile(w)
	})
	write("metrics", o.metrics, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(sched.Metrics())
	})
	write("chaos-report", o.chaos, func(w io.Writer) error { return writeChaosReport(w, faults, sum) })
	return ok
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

// writeChaosReport writes the injected-fault counters and the sweep's failed
// and evicted cells to w as JSON. CI uploads it as an artifact so a
// chaos-smoke run leaves an inspectable record of what was injected.
func writeChaosReport(w io.Writer, faults *chaos.Injector, sum sweep.Summary) error {
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
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
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
