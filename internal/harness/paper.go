package harness

import (
	"fmt"
	"strings"

	"htmcmp/internal/features"
	"htmcmp/internal/platform"
	"htmcmp/internal/trace"
)

// Cells answers every simulation an experiment requests: a sweep.Plan
// records them, a sweep.Scheduler serves them precomputed. A nil Cells runs
// each one inline.
type Cells interface {
	Exec
	trace.Collector
	features.Exec
}

// Experiment is one name htmbench -exp takes: a table or figure of the
// paper's evaluation, its Section 5.1 ablation, or an extension.
type Experiment struct {
	Name  string
	Paper string // the paper content it reproduces, as DESIGN.md §11 lists it
	InAll bool   // -exp all runs it; fig2+3 stands in for fig2 and fig3
	// Tables renders it, requesting every simulation from cells.
	Tables func(opts Options, cells Cells) ([]Table, error)
}

// Experiments is the paper's evaluation in -exp order, the one list of
// experiment names: htmbench plans and renders from it and DESIGN.md §11
// indexes it.
var Experiments = []Experiment{
	{"table1", "Table 1: HTM implementation parameters", true,
		func(Options, Cells) ([]Table, error) { return []Table{Table1()}, nil }},
	{"fig2", "Fig. 2: 4-thread speedups, modified STAMP, 4 platforms + geomean", false, nth(0, fig2And3)},
	{"fig3", "Fig. 3: abort-ratio breakdown (capacity/data/other/lock)", false, nth(1, fig2And3)},
	{"fig2+3", "Figs. 2 and 3 from one pass over their shared cells", true, fig2And3},
	{"fig4", "Fig. 4: original vs modified STAMP speedups", true, one(Fig4)},
	{"fig5", "Fig. 5: scalability 1–16 threads per benchmark", true, one(Fig5)},
	{"fig6", "Fig. 6: zEC12 constrained vs normal tx on ConcurrentLinkedQueue", true, fig6},
	{"fig7", "Fig. 7: Intel RTM vs HLE on STAMP", true, one(Fig7)},
	{"fig9", "Fig. 9: POWER8 TLS ± suspend/resume", true, fig9},
	{"fig10", "Fig. 10: 90-pct transactional-load size vs abort ratio", true, nth(0, fig10And11)},
	{"fig11", "Fig. 11: 90-pct transactional-store size vs abort ratio", true, nth(1, fig10And11)},
	{"prefetch", "§ 5.1 ablation: Intel hardware-prefetch on/off", true, one(PrefetchAblation)},
	{"stm", "ext. STM: HTM-vs-STM overhead (the premise of Sections 1/8)", true, one(STMComparison)},
	{"capacity", "ext. capacity: Section 7 recommendations (larger store capacity; SMT interaction)", true, capacity},
	{"adaptive", "ext. adaptive: online mode controller vs the paper's offline per-test-case tuning", true, one(AdaptiveComparison)},
}

// ExperimentNames lists what -exp accepts: every experiment, then "all".
func ExperimentNames() []string {
	names := make([]string, 0, len(Experiments)+1)
	for _, e := range Experiments {
		names = append(names, e.Name)
	}
	return append(names, "all")
}

// SelectExperiments returns what -exp name runs, in table order: the one
// experiment so named, or for "all" every InAll one.
func SelectExperiments(name string) ([]Experiment, error) {
	var out []Experiment
	for _, e := range Experiments {
		if name == e.Name || name == "all" && e.InAll {
			out = append(out, e)
		}
	}
	if out == nil {
		return nil, fmt.Errorf("unknown experiment %q (one of: %s)", name, strings.Join(ExperimentNames(), ", "))
	}
	return out, nil
}

// one makes a single-table renderer an Experiment's Tables.
func one(render func(Options) (Table, error)) func(Options, Cells) ([]Table, error) {
	return func(opts Options, cells Cells) ([]Table, error) {
		opts.Exec = cells
		t, err := render(opts)
		return []Table{t}, err
	}
}

// nth keeps the i-th table of a pass that renders several.
func nth(i int, tables func(Options, Cells) ([]Table, error)) func(Options, Cells) ([]Table, error) {
	return func(opts Options, cells Cells) ([]Table, error) {
		ts, err := tables(opts, cells)
		if err != nil {
			return nil, err
		}
		return ts[i : i+1], nil
	}
}

func fig2And3(opts Options, cells Cells) ([]Table, error) {
	opts.Exec = cells
	f2, f3, err := Fig2And3(opts)
	return []Table{f2, f3}, err
}

// capacity sweeps the TMCAM for the three capacity-bound benchmarks.
func capacity(opts Options, cells Cells) ([]Table, error) {
	opts.Exec = cells
	var out []Table
	for _, bench := range []string{"intruder", "vacation-high", "yada"} {
		t, err := CapacitySweep(opts, bench)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// fig6 renders the Figure 6 CLQ experiment; cells answers its engine runs.
func fig6(opts Options, cells Cells) ([]Table, error) {
	opts.logf("fig6: zEC12 constrained transactions on ConcurrentLinkedQueue")
	results, err := features.RunCLQ(features.CLQOptions{Seed: opts.Seed, Exec: cells})
	if err != nil {
		return nil, err
	}
	t := Table{
		Title:  "Figure 6: relative execution time vs lock-free ConcurrentLinkedQueue (zEC12)",
		Note:   "lower is better; baseline is the lock-free CAS implementation at each thread count",
		Header: []string{"threads", "LockFree", "NoRetryTM", "OptRetryTM", "ConstrainedTM"},
	}
	// RunCLQ reports each thread count's four modes in header order.
	for i := 0; i+4 <= len(results); i += 4 {
		row := []string{f0(results[i].Threads)}
		for _, r := range results[i : i+4] {
			row = append(row, f2(r.Relative))
		}
		t.AddRow(row...)
	}
	return []Table{t}, nil
}

// fig9 renders the Figure 9 TLS experiment; cells answers its engine runs.
func fig9(opts Options, cells Cells) ([]Table, error) {
	opts.logf("fig9: POWER8 TLS with and without suspend/resume")
	results, err := features.RunTLS(features.TLSOptions{Seed: opts.Seed, Exec: cells})
	if err != nil {
		return nil, err
	}
	t := Table{
		Title:  "Figure 9: TLS speed-up over sequential on POWER8",
		Header: []string{"kernel", "suspend/resume", "threads", "speedup", "abort%"},
	}
	sr := map[bool]string{false: "without", true: "with"}
	for _, r := range results {
		t.AddRow(r.Kernel.String(), sr[r.SuspendResume], f0(r.Threads), f2(r.Speedup), f1(r.AbortRatio))
	}
	return []Table{t}, nil
}

// fig10And11 renders Figures 10 and 11; cells answers the footprint
// collections.
func fig10And11(opts Options, cells Cells) ([]Table, error) {
	opts.logf("fig10/11: transaction footprint traces")
	fps, err := trace.CollectAll(trace.Options{Scale: opts.Scale, Seed: opts.Seed, Exec: cells})
	if err != nil {
		return nil, err
	}
	t10 := Table{
		Title:  "Figure 10: 90-percentile transactional-load size vs capacity",
		Note:   "abort ratios for the same pairs appear in Figure 3; '>' marks sizes exceeding the platform's capacity",
		Header: []string{"benchmark", "platform", "P90 load KB", "max KB", "capacity KB", "over?"},
	}
	t11 := Table{
		Title:  "Figure 11: 90-percentile transactional-store size vs capacity",
		Header: []string{"benchmark", "platform", "P90 store KB", "max KB", "capacity KB", "over?"},
	}
	mark := map[bool]string{true: ">"}
	for _, fp := range fps {
		spec := platform.New(fp.Platform)
		t10.AddRow(fp.Benchmark, fp.Platform.Short(), f2(fp.P90LoadKB), f2(fp.MaxLoadKB),
			fmt.Sprintf("%.0f", float64(spec.LoadCapacity)/1024), mark[fp.ExceedsLoadCap])
		t11.AddRow(fp.Benchmark, fp.Platform.Short(), f2(fp.P90StoreKB), f2(fp.MaxStoreKB),
			fmt.Sprintf("%.0f", float64(spec.StoreCapacity)/1024), mark[fp.ExceedsStoreCap])
	}
	return []Table{t10, t11}, nil
}
