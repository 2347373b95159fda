package harness

import (
	"fmt"
	"io"

	"htmcmp/internal/htm"
	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
	"htmcmp/internal/stats"
)

// Exec abstracts how measurement cells are executed. Experiments request
// every measured point through it, which lets a sweep scheduler first record
// the flat cell list (a planning pass), then serve the very same requests
// from a concurrently precomputed, cached result set. A *Regions runs each
// point inline.
type Exec interface {
	// Measure runs (or replays) one measured cell. With tune set, the
	// point goes through the Regions.Tune retry-count search instead of a
	// plain Run, and the tuned re-measured Result is returned.
	Measure(spec RunSpec, tune bool) (Result, error)
}

// Options configure an experiment reproduction.
type Options struct {
	// Scale selects the input size. The zero value is ScaleTest; the CLI
	// drivers default their -scale flag to sim explicitly.
	Scale stamp.Scale
	// Repeats per measured point (paper: 4; default 2).
	Repeats int
	// Tune searches retry counts per test case as the paper does; when
	// false, platform defaults are used (much faster).
	Tune bool
	// CostScale scales injected platform overheads (default 1).
	CostScale float64
	// Seed for deterministic workloads.
	Seed uint64
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// Exec, when non-nil, executes measurement cells (sweep scheduling /
	// caching); nil executes them inline, through one Regions per
	// experiment call.
	Exec Exec
}

func (o Options) withDefaults() Options {
	o = o.scalarDefaults()
	if o.Exec == nil {
		o.Exec = NewRegions()
	}
	return o
}

func (o Options) scalarDefaults() Options {
	if o.Repeats <= 0 {
		o.Repeats = 2
	}
	if o.CostScale == 0 {
		o.CostScale = 1
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

func (o Options) logf(format string, args ...interface{}) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Point is the untuned spec every experiment measures for one
// benchmark/platform/threads point; an experiment that varies something else
// sets that one field on it. On Blue Gene/Q it carries the running mode the
// paper tunes per benchmark (Section 5.1): long-running mode pays one L1
// invalidation per transaction but serves transactional loads from the L1,
// which wins for benchmarks with large transactions; short-running mode wins
// for the small-transaction benchmarks. Modified genome there takes the
// paper's tuned CHUNK_STEP_1 of 9 (Section 4).
func (o Options) Point(k platform.Kind, bench string, threads int, variant stamp.Variant) RunSpec {
	o = o.scalarDefaults()
	spec := RunSpec{
		Platform:  k,
		Benchmark: bench,
		Threads:   threads,
		Scale:     o.Scale,
		Variant:   variant,
		Seed:      o.Seed,
		CostScale: o.CostScale,
		Repeats:   o.Repeats,
	}
	if k == platform.BlueGeneQ {
		spec.Mode = bgqDefaultMode(bench)
		if bench == "genome" && variant == stamp.Modified {
			spec.ChunkStep1 = 9
		}
	}
	return spec
}

// measure runs (tuned or default) one benchmark/platform/threads point.
func (o Options) measure(k platform.Kind, bench string, threads int, variant stamp.Variant) (Result, error) {
	spec := o.Point(k, bench, threads, variant)
	res, err := o.Exec.Measure(spec, o.Tune)
	if err != nil {
		return Result{}, err
	}
	if o.Tune {
		o.logf("  %-14s %-12s t=%-2d tuned -> speedup %.2f", bench, k, threads, res.Speedup)
	} else {
		o.logf("  %-14s %-12s t=%-2d speedup %.2f abort %.1f%%", bench, k, threads, res.Speedup, res.AbortRatio)
	}
	return res, nil
}

// bgqDefaultMode returns the untuned-run default running mode for Blue
// Gene/Q, following the Section 5.1 observation that the best mode depends
// on transaction length. The Tune search still explores both.
func bgqDefaultMode(bench string) platform.BGQMode {
	switch bench {
	case "labyrinth", "yada", "bayes":
		return platform.LongRunning
	default:
		return platform.ShortRunning
	}
}

// Table1 renders the HTM implementation comparison of the paper's Table 1
// from the platform models.
func Table1() Table {
	t := Table{
		Title:  "Table 1: HTM implementations",
		Header: []string{"Processor type"},
	}
	specs := platform.All()
	for _, s := range specs {
		t.Header = append(t.Header, s.Kind.String())
	}
	row := func(label string, f func(s *platform.Spec) string) {
		cells := []string{label}
		for _, s := range specs {
			cells = append(cells, f(s))
		}
		t.AddRow(cells...)
	}
	row("Conflict-detection granularity", func(s *platform.Spec) string {
		if s.Kind == platform.BlueGeneQ {
			return "8 - 128 bytes"
		}
		return fmt.Sprintf("%d bytes", s.LineSize)
	})
	row("Transactional-load capacity", func(s *platform.Spec) string {
		if s.Kind == platform.BlueGeneQ {
			return "20 MB (1.25 MB per core)"
		}
		return byteSize(s.LoadCapacity)
	})
	row("Transactional-store capacity", func(s *platform.Spec) string {
		if s.Kind == platform.BlueGeneQ {
			return "20 MB (1.25 MB per core)"
		}
		return byteSize(s.StoreCapacity)
	})
	row("L1 data cache", func(s *platform.Spec) string { return s.L1Desc })
	row("L2 data cache", func(s *platform.Spec) string { return s.L2Desc })
	row("SMT level", func(s *platform.Spec) string {
		if s.SMT <= 1 {
			return "None"
		}
		return fmt.Sprintf("%d", s.SMT)
	})
	row("Kinds of abort reasons", func(s *platform.Spec) string {
		if s.AbortReasonKinds == 0 {
			return "-"
		}
		return fmt.Sprintf("%d", s.AbortReasonKinds)
	})
	row("Cores / clock", func(s *platform.Spec) string {
		return fmt.Sprintf("%d cores, %s", s.Cores, s.Freq)
	})
	return t
}

func byteSize(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%d MB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%d KB", n>>10)
	}
	return fmt.Sprintf("%d B", n)
}

// Fig2And3 reproduces Figures 2 and 3: 4-thread speed-up ratios and
// transaction-abort breakdowns of the modified STAMP benchmarks on all four
// platforms. bayes is measured but excluded from the geometric mean, as in
// the paper.
func Fig2And3(opts Options) (fig2, fig3 Table, err error) {
	opts = opts.withDefaults()
	kinds := platform.Kinds()
	fig2 = Table{
		Title:  "Figure 2: speed-up over sequential, modified STAMP, 4 threads",
		Note:   "error column is the 95% confidence half-width; bayes excluded from geomean",
		Header: []string{"benchmark"},
	}
	for _, k := range kinds {
		fig2.Header = append(fig2.Header, k.String(), "±")
	}
	fig3 = Table{
		Title:  "Figure 3: transaction-abort ratios (%), modified STAMP, 4 threads",
		Note:   "categories: capacity / data-conflict / other / lock-conflict (BG/Q reports no breakdown)",
		Header: []string{"benchmark", "platform", "total%", "capacity", "conflict", "other", "lock"},
	}
	speedups := map[platform.Kind][]float64{}
	for _, bench := range stamp.Names() {
		row := []string{bench}
		for _, k := range kinds {
			res, err := opts.measure(k, bench, 4, stamp.Modified)
			if err != nil {
				return fig2, fig3, err
			}
			row = append(row, f2(res.Speedup), f2(res.SpeedupCI))
			if bench != "bayes" {
				speedups[k] = append(speedups[k], res.Speedup)
			}
			br := res.Breakdown
			fig3.AddRow(bench, k.Short(), f1(res.AbortRatio),
				f1(br[htm.CategoryCapacity]), f1(br[htm.CategoryDataConflict]),
				f1(br[htm.CategoryOther]), f1(br[htm.CategoryLockConflict]))
		}
		fig2.AddRow(row...)
	}
	geo := []string{"geomean"}
	for _, k := range kinds {
		geo = append(geo, f2(stats.GeoMean(speedups[k])), "")
	}
	fig2.AddRow(geo...)
	return fig2, fig3, nil
}

// Fig4 reproduces Figure 4: original vs modified STAMP speed-ups with four
// threads. Only the benchmarks the paper changed differ between variants;
// the geometric mean covers all programs, with the unchanged ones measured
// once and reused, as their two variants are identical.
func Fig4(opts Options) (Table, error) {
	opts = opts.withDefaults()
	kinds := platform.Kinds()
	t := Table{
		Title:  "Figure 4: original vs modified STAMP speed-up, 4 threads",
		Header: []string{"benchmark", "platform", "original", "modified", "gain"},
	}
	isModified := map[string]bool{}
	for _, n := range stamp.ModifiedNames() {
		isModified[n] = true
	}
	orig := map[platform.Kind][]float64{}
	mod := map[platform.Kind][]float64{}
	for _, bench := range stamp.Names() {
		for _, k := range kinds {
			resMod, err := opts.measure(k, bench, 4, stamp.Modified)
			if err != nil {
				return t, err
			}
			resOrig := resMod
			if isModified[bench] {
				resOrig, err = opts.measure(k, bench, 4, stamp.Original)
				if err != nil {
					return t, err
				}
			}
			if bench != "bayes" {
				orig[k] = append(orig[k], resOrig.Speedup)
				mod[k] = append(mod[k], resMod.Speedup)
			}
			if isModified[bench] {
				gain := 0.0
				if resOrig.Speedup > 0 {
					gain = resMod.Speedup / resOrig.Speedup
				}
				t.AddRow(bench, k.Short(), f2(resOrig.Speedup), f2(resMod.Speedup), f2(gain))
			}
		}
	}
	for _, k := range kinds {
		t.AddRow("geomean", k.Short(), f2(stats.GeoMean(orig[k])), f2(stats.GeoMean(mod[k])), "")
	}
	return t, nil
}

// Fig5Threads is the thread sweep of Figure 5.
var Fig5Threads = []int{1, 2, 4, 8, 16}

// Fig5 reproduces Figure 5: scalability of the modified STAMP benchmarks
// with 1–16 threads. Points beyond a platform's hardware-thread count are
// skipped (Intel Core stops at 8), and points beyond its physical core count
// correspond to the paper's dotted SMT lines.
func Fig5(opts Options) (Table, error) {
	opts = opts.withDefaults()
	t := Table{
		Title:  "Figure 5: speed-up vs thread count, modified STAMP",
		Note:   "* marks SMT points (threads > physical cores, dotted in the paper)",
		Header: []string{"benchmark", "platform", "t=1", "t=2", "t=4", "t=8", "t=16"},
	}
	for _, bench := range stamp.Names() {
		for _, k := range platform.Kinds() {
			spec := platform.New(k)
			row := []string{bench, k.Short()}
			for _, n := range Fig5Threads {
				if n > spec.MaxThreads() {
					row = append(row, "-")
					continue
				}
				res, err := opts.measure(k, bench, n, stamp.Modified)
				if err != nil {
					return t, err
				}
				cell := f2(res.Speedup)
				if n > spec.Cores {
					cell += "*"
				}
				row = append(row, cell)
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// Fig7 reproduces Figure 7: RTM vs HLE speed-ups on Intel Core with four
// threads. RTM retry counts are tuned (when opts.Tune); HLE has nothing to
// tune — that asymmetry is the figure's point.
func Fig7(opts Options) (Table, error) {
	opts = opts.withDefaults()
	t := Table{
		Title:  "Figure 7: RTM vs HLE speed-up on Intel Core, 4 threads",
		Header: []string{"benchmark", "RTM", "HLE", "HLE/RTM"},
	}
	var rtms, hles []float64
	for _, bench := range stamp.Names() {
		rtm, err := opts.measure(platform.IntelCore, bench, 4, stamp.Modified)
		if err != nil {
			return t, err
		}
		hleSpec := opts.Point(platform.IntelCore, bench, 4, stamp.Modified)
		hleSpec.UseHLE = true
		hle, err := opts.Exec.Measure(hleSpec, false)
		if err != nil {
			return t, err
		}
		opts.logf("  %-14s HLE speedup %.2f", bench, hle.Speedup)
		ratio := 0.0
		if rtm.Speedup > 0 {
			ratio = hle.Speedup / rtm.Speedup
		}
		t.AddRow(bench, f2(rtm.Speedup), f2(hle.Speedup), f2(ratio))
		if bench != "bayes" {
			rtms = append(rtms, rtm.Speedup)
			hles = append(hles, hle.Speedup)
		}
	}
	gr, gh := stats.GeoMean(rtms), stats.GeoMean(hles)
	t.AddRow("geomean", f2(gr), f2(gh), f2(gh/gr))
	return t, nil
}

// PrefetchAblation reproduces the Section 5.1 experiment: kmeans on Intel
// Core with the hardware prefetcher enabled vs disabled (the paper measured
// abort ratios dropping from 16%/24% to 10%/10% and speed-ups improving from
// 3.5/3.7 to 3.9/4.0).
func PrefetchAblation(opts Options) (Table, error) {
	opts = opts.withDefaults()
	t := Table{
		Title:  "Section 5.1: Intel hardware-prefetch ablation (kmeans, 4 threads)",
		Header: []string{"benchmark", "prefetch", "speedup", "abort%"},
	}
	for _, bench := range []string{"kmeans-high", "kmeans-low"} {
		for _, disable := range []bool{false, true} {
			spec := opts.Point(platform.IntelCore, bench, 4, stamp.Modified)
			spec.DisablePrefetch = disable
			res, err := opts.Exec.Measure(spec, false)
			if err != nil {
				return t, err
			}
			state := "on"
			if disable {
				state = "off"
			}
			opts.logf("  %-12s prefetch %-3s speedup %.2f abort %.1f%%", bench, state, res.Speedup, res.AbortRatio)
			t.AddRow(bench, state, f2(res.Speedup), f1(res.AbortRatio))
		}
	}
	return t, nil
}
