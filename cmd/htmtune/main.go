// Command htmtune auto-searches the static retry-policy space for one
// (platform, benchmark) pair, the way the paper optimizes "the parameter
// values for each test case" (Section 5.1) — but as a parallel, cached,
// iterative search instead of a serial grid walk. It runs harness.Search,
// the search behind htmbench -tune, from the experiments' own untuned point
// (harness.Options.Point): a coarse lattice, with harness.TuneGrid's trials
// appended, is measured concurrently through the sweep worker pool (banking
// every cell in the on-disk cache, so reruns and refinements resume for
// free), then the best point is refined for -rounds rounds by measuring its
// halved/doubled neighbours along each policy axis.
//
// The final report compares the tuned winner against the platform default
// policy and the adaptive online controller — the same default and adaptive
// cells as htmbench -exp adaptive, so they are cache hits after that sweep —
// and directly answers "adaptive vs best-static vs default".
//
// Usage:
//
//	htmtune -platform zec12 -bench vacation-low [-threads 4] [-scale sim]
//	        [-rounds 2] [-repeats 2] [-jobs N] [-cache-dir .htmcache]
//	        [-no-cache] [-resume=false]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"

	"htmcmp/internal/cache"
	"htmcmp/internal/harness"
	"htmcmp/internal/harness/sweep"
	"htmcmp/internal/htm"
	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
	"htmcmp/internal/tm"
)

// label names a trial by what the search varies.
func label(s harness.RunSpec) string {
	p := s.Policy
	var l string
	if s.Platform == platform.BlueGeneQ {
		l = fmt.Sprintf("%v retries=%d", s.Mode, p.TransientRetry)
	} else {
		l = fmt.Sprintf("lock=%d persistent=%d transient=%d", p.LockRetry, p.PersistentRetry, p.TransientRetry)
	}
	if s.ChunkStep1 > 0 {
		l += fmt.Sprintf(" chunk=%d", s.ChunkStep1)
	}
	return l
}

// searchBase is the point htmtune searches from and compares against: the
// untuned spec every experiment measures (harness.Options.Point).
func searchBase(kind platform.Kind, bench string, threads int, scale stamp.Scale, seed uint64, repeats int) harness.RunSpec {
	return harness.Options{Scale: scale, Seed: seed, Repeats: repeats}.Point(kind, bench, threads, stamp.Modified)
}

// lattice returns the coarse starting trials around base: single-repeat
// specs of base with their policy pinned. Blue Gene/Q has one system retry
// counter crossed with the running mode (Section 5.1); the other platforms
// span the three retry counters. genome trials are crossed with its
// CHUNK_STEP_1 values (Section 4). harness.TuneGrid's trials are appended,
// so round 0 covers every point htmbench -tune measures (the search skips
// the ones the lattice already has).
func lattice(base harness.RunSpec) []harness.RunSpec {
	trial := base
	trial.Repeats = 1
	var out []harness.RunSpec
	add := func(pol tm.Policy, mode platform.BGQMode) {
		s := trial
		s.Policy, s.Mode = &pol, mode
		out = append(out, s)
	}
	if base.Platform == platform.BlueGeneQ {
		for _, mode := range []platform.BGQMode{platform.ShortRunning, platform.LongRunning} {
			for _, retries := range []int{2, 4, 8, 16, 32} {
				pol := tm.DefaultPolicy(base.Platform)
				pol.TransientRetry = retries
				pol.LazySubscription = mode == platform.LongRunning
				add(pol, mode)
			}
		}
	} else {
		for _, lock := range []int{2, 8} {
			for _, persist := range []int{1, 4} {
				for _, transient := range []int{8, 32} {
					add(tm.Policy{LockRetry: lock, PersistentRetry: persist, TransientRetry: transient}, base.Mode)
				}
			}
		}
	}
	if base.Benchmark == "genome" {
		var expanded []harness.RunSpec
		for _, s := range out {
			for _, chunk := range []int{2, 9} {
				s.ChunkStep1 = chunk
				expanded = append(expanded, s)
			}
		}
		out = expanded
	}
	return append(out, harness.TuneGrid(base)...)
}

// schedulerEval adapts a sweep scheduler into harness.Search's eval: the
// batch is prewarmed concurrently (deduplicated, cached), then each result
// is read back from the memo.
func schedulerEval(sched *sweep.Scheduler) func([]harness.RunSpec) ([]harness.Result, error) {
	return func(specs []harness.RunSpec) ([]harness.Result, error) {
		cells := make([]sweep.Cell, len(specs))
		for i, s := range specs {
			cells[i] = sweep.Cell{Kind: sweep.Measure, Spec: s}
		}
		sched.Prewarm(cells)
		out := make([]harness.Result, len(specs))
		for i, s := range specs {
			r, err := sched.Measure(s, false)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}
}

func main() {
	platName := flag.String("platform", "zec12", "platform: bgq, zec12, intel, power8")
	bench := flag.String("bench", "vacation-low", "STAMP benchmark name")
	threads := flag.Int("threads", 4, "thread count")
	scaleName := flag.String("scale", "sim", "workload scale: test, sim, full")
	seed := flag.Uint64("seed", 42, "workload seed")
	repeats := flag.Int("repeats", 2, "repeats for the final comparison runs")
	rounds := flag.Int("rounds", 2, "neighbour-refinement rounds after the coarse pass")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "concurrent search workers")
	cacheDir := flag.String("cache-dir", ".htmcache", "on-disk result cache directory")
	noCache := flag.Bool("no-cache", false, "disable the on-disk result cache entirely")
	resume := flag.Bool("resume", true, "reuse cached results from earlier runs")
	flag.Parse()

	kind, scale, err := parseTarget(*platName, *scaleName, *bench)
	if err == nil {
		err = checkCounts(*repeats, *jobs, *threads, *rounds)
	}
	if err == nil && *seed == 0 {
		// Every layer reads a zero seed as unset and runs seed 42.
		err = fmt.Errorf("-seed must be 1 or more: seed 0 would run seed 42")
	}
	if err != nil {
		exit(2, err)
	}

	var store *cache.Store
	if !*noCache {
		store, err = cache.Open(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "htmtune: %v (continuing without cache)\n", err)
		}
	}
	eval := schedulerEval(sweep.New(sweep.Config{
		Jobs:   *jobs,
		Cache:  store,
		Resume: *resume,
	}))

	base := searchBase(kind, *bench, *threads, scale, *seed, *repeats)

	fmt.Printf("tuning %s on %s with %d threads (%s scale, %d refinement rounds)\n\n",
		*bench, kind, *threads, scale, *rounds)
	best, _, err := harness.Search(lattice(base), *rounds, eval, func(round int, s harness.RunSpec, r harness.Result, best bool) {
		marker := " "
		if best {
			marker = "*"
		}
		fmt.Printf("%s r%d %-44s speedup %.2f  abort %.1f%%  serial %.1f%%\n",
			marker, round, label(s), r.Speedup, r.AbortRatio, r.SerializationRatio)
	})
	if err != nil {
		exit(1, err)
	}

	// Final comparison at the requested repeat count: platform default vs
	// the tuned winner vs the adaptive online controller.
	results, err := eval(comparisonSpecs(base, best))
	if err != nil {
		exit(1, err)
	}
	def, win, ada := results[0], results[1], results[2]
	fmt.Printf("\nbest static: %s\n\n", label(best))
	fmt.Printf("%-12s speedup %.2f  abort %.1f%%  serial %.1f%%\n", "default", def.Speedup, def.AbortRatio, def.SerializationRatio)
	fmt.Printf("%-12s speedup %.2f  abort %.1f%%  serial %.1f%%\n", "best-static", win.Speedup, win.AbortRatio, win.SerializationRatio)
	fmt.Printf("%-12s speedup %.2f  abort %.1f%%  switches %d\n", "adaptive", ada.Speedup, ada.AbortRatio, ada.TM.ModeSwitches)
	if win.Speedup > 0 {
		fmt.Printf("\nadaptive/best-static = %.2f, best-static/default = %.2f\n",
			ada.Speedup/win.Speedup, safeRatio(win.Speedup, def.Speedup))
	}
}

func exit(code int, err error) {
	fmt.Fprintln(os.Stderr, "htmtune:", err)
	os.Exit(code)
}

// parseTarget parses -platform, -scale and -bench; an error starts with the
// flag's name.
func parseTarget(plat, scale, bench string) (platform.Kind, stamp.Scale, error) {
	kind, err := platform.ParseKind(plat)
	if err != nil {
		return 0, 0, fmt.Errorf("-platform: %w", err)
	}
	sc, err := stamp.ParseScale(scale)
	if err != nil {
		return 0, 0, fmt.Errorf("-scale: %w", err)
	}
	if !slices.Contains(stamp.Names(), bench) {
		return 0, 0, fmt.Errorf("-bench: unknown benchmark %q (%s)", bench, strings.Join(stamp.Names(), ", "))
	}
	return kind, sc, nil
}

// checkCounts rejects a -repeats, -jobs or -threads below 1, for which the
// harness and the sweep would silently substitute their defaults, a -threads
// the engine cannot provision, and a negative -rounds, which would run as 0.
func checkCounts(repeats, jobs, threads, rounds int) error {
	if repeats < 1 {
		return fmt.Errorf("-repeats must be 1 or more, got %d", repeats)
	}
	if jobs < 1 {
		return fmt.Errorf("-jobs must be 1 or more, got %d", jobs)
	}
	if threads < 1 || threads > htm.MaxThreads {
		return fmt.Errorf("-threads must be in [1, %d], got %d", htm.MaxThreads, threads)
	}
	if rounds < 0 {
		return fmt.Errorf("-rounds must be 0 or more, got %d", rounds)
	}
	return nil
}

// comparisonSpecs builds the three full-repeat comparison runs: default
// policy, tuned winner, adaptive controller. base is the experiments' own
// untuned point (Blue Gene/Q's default running mode included), so the
// default and adaptive runs are the cells htmbench -exp adaptive measures.
func comparisonSpecs(base, best harness.RunSpec) []harness.RunSpec {
	win := best
	win.Repeats = base.Repeats
	ad := base
	ad.Adaptive = true
	return []harness.RunSpec{base, win, ad}
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
