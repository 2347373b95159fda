package harness

import (
	"strconv"

	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
	"htmcmp/internal/stats"
)

func itoa(n uint64) string { return strconv.FormatUint(n, 10) }

// AdaptiveBenches are the benchmarks of the adaptive-runtime comparison: the
// capacity-bound programs where the controller's early STM demotion should
// pay off (labyrinth, yada), plus a conflict-bound and a mostly-clean one as
// regressions guards.
var AdaptiveBenches = []string{"labyrinth", "yada", "intruder", "vacation-low"}

// AdaptiveComparison measures the online mode controller against the static
// retry policies: for each (benchmark, platform) point at four threads it
// reports the speed-up under the platform default policy, under the best
// static policy found by the retry-count search, and under the adaptive
// controller, together with the adaptive run's commit-mode mix. The paper
// tunes retry counts offline per test case (Section 5); the controller is the
// online answer to the same problem, so the interesting column is
// "adaptive vs best-static", with "default" as the untuned baseline.
func AdaptiveComparison(opts Options) (Table, error) {
	opts = opts.withDefaults()
	t := Table{
		Title: "Adaptive runtime: online controller vs static retry policies, 4 threads",
		Note: "speed-up over sequential; mode mix is the adaptive run's commit split " +
			"htm/stm/lock in %; switches counts steady-mode transitions",
		Header: []string{"benchmark", "platform", "default", "best-static", "adaptive",
			"adapt/static", "htm%", "stm%", "lock%", "switches"},
	}
	var defs, tuned, adap []float64
	for _, bench := range AdaptiveBenches {
		for _, k := range platform.Kinds() {
			base := opts.Point(k, bench, 4, stamp.Modified)
			def, err := opts.Exec.Measure(base, false)
			if err != nil {
				return t, err
			}
			best, err := opts.Exec.Measure(base, true)
			if err != nil {
				return t, err
			}
			aSpec := base
			aSpec.Adaptive = true
			ad, err := opts.Exec.Measure(aSpec, false)
			if err != nil {
				return t, err
			}
			opts.logf("  %-14s %-12s default %.2f best-static %.2f adaptive %.2f",
				bench, k, def.Speedup, best.Speedup, ad.Speedup)
			ratio := 0.0
			if best.Speedup > 0 {
				ratio = ad.Speedup / best.Speedup
			}
			h, s, l := commitMix(ad)
			t.AddRow(bench, k.Short(), f2(def.Speedup), f2(best.Speedup), f2(ad.Speedup),
				f2(ratio), f1(h), f1(s), f1(l), itoa(ad.TM.ModeSwitches))
			defs = append(defs, def.Speedup)
			tuned = append(tuned, best.Speedup)
			adap = append(adap, ad.Speedup)
		}
	}
	t.AddRow("geomean", "", f2(stats.GeoMean(defs)), f2(stats.GeoMean(tuned)),
		f2(stats.GeoMean(adap)), "", "", "", "", "")
	return t, nil
}

// commitMix splits an adaptive run's commits into hardware, software and
// lock percentages.
func commitMix(r Result) (htmPct, stmPct, lockPct float64) {
	total := float64(r.TM.HTMCommits + r.TM.STMCommits + r.TM.IrrevocableCommits)
	if total == 0 {
		return 0, 0, 0
	}
	return 100 * float64(r.TM.HTMCommits) / total,
		100 * float64(r.TM.STMCommits) / total,
		100 * float64(r.TM.IrrevocableCommits) / total
}
