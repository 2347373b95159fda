package harness

import (
	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
	"htmcmp/internal/stats"
)

// STMComparison is an extension experiment (not a paper figure): it
// quantifies the premise of the paper's introduction — "HTM … has lower
// overhead than software transactional memory" — by running the modified
// STAMP benchmarks under the NOrec STM baseline and under the zEC12 HTM
// model, at one and four threads. The expected shape: STM's single-thread
// overhead is far worse than HTM's (per-access instrumentation), while STM
// never aborts on capacity, so the capacity-bound benchmarks (yada,
// labyrinth) close part of the gap at four threads.
func STMComparison(opts Options) (Table, error) {
	opts = opts.withDefaults()
	t := Table{
		Title:  "Extension: HTM (zEC12 model) vs NOrec STM, modified STAMP",
		Note:   "speed-up over the same sequential baseline; STM pays instrumentation but has no capacity limits",
		Header: []string{"benchmark", "HTM t=1", "STM t=1", "HTM t=4", "STM t=4", "STM abort% t=4"},
	}
	var htm1s, stm1s, htm4s, stm4s []float64
	for _, bench := range stamp.Names() {
		row := []string{bench}
		var cells [4]Result
		for i, cfg := range []struct {
			threads int
			useSTM  bool
		}{{1, false}, {1, true}, {4, false}, {4, true}} {
			spec := opts.Point(platform.ZEC12, bench, cfg.threads, stamp.Modified)
			spec.UseSTM = cfg.useSTM
			res, err := opts.Exec.Measure(spec, false)
			if err != nil {
				return t, err
			}
			cells[i] = res
		}
		opts.logf("  %-14s HTM %.2f/%.2f STM %.2f/%.2f", bench,
			cells[0].Speedup, cells[2].Speedup, cells[1].Speedup, cells[3].Speedup)
		row = append(row, f2(cells[0].Speedup), f2(cells[1].Speedup),
			f2(cells[2].Speedup), f2(cells[3].Speedup), f1(cells[3].AbortRatio))
		t.AddRow(row...)
		if bench != "bayes" {
			htm1s = append(htm1s, cells[0].Speedup)
			stm1s = append(stm1s, cells[1].Speedup)
			htm4s = append(htm4s, cells[2].Speedup)
			stm4s = append(stm4s, cells[3].Speedup)
		}
	}
	t.AddRow("geomean", f2(stats.GeoMean(htm1s)), f2(stats.GeoMean(stm1s)),
		f2(stats.GeoMean(htm4s)), f2(stats.GeoMean(stm4s)), "")
	return t, nil
}

// CapacitySweep is a second extension experiment, for the paper's Section 7
// recommendations "Larger Transactional-Store Capacity" and "Better
// Interaction with SMT": it re-runs a benchmark with 12 threads on POWER8's
// 6 cores — so SMT siblings halve each transaction's share of the TMCAM —
// while the TMCAM is scaled from the real 64 entries up to 1024, showing
// where the workload stops being capacity-bound.
func CapacitySweep(opts Options, bench string) (Table, error) {
	opts = opts.withDefaults()
	t := Table{
		Title:  "Extension (Section 7): POWER8 TMCAM capacity sweep, " + bench + ", 12 threads (SMT2 per core)",
		Note:   "real POWER8 has 64 entries (8 KB), shared among SMT siblings in transactions",
		Header: []string{"TMCAM entries", "capacity", "speedup t=12", "abort%", "capacity-abort%", "serial%"},
	}
	for _, entries := range []int{64, 128, 256, 512, 1024} {
		spec := opts.Point(platform.POWER8, bench, 12, stamp.Modified)
		spec.TMCAMEntries = entries
		res, err := opts.Exec.Measure(spec, false)
		if err != nil {
			return t, err
		}
		opts.logf("  TMCAM=%d speedup %.2f abort %.1f%%", entries, res.Speedup, res.AbortRatio)
		t.AddRow(f0(entries), byteSize(entries*128),
			f2(res.Speedup), f1(res.AbortRatio),
			f1(res.Breakdown[0]), f1(res.SerializationRatio))
	}
	return t, nil
}
