package sweep

// One count set from thread to -metrics: the scheduler counts every cell
// outcome once and sums each computed cell's htm.Stats and tm.Stats, and
// everything that reports — the Summary a Prewarm pass returns and Metrics,
// the -metrics content — reads those counts. These tests pin that the two
// views agree under every fault class, that the engine series are exactly
// the computed cells' Result.Engine (a fault-afflicted run adds nothing),
// and that cache hits add nothing.

import (
	"testing"

	"htmcmp/internal/adapt"
	"htmcmp/internal/cache"
	"htmcmp/internal/chaos"
	"htmcmp/internal/htm"
	"htmcmp/internal/tm"
)

// metricsCells is testCells plus the same four cells under the adaptive
// runtime on a two-entry TMCAM: the POWER8 ones overflow it and are demoted
// to STM, so the mode-switch series has something to carry.
func metricsCells() []Cell {
	cells := testCells()
	for _, c := range testCells() {
		c.Spec.Adaptive = true
		c.Spec.TMCAMEntries = 2
		cells = append(cells, c)
	}
	return cells
}

// summaryCounters maps a Summary's counts to the counter names that carry
// them.
func summaryCounters(s Summary) map[string]uint64 {
	return map[string]uint64{
		tallyNames[cellsDone]:      uint64(s.Computed + s.Cached),
		tallyNames[cellsCached]:    uint64(s.Cached),
		tallyNames[cellsComputed]:  uint64(s.Computed),
		tallyNames[cellsFailed]:    uint64(s.Failed),
		tallyNames[cacheEvictions]: uint64(s.Evicted),
	}
}

// engineCounters maps summed engine and runtime counts to the series names
// that carry them.
func engineCounters(eng htm.Stats, rt tm.Stats) map[string]uint64 {
	out := map[string]uint64{
		"htm_tx_begins_total":  eng.Begins,
		"htm_tx_commits_total": eng.Commits,
		"htm_tx_aborts_total":  eng.Aborts,
	}
	for r, n := range eng.AbortsByReason {
		out[`htm_tx_aborts_by_reason_total{reason="`+htm.Reason(r).String()+`"}`] = n
	}
	for m, n := range rt.ModeSwitchesTo {
		out[`tm_mode_switches_total{to="`+adapt.Mode(m).String()+`"}`] = n
	}
	return out
}

func TestRegistryAgreesWithSummaryAndEngineStats(t *testing.T) {
	rates := func(classes ...chaos.Class) (r [chaos.NumClasses]float64) {
		for _, c := range classes {
			r[c] = 1
		}
		return r
	}
	engine := []chaos.Class{chaos.SpuriousAbort, chaos.CapacityFault, chaos.STMContention, chaos.ModeThrash}
	cases := []struct {
		name string
		// tornCache starts the sweep on a store whose every record is torn,
		// so each cell is an eviction and a recompute.
		tornCache bool
		rates     [chaos.NumClasses]float64
		// evictions is how many records the scenario must evict per cell.
		evictions int
	}{
		{name: "cache-eviction", tornCache: true, evictions: 1},
		{name: "engine-faults", rates: rates(engine...)},
		{name: "all-at-once", tornCache: true, rates: rates(engine...), evictions: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cells := metricsCells()
			store, err := cache.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if tc.tornCache {
				tear := chaos.Config{Seed: 4, Rates: rates(chaos.CacheCorrupt)}
				if sum := New(Config{Jobs: 2, Cache: store, Faults: chaos.New(tear)}).Prewarm(cells); sum.Failed != 0 {
					t.Fatalf("tearing pass: %s", sum)
				}
			}
			faults := chaos.DefaultConfig(3)
			faults.Rates = tc.rates
			s := New(Config{Jobs: 2, Cache: store, Resume: true, Faults: chaos.New(faults)})

			// Two passes on one scheduler, half the cells each: every pass
			// reports its own cells, Metrics their sum.
			half := len(cells) / 2
			want := map[string]uint64{}
			for i, pass := range [][]Cell{cells[:half], cells[half:]} {
				sum := s.Prewarm(pass)
				if sum.Cells != half || sum.Computed != half || sum.Cached != 0 || sum.Failed != 0 {
					t.Fatalf("pass %d summary = %s, want %d cells, all computed", i+1, sum, half)
				}
				if sum.Evicted != tc.evictions*half {
					t.Errorf("pass %d: %d evictions in the summary, want %d (%s)", i+1, sum.Evicted, tc.evictions*half, sum)
				}
				for name, v := range summaryCounters(sum) {
					want[name] += v
				}
			}

			// Every cell was computed here, so the engine series are the sum
			// of the results the scheduler serves.
			var eng htm.Stats
			var rt tm.Stats
			for _, c := range cells {
				res, err := s.Measure(c.Spec, false)
				if err != nil {
					t.Fatalf("cell %s: %v", c.Label(), err)
				}
				eng.Add(&res.Engine)
				rt.Add(&res.TM)
			}
			if eng.Begins == 0 || eng.Aborts == 0 || rt.ModeSwitches == 0 {
				t.Fatalf("cells too quiet to prove anything: %+v / %+v", eng, rt)
			}
			for name, v := range engineCounters(eng, rt) {
				want[name] = v
			}

			got := s.Metrics()
			if len(got) != len(want) {
				t.Errorf("Metrics has %d series, want the %d the summary and the engine stats name", len(got), len(want))
			}
			for name, v := range want {
				if gv, ok := got[name]; !ok || gv != v {
					t.Errorf("%s = %d in Metrics (present %v), want %d", name, gv, ok, v)
				}
			}

			// A second scheduler on the now-intact store: every cell is a
			// cache hit, which moves done and cached and not one engine
			// series.
			warm := New(Config{Jobs: 2, Cache: store, Resume: true})
			sum := warm.Prewarm(cells)
			if sum.Cached != len(cells) || sum.Computed != 0 {
				t.Fatalf("warm summary = %s, want %d cache hits", sum, len(cells))
			}
			want = summaryCounters(sum)
			for name := range engineCounters(htm.Stats{}, tm.Stats{}) {
				want[name] = 0
			}
			after := warm.Metrics()
			for name, v := range want {
				if av, ok := after[name]; !ok || av != v {
					t.Errorf("after the warm pass %s = %d (present %v), want %d", name, av, ok, v)
				}
			}
		})
	}
}
