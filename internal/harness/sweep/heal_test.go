package sweep

// Chaos/soak suite for the self-healing sweep: every injected fault class
// must be recovered — the sweep completes, the healed results are equal to a
// fault-free run, and the Summary's Recovered accounting matches what was
// injected — plus property tests for the retry backoff bounds and for the
// worker pool draining around quarantined cells.

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"htmcmp/internal/cache"
	"htmcmp/internal/chaos"
	"htmcmp/internal/harness"
	"htmcmp/internal/trace"
)

// chaosCells returns the standard test cell set with an optional spec
// mutation (to route cells through the STM or adaptive runtimes).
func chaosCells(mod func(*harness.RunSpec)) []Cell {
	cells := testCells()
	if mod != nil {
		for i := range cells {
			mod(&cells[i].Spec)
		}
	}
	return cells
}

// cleanResults computes the fault-free reference results directly.
func cleanResults(t *testing.T, cells []Cell) []harness.Result {
	t.Helper()
	out := make([]harness.Result, len(cells))
	regions := harness.NewRegions()
	for i, c := range cells {
		o := runCell(regions, c)
		if o.err != nil {
			t.Fatal(o.err)
		}
		out[i] = o.res
	}
	return out
}

// assertHealedEqual checks every healed cell against the fault-free
// reference: recovery must leave no fingerprint in the results.
func assertHealedEqual(t *testing.T, s *Scheduler, cells []Cell, want []harness.Result) {
	t.Helper()
	for i, c := range cells {
		o := s.request(c)
		if o.err != nil {
			t.Fatalf("cell %s failed after healing: %v", c.Label(), o.err)
		}
		if !reflect.DeepEqual(o.res, want[i]) {
			t.Errorf("cell %s: healed result differs from fault-free run", c.Label())
		}
	}
}

// TestChaosSoakPerClassRecovery afflicts EVERY cell with one fault class at
// a time and requires total recovery: no failures, every cell recovered via
// exactly one clean retry, and results identical to a fault-free sweep.
func TestChaosSoakPerClassRecovery(t *testing.T) {
	cases := []struct {
		name  string
		class chaos.Class
		op    float64 // per-opportunity rate for engine-level classes
		mod   func(*harness.RunSpec)
	}{
		{"spurious-abort", chaos.SpuriousAbort, 0.2, nil},
		{"capacity-fault", chaos.CapacityFault, 0.01, nil},
		{"stm-contention", chaos.STMContention, 0.05, func(s *harness.RunSpec) { s.UseSTM = true }},
		{"mode-thrash", chaos.ModeThrash, 0.1, func(s *harness.RunSpec) { s.Adaptive = true }},
		{"cell-panic", chaos.CellPanic, 0, nil},
		{"worker-crash", chaos.WorkerCrash, 0, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cells := chaosCells(tc.mod)
			want := cleanResults(t, cells)
			cfg := chaos.Config{Seed: 1}
			cfg.Rates[tc.class] = 1
			if tc.op > 0 {
				cfg.OpRates[tc.class] = tc.op
			}
			in := chaos.New(cfg)
			s := New(Config{
				Jobs: 2, Retries: 2, Seed: 7, Faults: in,
			})
			sum := s.Prewarm(cells)
			if sum.Failed != 0 {
				t.Fatalf("summary = %s, want no failures", sum)
			}
			if in.Fired(tc.class) == 0 {
				t.Fatalf("class %s never fired; the soak proves nothing", tc.class)
			}
			if sum.Recovered != len(cells) {
				t.Fatalf("summary = %s, want all %d cells recovered", sum, len(cells))
			}
			if sum.Retried != len(cells) {
				t.Fatalf("summary = %s, want exactly one retry per cell", sum)
			}
			assertHealedEqual(t, s, cells, want)
		})
	}
}

// TestChaosQuarantineRecovers forces every cell through quarantine: the
// affliction persists past the pool's retry budget (Persist > Retries), so
// each cell exhausts its retries, is quarantined, and is then healed by the
// serial single-retry pass. Running the identical sweep twice must heal
// identically — the whole schedule is a function of the seeds.
func TestChaosQuarantineRecovers(t *testing.T) {
	cells := testCells()
	want := cleanResults(t, cells)
	run := func() (Summary, *Scheduler) {
		cfg := chaos.Config{Seed: 3, Persist: 2}
		cfg.Rates[chaos.CellPanic] = 1
		s := New(Config{
			Jobs: 2, Retries: 1, Seed: 11, Faults: chaos.New(cfg),
		})
		return s.Prewarm(cells), s
	}
	sum, s := run()
	if sum.Quarantined != len(cells) || sum.Recovered != len(cells) || sum.Failed != 0 {
		t.Fatalf("summary = %s, want all %d quarantined and recovered", sum, len(cells))
	}
	assertHealedEqual(t, s, cells, want)

	sum2, _ := run()
	if sum2.Retried != sum.Retried || sum2.Quarantined != sum.Quarantined ||
		sum2.Recovered != sum.Recovered || sum2.Failed != sum.Failed {
		t.Fatalf("chaos healing not deterministic: %s vs %s", sum, sum2)
	}
}

// TestChaosStallTimesOutAndRecovers: an injected stall must trip the cell
// timeout, and the clean retry must land. The hook makes the real compute
// instant so the test's clock is dominated by the injected stall alone.
func TestChaosStallTimesOutAndRecovers(t *testing.T) {
	setRunCellHook(t, func(Cell) (harness.Result, trace.Footprint, error) {
		return harness.Result{}, trace.Footprint{}, nil
	})
	cfg := chaos.Config{Seed: 2}
	cfg.Rates[chaos.CellStall] = 1
	in := chaos.New(cfg)
	s := New(Config{
		Jobs: 2, Timeout: 100 * time.Millisecond, Retries: 1, Faults: in,
	})
	cells := testCells()
	sum := s.Prewarm(cells)
	if sum.Failed != 0 || sum.Recovered != len(cells) {
		t.Fatalf("summary = %s, want all %d stalled cells recovered", sum, len(cells))
	}
	if got := in.Fired(chaos.CellStall); got != uint64(len(cells)) {
		t.Fatalf("stalls fired = %d, want %d", got, len(cells))
	}
}

// TestChaosCacheCorruptionDetectedAndRecovered tears EVERY cache record
// after it is written (truncation, garbage, and stale-content modes, chosen
// per key); the resumed sweep must detect all of them, evict, recompute, and
// converge to the fault-free results.
func TestChaosCacheCorruptionDetectedAndRecovered(t *testing.T) {
	cells := testCells()
	want := cleanResults(t, cells)
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mk := func() (*Scheduler, *chaos.Injector) {
		cfg := chaos.Config{Seed: 4}
		cfg.Rates[chaos.CacheCorrupt] = 1
		in := chaos.New(cfg)
		s := New(Config{
			Jobs: 2, Cache: store, Resume: true, Retries: 1, Faults: in,
		})
		return s, in
	}
	s1, in1 := mk()
	sum1 := s1.Prewarm(cells)
	if sum1.Failed != 0 || sum1.Computed != len(cells) {
		t.Fatalf("pass-1 summary = %s", sum1)
	}
	if got := in1.Fired(chaos.CacheCorrupt); got != uint64(len(cells)) {
		t.Fatalf("tore %d records, want %d", got, len(cells))
	}
	// The in-memory results are banked before the record is torn; tearing
	// must not leak into what pass 1 serves.
	assertHealedEqual(t, s1, cells, want)

	s2, _ := mk()
	sum2 := s2.Prewarm(cells)
	if sum2.Cached != 0 || sum2.Computed != len(cells) {
		t.Fatalf("pass-2 summary = %s, want every torn record recomputed", sum2)
	}
	if sum2.Evicted != len(cells) || sum2.Recovered != len(cells) || sum2.Failed != 0 {
		t.Fatalf("pass-2 summary = %s, want %d evicted and recovered", sum2, len(cells))
	}
	assertHealedEqual(t, s2, cells, want)
}

// TestChaosSoakFullMixByteIdentical is the soak: every fault class armed at
// once (the default chaos mix), a sweep into a cache, and a resumed second
// sweep over the same store. Both passes must end with zero failures and
// results identical to the fault-free reference, the second pass must detect
// exactly the records the first pass tore, and a fault-free third pass finds
// nothing afflicted among the records that are left. The Figure 6 + Figure 9
// plan carries no RunSpec: its cells take the harness-level faults (stalls
// included, against a short timeout) and are never handed an engine injector.
func TestChaosSoakFullMixByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cells   []Cell
		timeout time.Duration
	}{
		{"stamp", testCells(), 0},
		{"features", featureCells(t), 100 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cells := tc.cells
			want := cleanResults(t, cells)
			store, err := cache.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			mk := func(in *chaos.Injector) *Scheduler {
				return New(Config{
					Jobs: 2, Cache: store, Resume: true, Retries: 2, Seed: 1001, Faults: in, Timeout: tc.timeout,
				})
			}
			in1 := chaos.New(chaos.DefaultConfig(1001))
			s1 := mk(in1)
			sum1 := s1.Prewarm(cells)
			if sum1.Failed != 0 {
				t.Fatalf("pass-1 summary = %s, want no failures under full chaos", sum1)
			}
			if in1.TotalFired() == 0 {
				t.Fatal("chaos never fired; the soak proves nothing")
			}
			assertHealedEqual(t, s1, cells, want)

			in2 := chaos.New(chaos.DefaultConfig(1001))
			s2 := mk(in2)
			sum2 := s2.Prewarm(cells)
			if sum2.Failed != 0 {
				t.Fatalf("pass-2 summary = %s, want no failures on chaotic resume", sum2)
			}
			if torn := int(in1.Fired(chaos.CacheCorrupt)); sum2.Evicted != torn {
				t.Errorf("pass 2 evicted %d records, want the %d pass 1 tore", sum2.Evicted, torn)
			}
			assertHealedEqual(t, s2, cells, want)

			s3 := mk(nil)
			sum3 := s3.Prewarm(cells)
			if torn := int(in2.Fired(chaos.CacheCorrupt)); sum3.Failed != 0 || sum3.Evicted != torn || sum3.Cached != len(cells)-torn {
				t.Errorf("fault-free pass-3 summary = %s, want the %d records pass 2 tore evicted and the rest loaded", sum3, torn)
			}
			assertHealedEqual(t, s3, cells, want)

			if tc.timeout > 0 {
				if in1.Fired(chaos.CellStall) == 0 || in1.Fired(chaos.CellPanic) == 0 || in1.Fired(chaos.WorkerCrash) == 0 {
					t.Errorf("harness-level faults did not all fire on feature cells: %v", in1.Counts())
				}
				for cl := chaos.SpuriousAbort; cl <= chaos.ModeThrash; cl++ {
					if n := in1.Fired(cl) + in2.Fired(cl); n != 0 {
						t.Errorf("%s fired %d times on cells that attach no engine injector", cl, n)
					}
				}
			}
		})
	}
}

// TestNegativeRetriesStillComputeOnce: a negative retry budget is clamped to
// none. Every cell still gets its one attempt, and what lands in the cache is
// what that attempt computed — never a zero-attempt, zero-valued outcome.
func TestNegativeRetriesStillComputeOnce(t *testing.T) {
	var mu sync.Mutex
	runs := map[string]int{}
	setRunCellHook(t, func(c Cell) (harness.Result, trace.Footprint, error) {
		mu.Lock()
		runs[c.Label()]++
		mu.Unlock()
		return harness.Result{ParSeconds: 1.5}, trace.Footprint{}, nil
	})
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cells := testCells()
	sum := New(Config{Jobs: 2, Retries: -1, Cache: store}).Prewarm(cells)
	if sum.Computed != len(cells) || sum.Failed != 0 || sum.Retried != 0 {
		t.Fatalf("summary = %s, want all %d cells computed without a retry", sum, len(cells))
	}
	for _, c := range cells {
		if runs[c.Label()] != 1 {
			t.Errorf("cell %s ran %d times, want exactly once", c.Label(), runs[c.Label()])
		}
		key, err := c.Key()
		if err != nil {
			t.Fatal(err)
		}
		var rec record
		if ok, err := store.Get(key, &rec); err != nil || !ok || rec.Result == nil {
			t.Errorf("cell %s: no cache record with a result (found %v, err %v)", c.Label(), ok, err)
		} else if rec.Result.ParSeconds != 1.5 {
			t.Errorf("cell %s: cached ParSeconds = %v, want the computed 1.5", c.Label(), rec.Result.ParSeconds)
		}
	}
}

// TestQuarantineDoesNotStarvePool is the starvation property: cells that
// fail persistently (and burn their whole retry budget) must not keep the
// worker pool from draining — healthy cells still complete, and Prewarm returns with every cell accounted for.
func TestQuarantineDoesNotStarvePool(t *testing.T) {
	setRunCellHook(t, func(c Cell) (harness.Result, trace.Footprint, error) {
		if c.Spec.Benchmark == "ssca2" {
			return harness.Result{}, trace.Footprint{}, errTestPersistent
		}
		return harness.Result{}, trace.Footprint{}, nil
	})
	cells := testCells() // 2 ssca2 cells (always fail), 2 kmeans-low (succeed)
	s := New(Config{
		Jobs: 3, Retries: 2,
	})
	sum := s.Prewarm(cells)
	if sum.Cells != len(cells) || sum.Computed != len(cells) {
		t.Fatalf("summary = %s, want the pool to drain all %d cells", sum, len(cells))
	}
	if sum.Quarantined != 2 || sum.Failed != 2 {
		t.Fatalf("summary = %s, want the 2 persistent failures quarantined then failed", sum)
	}
	if sum.Retried != 2*2 {
		t.Fatalf("summary = %s, want both failing cells to burn their full retry budget", sum)
	}
	for _, c := range cells {
		_, err := s.Measure(c.Spec, false)
		if c.Spec.Benchmark == "ssca2" && err == nil {
			t.Errorf("cell %s: persistent failure healed away — impossible", c.Label())
		}
		if c.Spec.Benchmark != "ssca2" && err != nil {
			t.Errorf("cell %s starved by its failing neighbours: %v", c.Label(), err)
		}
	}
}

var errTestPersistent = &persistentErr{}

type persistentErr struct{}

func (*persistentErr) Error() string { return "persistent test failure" }

// TestRetryBackoffBoundedForAnySeed is the backoff property: for any seed
// and any attempt number — far past where naive doubling overflows — the
// delay is deterministic, positive, and never exceeds the cap.
func TestRetryBackoffBoundedForAnySeed(t *testing.T) {
	const ceiling = 100 * time.Millisecond
	for seed := uint64(0); seed < 64; seed++ {
		for attempt := 0; attempt < 70; attempt++ {
			d := chaos.Backoff(seed, "prop-cell", attempt, 2*time.Millisecond, ceiling)
			if d <= 0 || d > ceiling {
				t.Fatalf("seed %d attempt %d: backoff %v outside (0, %v]", seed, attempt, d, ceiling)
			}
			if d2 := chaos.Backoff(seed, "prop-cell", attempt, 2*time.Millisecond, ceiling); d2 != d {
				t.Fatalf("seed %d attempt %d: backoff not deterministic (%v vs %v)", seed, attempt, d, d2)
			}
		}
	}
}
