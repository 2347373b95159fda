package sweep

// Chaos/soak suite for fault injection at the sweep: every cell is computed
// once; an engine-afflicted cell's faulted run must complete and validate or
// the cell fails, and when faults fired it runs once more clean, which is the
// outcome the sweep keeps — so results equal a fault-free run's. Torn cache
// records are evicted and recomputed on the next resumed pass.

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

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

// assertCleanEqual checks every cell the scheduler serves against the
// fault-free reference: injection must leave no fingerprint in the results.
func assertCleanEqual(t *testing.T, s *Scheduler, cells []Cell, want []harness.Result) {
	t.Helper()
	for i, c := range cells {
		o := s.request(c)
		if o.err != nil {
			t.Fatalf("cell %s failed: %v", c.Label(), o.err)
		}
		if !reflect.DeepEqual(o.res, want[i]) {
			t.Errorf("cell %s: result differs from the fault-free run", c.Label())
		}
	}
}

// runCount is what a countRuns hook saw of one cell.
type runCount struct {
	afflicted int // runs with an engine injector attached
	fired     int // afflicted runs in which the injector fired
	clean     int // runs without one
}

// countRuns installs a runCellHook that measures Measure cells through a
// fresh harness.Run — so a cell's result is what the scheduler would
// compute — and counts each cell's afflicted and clean runs by label. fail,
// when non-nil, turns a finished run into an error.
func countRuns(t *testing.T, fail func(Cell) error) func() map[string]runCount {
	var mu sync.Mutex
	runs := map[string]runCount{}
	setRunCellHook(t, func(c Cell) (harness.Result, trace.Footprint, error) {
		r, err := harness.Run(c.Spec)
		if err == nil && fail != nil {
			err = fail(c)
		}
		mu.Lock()
		defer mu.Unlock()
		rc := runs[c.Label()]
		if inj := c.Spec.Faults; inj != nil {
			rc.afflicted++
			if inj.TotalFired() > 0 {
				rc.fired++
			}
		} else {
			rc.clean++
		}
		runs[c.Label()] = rc
		return r, trace.Footprint{}, err
	})
	return func() map[string]runCount {
		mu.Lock()
		defer mu.Unlock()
		return runs
	}
}

// TestChaosSoakPerClassRecovery afflicts EVERY cell with one fault class at
// a time. An engine class costs each cell one afflicted run, which must
// validate, and one clean run when the injector fired; a torn record costs
// nothing in the pass that tore it. Either way no cell fails and the
// results are identical to a fault-free sweep.
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
		{"cache-corrupt", chaos.CacheCorrupt, 0, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cells := chaosCells(tc.mod)
			want := cleanResults(t, cells)
			runs := countRuns(t, nil)
			store, err := cache.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			cfg := chaos.Config{Seed: 1}
			cfg.Rates[tc.class] = 1
			cfg.OpRates[tc.class] = tc.op
			in := chaos.New(cfg)
			s := New(Config{Jobs: 2, Cache: store, Faults: in})
			sum := s.Prewarm(cells)
			if sum.Failed != 0 || sum.Computed != len(cells) {
				t.Fatalf("summary = %s, want all %d cells computed, none failed", sum, len(cells))
			}
			if in.Fired(tc.class) == 0 {
				t.Fatalf("class %s never fired; the soak proves nothing", tc.class)
			}
			for _, c := range cells {
				rc := runs()[c.Label()]
				wantRuns := runCount{afflicted: 1, fired: rc.fired, clean: rc.fired}
				if tc.class == chaos.CacheCorrupt {
					wantRuns = runCount{clean: 1}
				}
				if rc != wantRuns {
					t.Errorf("cell %s ran %+v, want %+v", c.Label(), rc, wantRuns)
				}
			}
			assertCleanEqual(t, s, cells, want)
		})
	}
}

// TestChaosAfflictedFailureFailsCell: a runtime that does not survive the
// injected aborts must fail its cell. Every cell is afflicted and every
// afflicted run reports an error after the faults fired; the cell fails with
// an error naming the class and caches nothing. The retry budget and seed
// the benchmark program still sets are ignored: no cell gets a second try.
func TestChaosAfflictedFailureFailsCell(t *testing.T) {
	runs := countRuns(t, func(c Cell) error {
		if c.Spec.Faults != nil {
			return errTestAfflicted
		}
		return nil
	})
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaos.Config{Seed: 5}
	cfg.Rates[chaos.SpuriousAbort] = 1
	cfg.OpRates[chaos.SpuriousAbort] = 0.2
	cells := testCells()
	s := New(Config{Jobs: 2, Cache: store, Resume: true, Retries: 2, Seed: 42, Faults: chaos.New(cfg)})
	sum := s.Prewarm(cells)
	if sum.Failed != len(cells) || sum.Computed != len(cells) {
		t.Fatalf("summary = %s, want all %d afflicted cells failed", sum, len(cells))
	}
	for _, c := range cells {
		if rc := runs()[c.Label()]; rc != (runCount{afflicted: 1, fired: 1}) {
			t.Errorf("cell %s ran %+v, want one afflicted run that fired and nothing after it", c.Label(), rc)
		}
		_, err := s.Measure(c.Spec, false)
		if err == nil {
			t.Fatalf("cell %s: the afflicted failure was masked", c.Label())
		}
		for _, want := range []string{"failed under injected faults", "spurious-abort=", errTestAfflicted.Error()} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("cell %s: error does not mention %q: %v", c.Label(), want, err)
			}
		}
		key, err := c.Key()
		if err != nil {
			t.Fatal(err)
		}
		var rec record
		if ok, err := store.Get(key, &rec); ok || err != nil {
			t.Errorf("cell %s: failed cell left a cache record (found %v, err %v)", c.Label(), ok, err)
		}
	}
}

var errTestAfflicted = errors.New("validation failed under injected aborts")

// TestNegativeRetriesStillComputeOnce: the retry budget is ignored, so even
// a negative one leaves every cell its one run, and what lands in the cache
// is what that run computed — never a zero-run, zero-valued outcome.
func TestNegativeRetriesStillComputeOnce(t *testing.T) {
	runs := stubRuns(t, func(Cell) error { return nil })
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cells := testCells()
	sum := New(Config{Jobs: 2, Retries: -1, Cache: store}).Prewarm(cells)
	if sum.Computed != len(cells) || sum.Failed != 0 {
		t.Fatalf("summary = %s, want all %d cells computed and none failed", sum, len(cells))
	}
	assertComputedOnce(t, store, cells, runs(), func(Cell) bool { return false })
}

// TestQuarantineDoesNotStarvePool: cells that fail persistently do not keep
// the worker pool from draining. Whatever retry budget the benchmark program
// still sets, a failed cell is final after its one run, the healthy cells
// land in the same pass with the value they computed, and Prewarm returns
// with every cell accounted for.
func TestQuarantineDoesNotStarvePool(t *testing.T) {
	failing := func(c Cell) bool { return c.Spec.Benchmark == "ssca2" }
	runs := stubRuns(t, func(c Cell) error {
		if failing(c) {
			return errors.New("persistent test failure")
		}
		return nil
	})
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cells := testCells() // 2 ssca2 cells (always fail), 2 kmeans-low (succeed)
	s := New(Config{Jobs: 3, Retries: 2, Seed: 42, Cache: store})
	sum := s.Prewarm(cells)
	if sum.Cells != len(cells) || sum.Computed != len(cells) || sum.Failed != 2 {
		t.Fatalf("summary = %s, want the pool to drain all %d cells and the 2 ssca2 cells failed", sum, len(cells))
	}
	assertComputedOnce(t, store, cells, runs(), failing)
	for _, c := range cells {
		_, err := s.Measure(c.Spec, false)
		if failing(c) && err == nil {
			t.Errorf("cell %s: persistent failure healed away — impossible", c.Label())
		}
		if !failing(c) && err != nil {
			t.Errorf("cell %s starved by its failing neighbours: %v", c.Label(), err)
		}
	}
}

// stubRuns installs a run-cell hook that simulates nothing: it counts runs
// per cell label and returns ParSeconds 1.5, or fail's error when non-nil.
// The returned function reads the counts.
func stubRuns(t *testing.T, fail func(Cell) error) func() map[string]int {
	var mu sync.Mutex
	runs := map[string]int{}
	setRunCellHook(t, func(c Cell) (harness.Result, trace.Footprint, error) {
		mu.Lock()
		runs[c.Label()]++
		mu.Unlock()
		if err := fail(c); err != nil {
			return harness.Result{}, trace.Footprint{}, err
		}
		return harness.Result{ParSeconds: 1.5}, trace.Footprint{}, nil
	})
	return func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		return runs
	}
}

// assertComputedOnce checks that every cell ran exactly once, that failed
// cells left no cache record, and that every other cell's record holds the
// value its run computed.
func assertComputedOnce(t *testing.T, store *cache.Store, cells []Cell, runs map[string]int, failed func(Cell) bool) {
	t.Helper()
	for _, c := range cells {
		if runs[c.Label()] != 1 {
			t.Errorf("cell %s ran %d times, want exactly once", c.Label(), runs[c.Label()])
		}
		key, err := c.Key()
		if err != nil {
			t.Fatal(err)
		}
		var rec record
		ok, err := store.Get(key, &rec)
		switch {
		case failed(c):
			if ok || err != nil {
				t.Errorf("failed cell %s left a cache record (found %v, err %v)", c.Label(), ok, err)
			}
		case err != nil || !ok || rec.Result == nil:
			t.Errorf("cell %s: no cache record with a result (found %v, err %v)", c.Label(), ok, err)
		case rec.Result.ParSeconds != 1.5:
			t.Errorf("cell %s: cached ParSeconds = %v, want the computed 1.5", c.Label(), rec.Result.ParSeconds)
		}
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
		return New(Config{Jobs: 2, Cache: store, Resume: true, Faults: in}), in
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
	assertCleanEqual(t, s1, cells, want)

	s2, _ := mk()
	sum2 := s2.Prewarm(cells)
	if sum2.Cached != 0 || sum2.Computed != len(cells) {
		t.Fatalf("pass-2 summary = %s, want every torn record recomputed", sum2)
	}
	if sum2.Evicted != len(cells) || sum2.Failed != 0 {
		t.Fatalf("pass-2 summary = %s, want %d evicted and none failed", sum2, len(cells))
	}
	assertCleanEqual(t, s2, cells, want)
}

// TestChaosSoakFullMixByteIdentical is the soak: every fault class armed at
// once (the default chaos mix), a sweep into a cache, and a resumed second
// sweep over the same store. Both passes must end with zero failures and
// results identical to the fault-free reference, the second pass must detect
// exactly the records the first pass tore, and a fault-free third pass finds
// nothing afflicted among the records that are left. The Figure 6 + Figure 9
// plan carries no RunSpec: its cells are never handed an engine injector and
// only their records are torn.
func TestChaosSoakFullMixByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cells []Cell
	}{
		{"stamp", testCells()},
		{"features", featureCells(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cells := tc.cells
			want := cleanResults(t, cells)
			store, err := cache.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			mk := func(in *chaos.Injector) *Scheduler {
				return New(Config{Jobs: 2, Cache: store, Resume: true, Faults: in})
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
			assertCleanEqual(t, s1, cells, want)

			in2 := chaos.New(chaos.DefaultConfig(1001))
			s2 := mk(in2)
			sum2 := s2.Prewarm(cells)
			if sum2.Failed != 0 {
				t.Fatalf("pass-2 summary = %s, want no failures on chaotic resume", sum2)
			}
			if torn := int(in1.Fired(chaos.CacheCorrupt)); sum2.Evicted != torn {
				t.Errorf("pass 2 evicted %d records, want the %d pass 1 tore", sum2.Evicted, torn)
			}
			assertCleanEqual(t, s2, cells, want)

			s3 := mk(nil)
			sum3 := s3.Prewarm(cells)
			if torn := int(in2.Fired(chaos.CacheCorrupt)); sum3.Failed != 0 || sum3.Evicted != torn || sum3.Cached != len(cells)-torn {
				t.Errorf("fault-free pass-3 summary = %s, want the %d records pass 2 tore evicted and the rest loaded", sum3, torn)
			}
			assertCleanEqual(t, s3, cells, want)

			if tc.name == "features" {
				for cl := chaos.SpuriousAbort; cl <= chaos.ModeThrash; cl++ {
					if n := in1.Fired(cl) + in2.Fired(cl); n != 0 {
						t.Errorf("%s fired %d times on cells that attach no engine injector", cl, n)
					}
				}
			}
		})
	}
}
