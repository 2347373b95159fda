package sweep

import (
	"math"
	"testing"
	"time"

	"htmcmp/internal/cache"
	"htmcmp/internal/features"
	"htmcmp/internal/harness"
	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
	"htmcmp/internal/trace"
)

func measureCell(bench string, threads int) Cell {
	return Cell{Kind: Measure, Spec: harness.RunSpec{
		Platform:  platform.IntelCore,
		Benchmark: bench,
		Threads:   threads,
		Scale:     stamp.ScaleSim,
		Seed:      42,
		Repeats:   1,
	}}
}

func TestEWMAWeightsRecentObservations(t *testing.T) {
	var w ewma
	w.observe(10)
	for i := 0; i < 20; i++ {
		w.observe(1)
	}
	if w.v > 1.1 {
		t.Errorf("EWMA after a run of 1s = %.3f, want near 1 (stale first sample dominates)", w.v)
	}
	var one ewma
	one.observe(7)
	if one.v != 7 {
		t.Errorf("first observation = %.3f, want exactly 7", one.v)
	}
}

func TestEstimatorClassBeatsGlobal(t *testing.T) {
	e := newEstimator()
	lab := measureCell("labyrinth", 4)
	ssca := measureCell("ssca2", 4)
	e.observe(lab, 8.0)
	e.observe(ssca, 0.05)
	if got := e.estimate(lab); math.Abs(got-8.0) > 1e-9 {
		t.Errorf("labyrinth estimate = %.3f, want its own class EWMA 8.0", got)
	}
	if got := e.estimate(ssca); math.Abs(got-0.05) > 1e-9 {
		t.Errorf("ssca2 estimate = %.3f, want its own class EWMA 0.05", got)
	}
}

func TestEstimatorPriorFallback(t *testing.T) {
	e := newEstimator()
	lab := measureCell("labyrinth", 4)
	ssca := measureCell("ssca2", 4)
	// Cold: pure prior units, but the heavy benchmark must rank first.
	if e.estimate(lab) <= e.estimate(ssca) {
		t.Error("cold-start prior does not rank labyrinth above ssca2")
	}
	// After one unrelated observation the global EWMA calibrates the units;
	// the unobserved heavy class must still estimate heavier.
	e.observe(measureCell("genome", 4), 1.0)
	if !e.calibrated() {
		t.Fatal("estimator not calibrated after an observation")
	}
	if e.estimate(lab) <= e.estimate(ssca) {
		t.Error("global-fallback estimate does not rank labyrinth above ssca2")
	}
}

// TestFeatureCellClassesAndPriors: feature cells are classed by kind and
// thread count, and a cold estimator — every regen_cold run starts with one
// — orders a 16-thread queue run (the longest cell of a test-scale sweep)
// before a 1-thread one and before an ordinary measured cell, so the queue
// does not leave it for the tail.
func TestFeatureCellClassesAndPriors(t *testing.T) {
	clq := func(threads int) Cell {
		return Cell{Kind: CLQRun, CLQ: &features.CLQPoint{Mode: features.CLQConstrainedTM, Threads: threads}}
	}
	tls := func(threads int) Cell {
		return Cell{Kind: TLSRun, TLS: &features.TLSPoint{Kernel: features.KernelSphinx3, Threads: threads}}
	}
	for c, want := range map[string]string{
		cellClass(clq(16)): "clq/16", cellClass(clq(1)): "clq/1",
		cellClass(tls(0)): "tls/0", cellClass(tls(6)): "tls/6",
		cellClass(Cell{Kind: CLQRun}): "clq/0",
	} {
		if c != want {
			t.Errorf("class %q, want %q", c, want)
		}
	}
	e := newEstimator()
	ssca := measureCell("ssca2", 4)
	if !(e.estimate(clq(16)) > e.estimate(clq(1)) && e.estimate(clq(16)) > e.estimate(ssca)) {
		t.Errorf("cold estimates: clq/16 %.2f, clq/1 %.2f, ssca2 %.2f — the 16-thread run must rank first",
			e.estimate(clq(16)), e.estimate(clq(1)), e.estimate(ssca))
	}
	if e.estimate(tls(6)) >= e.estimate(ssca) {
		t.Errorf("a millisecond TLS run (%.2f) is estimated above a measured cell (%.2f)", e.estimate(tls(6)), e.estimate(ssca))
	}
	q := newQueue([]job{{Cell: clq(1)}, {Cell: ssca}, {Cell: clq(16)}},
		[]float64{e.estimate(clq(1)), e.estimate(ssca), e.estimate(clq(16))})
	if first, _ := q.pop(); first.CLQ == nil || first.CLQ.Threads != 16 {
		t.Errorf("the cold queue starts with %s, want the 16-thread queue run", first.Label())
	}
	// Observed durations stay apart by class.
	e.observe(clq(16), 0.2)
	e.observe(clq(1), 0.002)
	if got := e.estimate(clq(16)); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("clq/16 estimate = %.3f, want its own class EWMA 0.2", got)
	}
}

func TestRemainingSecondsWeightsPendingWork(t *testing.T) {
	e := newEstimator()
	lab := measureCell("labyrinth", 4)
	ssca := measureCell("ssca2", 4)
	e.beginPlan([]job{{Cell: lab}, {Cell: lab}, {Cell: ssca}})
	e.observe(lab, 10)
	e.observe(ssca, 1)
	if got, want := e.remainingSeconds(), 21.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("remainingSeconds = %.3f, want %.3f (2×10 + 1×1)", got, want)
	}
	e.cellDone(lab)
	if got, want := e.remainingSeconds(), 11.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("remainingSeconds after one labyrinth done = %.3f, want %.3f", got, want)
	}
	// The old estimator's failure mode: with mean-based ETA the cheap cell
	// would have predicted (10+1)/2 per remaining cell; the weighted sum
	// must instead charge the remaining labyrinth its own class estimate.
	e.cellDone(ssca)
	if got, want := e.remainingSeconds(), 10.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("remainingSeconds with one labyrinth pending = %.3f, want %.3f", got, want)
	}
}

func TestEstimatorPersistence(t *testing.T) {
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	lab := measureCell("labyrinth", 4)
	e := newEstimator()
	e.observe(lab, 42)
	e.save(store)

	fresh := newEstimator()
	fresh.load(store)
	if !fresh.calibrated() {
		t.Fatal("loaded estimator not calibrated")
	}
	if got := fresh.estimate(lab); math.Abs(got-42) > 1e-9 {
		t.Errorf("persisted estimate = %.3f, want 42", got)
	}
	// In-memory observations must win over a stale persisted record.
	fresh.observe(lab, 2)
	before := fresh.estimate(lab)
	fresh.load(store)
	if got := fresh.estimate(lab); got != before {
		t.Errorf("load overwrote live estimate: %.3f -> %.3f", before, got)
	}
}

// TestPrewarmTrainsAndPersistsDurations runs a real Prewarm through the
// hook seam and checks the estimator learned from it and persisted its
// state, and that a resumed pass replays cached durations into a fresh
// scheduler's estimator.
func TestPrewarmTrainsAndPersistsDurations(t *testing.T) {
	setRunCellHook(t, func(Cell) (harness.Result, trace.Footprint, error) {
		time.Sleep(2 * time.Millisecond)
		return harness.Result{}, trace.Footprint{}, nil
	})
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cells := testCells()

	s := New(Config{Jobs: 2, Cache: store, Resume: true})
	if sum := s.Prewarm(cells); sum.Computed != len(cells) {
		t.Fatalf("first pass summary = %s", sum)
	}
	if !s.est.calibrated() {
		t.Error("estimator not trained by computed cells")
	}

	// A fresh scheduler resuming from cache never computes, but the cached
	// records carry Seconds and the persisted file carries the EWMAs.
	s2 := New(Config{Jobs: 2, Cache: store, Resume: true})
	if sum := s2.Prewarm(cells); sum.Cached != len(cells) {
		t.Fatalf("resume summary = %s, want all cached", sum)
	}
	if !s2.est.calibrated() {
		t.Error("resumed estimator has no duration history")
	}
	if got := s2.est.estimate(cells[0]); got <= 0 {
		t.Errorf("resumed estimate = %.6f, want > 0", got)
	}
}
