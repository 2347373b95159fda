package harness

import (
	"fmt"
	"testing"

	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
	"htmcmp/internal/tm"
)

// policyLabel names a trial's retry counters.
func policyLabel(s RunSpec) string {
	p := s.policy()
	return fmt.Sprintf("lock=%d persistent=%d transient=%d", p.LockRetry, p.PersistentRetry, p.TransientRetry)
}

// TestNeighbours pins the refinement moves: halved/doubled counters within
// clamps, no self-moves, mode flip on Blue Gene/Q.
func TestNeighbours(t *testing.T) {
	c := RunSpec{Platform: platform.IntelCore, Policy: &tm.Policy{LockRetry: 8, PersistentRetry: 2, TransientRetry: 8}}
	ns := Neighbours(c)
	want := []string{
		"lock=4 persistent=2 transient=8",
		"lock=16 persistent=2 transient=8",
		"lock=8 persistent=1 transient=8",
		"lock=8 persistent=4 transient=8",
		"lock=8 persistent=2 transient=4",
		"lock=8 persistent=2 transient=16",
	}
	if len(ns) != len(want) {
		t.Fatalf("interior point has %d neighbours, want %d", len(ns), len(want))
	}
	for i, n := range ns {
		if got := policyLabel(n); got != want[i] {
			t.Errorf("neighbour %d = %q, want %q", i, got, want[i])
		}
	}
	if c.Policy.LockRetry != 8 {
		t.Errorf("Neighbours moved the incumbent's own policy: %+v", *c.Policy)
	}

	// At the clamps, moves outside the range are dropped.
	edge := RunSpec{Platform: platform.IntelCore,
		Policy: &tm.Policy{LockRetry: 1, PersistentRetry: maxPersistRetry, TransientRetry: maxTransientRetry}}
	for _, n := range Neighbours(edge) {
		p := n.Policy
		if p.LockRetry < 1 || p.LockRetry > maxLockRetry ||
			p.PersistentRetry < 1 || p.PersistentRetry > maxPersistRetry ||
			p.TransientRetry < 1 || p.TransientRetry > maxTransientRetry {
			t.Errorf("neighbour %q escapes the clamps", policyLabel(n))
		}
	}

	bgq := RunSpec{Platform: platform.BlueGeneQ, Mode: platform.ShortRunning, Policy: &tm.Policy{TransientRetry: 8}}
	bns := Neighbours(bgq)
	if len(bns) != 3 {
		t.Fatalf("bgq neighbours = %d, want 3 (half, double, mode flip)", len(bns))
	}
	flips := 0
	for _, n := range bns {
		if n.Mode == platform.LongRunning {
			flips++
			if !n.Policy.LazySubscription {
				t.Error("mode flip did not update LazySubscription")
			}
		} else if n.Policy.LockRetry != 0 || n.Policy.PersistentRetry != 0 {
			t.Errorf("bgq neighbour moved a counter besides the system one: %+v", *n.Policy)
		}
	}
	if flips != 1 || bns[2].Mode != platform.LongRunning {
		t.Errorf("bgq neighbours contain %d mode flips, want 1, last", flips)
	}
}

// TestTuneGridTrials checks the trial instantiation: single repeat, policy
// pinned, base fields preserved, and a Blue Gene/Q mode that matches its
// lazy subscription.
func TestTuneGridTrials(t *testing.T) {
	for _, k := range platform.Kinds() {
		base := RunSpec{
			Platform: k, Benchmark: "yada", Threads: 4,
			Scale: stamp.ScaleSim, Seed: 7, Repeats: 4,
		}
		grid := TuneGrid(base)
		if len(grid) < 4 {
			t.Errorf("%v: only %d trials", k, len(grid))
		}
		for _, s := range grid {
			if s.Repeats != 1 {
				t.Errorf("%v: trial repeats = %d, want 1", k, s.Repeats)
			}
			if s.Policy == nil {
				t.Errorf("%v: trial has no policy", k)
				continue
			}
			if s.Platform != base.Platform || s.Benchmark != base.Benchmark ||
				s.Threads != base.Threads || s.Seed != base.Seed || s.Scale != base.Scale {
				t.Errorf("%v: trial lost base fields: %+v", k, s)
			}
			if k == platform.BlueGeneQ && s.Policy.LazySubscription != (s.Mode == platform.LongRunning) {
				t.Errorf("bgq trial: LazySubscription=%v under mode %v", s.Policy.LazySubscription, s.Mode)
			}
		}
		genome := base
		genome.Benchmark = "genome"
		if n := len(TuneGrid(genome)); n != 2*len(grid) {
			t.Errorf("%v: genome grid has %d trials, want %d", k, n, 2*len(grid))
		}
		genome.ChunkStep1 = 9
		if n := len(TuneGrid(genome)); n != len(grid) {
			t.Errorf("%v: genome grid with a fixed chunk has %d trials, want %d", k, n, len(grid))
		}
	}
}

// fakeEval returns a synthetic speedup per spec through fn and records every
// batch it served.
type fakeEval struct {
	batches [][]RunSpec
	fn      func(RunSpec) float64
}

func (f *fakeEval) eval(specs []RunSpec) ([]Result, error) {
	f.batches = append(f.batches, specs)
	out := make([]Result, len(specs))
	for i, s := range specs {
		out[i] = Result{Spec: s, Speedup: f.fn(s)}
	}
	return out, nil
}

// TestSearchConverges drives the search against a synthetic objective with
// a unique optimum and checks the refinement walks toward it: the winner
// must strictly improve on the best grid point.
func TestSearchConverges(t *testing.T) {
	base := RunSpec{
		Platform: platform.IntelCore, Benchmark: "yada", Threads: 4,
		Scale: stamp.ScaleSim, Seed: 42, Repeats: 2,
	}
	// Optimum at lock=16, persistent=1, transient=64 — outside the grid on
	// two axes, reachable by halving and doubling moves.
	score := func(s RunSpec) float64 {
		p := s.Policy
		d := abs(p.LockRetry-16) + 4*abs(p.PersistentRetry-1) + abs(p.TransientRetry-64)/8
		return 10.0 / float64(1+d)
	}
	f := &fakeEval{fn: score}
	best, res, err := Search(TuneGrid(base), 3, f.eval, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.batches) < 2 {
		t.Fatalf("search never refined: %d batches", len(f.batches))
	}
	gridBest := 0.0
	for _, s := range f.batches[0] {
		if v := score(s); v > gridBest {
			gridBest = v
		}
	}
	if res.Speedup <= gridBest {
		t.Errorf("refinement did not improve: final %.3f, grid best %.3f (winner %s)",
			res.Speedup, gridBest, policyLabel(best))
	}
	if best.Policy.PersistentRetry != 1 {
		t.Errorf("search missed the persistent=1 valley: %s", policyLabel(best))
	}
	if *res.Spec.Policy != *best.Policy {
		t.Errorf("Search returned a result of %s for winner %s", policyLabel(res.Spec), policyLabel(best))
	}
}

// TestSearchDeduplicates checks no point is measured twice even when
// neighbour moves revisit grid points.
func TestSearchDeduplicates(t *testing.T) {
	base := RunSpec{Platform: platform.ZEC12, Benchmark: "yada", Threads: 4}
	f := &fakeEval{fn: func(s RunSpec) float64 {
		return float64(s.Policy.LockRetry) // monotone: walks toward the clamp
	}}
	if _, _, err := Search(TuneGrid(base), 5, f.eval, nil); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, b := range f.batches {
		for _, s := range b {
			k := fmt.Sprintf("%+v/%v/%d", *s.Policy, s.Mode, s.ChunkStep1)
			if seen[k]++; seen[k] == 2 {
				t.Errorf("point %s measured twice", k)
			}
		}
	}
	if len(f.batches) < 2 {
		t.Errorf("the monotone objective refined in %d batches, want several", len(f.batches))
	}
}

// TestSearchRoundsBound checks rounds bounds the refinement: rounds=0
// evaluates only the grid. Among equal trials the first wins.
func TestSearchRoundsBound(t *testing.T) {
	base := RunSpec{Platform: platform.POWER8, Benchmark: "yada", Threads: 4}
	f := &fakeEval{fn: func(s RunSpec) float64 { return float64(s.Policy.LockRetry) }}
	if _, _, err := Search(TuneGrid(base), 0, f.eval, nil); err != nil {
		t.Fatal(err)
	}
	if len(f.batches) != 1 {
		t.Errorf("rounds=0 ran %d batches, want 1", len(f.batches))
	}
	grid := TuneGrid(base)
	flat := &fakeEval{fn: func(RunSpec) float64 { return 1 }}
	best, _, err := Search(grid, 2, flat.eval, nil)
	if err != nil {
		t.Fatal(err)
	}
	if *best.Policy != *grid[0].Policy {
		t.Errorf("equal trials: winner %s, want the first, %s", policyLabel(best), policyLabel(grid[0]))
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
