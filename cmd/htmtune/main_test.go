package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"htmcmp/internal/harness"
	"htmcmp/internal/htm"
	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
	"htmcmp/internal/tm"
)

func TestParsePlatform(t *testing.T) {
	cases := []struct {
		in   string
		want platform.Kind
		ok   bool
	}{
		{"bgq", platform.BlueGeneQ, true},
		{"bg", platform.BlueGeneQ, true},
		{"bluegeneq", platform.BlueGeneQ, true},
		{"zec12", platform.ZEC12, true},
		{"z", platform.ZEC12, true},
		{"intel", platform.IntelCore, true},
		{"core", platform.IntelCore, true},
		{"power8", platform.POWER8, true},
		{"p8", platform.POWER8, true},
		{"sparc", 0, false},
		{"", 0, false},
	}
	for _, tc := range cases {
		got, err := platform.ParseKind(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("platform.ParseKind(%q) error = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("platform.ParseKind(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestParseScale(t *testing.T) {
	for in, want := range map[string]stamp.Scale{
		"test": stamp.ScaleTest, "sim": stamp.ScaleSim, "full": stamp.ScaleFull,
	} {
		got, err := stamp.ParseScale(in)
		if err != nil || got != want {
			t.Errorf("stamp.ParseScale(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := stamp.ParseScale("huge"); err == nil {
		t.Error("ParseScale accepted an unknown scale")
	}
}

// TestCheckCounts: -repeats, -jobs and -threads below 1, -threads above the
// engine's maximum and a negative -rounds are usage errors that name the
// flag, not a silent fall back to the default or a panic inside a cell.
func TestCheckCounts(t *testing.T) {
	for _, tc := range []struct {
		repeats, jobs, threads, rounds int
		want                           string
	}{
		{1, 1, 1, 0, ""}, {2, 8, 4, 2, ""}, {1, 1, htm.MaxThreads, 1, ""},
		{0, 1, 4, 2, "-repeats"}, {-1, 1, 4, 2, "-repeats"},
		{1, 0, 4, 2, "-jobs"}, {1, -3, 4, 2, "-jobs"},
		{1, 1, 0, 2, "-threads"}, {1, 1, -2, 2, "-threads"}, {1, 1, htm.MaxThreads + 1, 2, "-threads"},
		{1, 1, 4, -1, "-rounds"},
	} {
		err := checkCounts(tc.repeats, tc.jobs, tc.threads, tc.rounds)
		if (err == nil) != (tc.want == "") || err != nil && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("checkCounts(%d, %d, %d, %d) = %v, want an error naming %q",
				tc.repeats, tc.jobs, tc.threads, tc.rounds, err, tc.want)
		}
	}
}

// TestMain doubles as the htmtune binary: with HTMTUNE_TEST_MAIN set, it
// runs main with its arguments as the flags.
func TestMain(m *testing.M) {
	if os.Getenv("HTMTUNE_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUsageErrorsExitBeforeSideEffects: a flag value htmtune cannot use is
// one htmtune: line on stderr and exit status 2, with nothing on stdout and
// no cache directory created. -threads 300 used to panic inside a sweep
// cell, -threads 0 to print "with 0 threads" and measure 4.
func TestUsageErrorsExitBeforeSideEffects(t *testing.T) {
	for _, args := range [][]string{
		{"-threads", "0"},
		{"-threads", "300"},
		{"-rounds", "-1"},
		{"-repeats", "0"},
		{"-jobs", "0"},
	} {
		dir := t.TempDir()
		cmd := exec.Command(os.Args[0], args...)
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "HTMTUNE_TEST_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("htmtune %v: %v, want exit status 2\nstderr: %s", args, err, stderr.String())
		}
		if msg := stderr.String(); strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "htmtune: "+args[0]) {
			t.Errorf("htmtune %v: stderr %q, want one htmtune: line naming %s", args, msg, args[0])
		}
		if stdout.Len() != 0 {
			t.Errorf("htmtune %v printed to stdout: %q", args, stdout.String())
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("htmtune %v left %d entries behind, first %s", args, len(left), left[0].Name())
		}
	}
}

func TestSearchSpace(t *testing.T) {
	for _, k := range platform.Kinds() {
		cands := searchSpace(k, "vacation-low")
		if len(cands) < 8 {
			t.Errorf("%v: only %d coarse candidates", k, len(cands))
		}
		seen := map[string]bool{}
		for _, c := range cands {
			l := c.label(k)
			if seen[l] {
				t.Errorf("%v: duplicate candidate %q", k, l)
			}
			seen[l] = true
			if c.chunk != 0 {
				t.Errorf("%v: non-genome candidate has chunk %d", k, c.chunk)
			}
		}
		genome := searchSpace(k, "genome")
		if len(genome) != 2*len(cands) {
			t.Errorf("%v: genome lattice has %d candidates, want %d", k, len(genome), 2*len(cands))
		}
	}
	// BGQ candidates must keep mode and lazy subscription consistent.
	for _, c := range searchSpace(platform.BlueGeneQ, "yada") {
		if c.policy.LazySubscription != (c.mode == platform.LongRunning) {
			t.Errorf("bgq candidate %q: LazySubscription=%v under mode %v",
				c.label(platform.BlueGeneQ), c.policy.LazySubscription, c.mode)
		}
	}
}

// TestNeighbors pins the refinement moves: halved/doubled counters within
// clamps, no self-moves, mode flip on Blue Gene/Q.
func TestNeighbors(t *testing.T) {
	c := candidate{policy: tm.Policy{LockRetry: 8, PersistentRetry: 2, TransientRetry: 8}}
	ns := neighbors(c, platform.IntelCore)
	if len(ns) != 6 {
		t.Fatalf("interior point has %d neighbours, want 6", len(ns))
	}
	want := map[string]bool{
		"lock=4 persistent=2 transient=8":  true,
		"lock=16 persistent=2 transient=8": true,
		"lock=8 persistent=1 transient=8":  true,
		"lock=8 persistent=4 transient=8":  true,
		"lock=8 persistent=2 transient=4":  true,
		"lock=8 persistent=2 transient=16": true,
	}
	for _, n := range ns {
		if !want[n.label(platform.IntelCore)] {
			t.Errorf("unexpected neighbour %q", n.label(platform.IntelCore))
		}
	}

	// At the clamps, moves outside the range are dropped.
	edge := candidate{policy: tm.Policy{LockRetry: 1, PersistentRetry: maxPersistRetry, TransientRetry: maxTransientRetry}}
	for _, n := range neighbors(edge, platform.IntelCore) {
		p := n.policy
		if p.LockRetry < 1 || p.LockRetry > maxLockRetry ||
			p.PersistentRetry < 1 || p.PersistentRetry > maxPersistRetry ||
			p.TransientRetry < 1 || p.TransientRetry > maxTransientRetry {
			t.Errorf("neighbour %q escapes the clamps", n.label(platform.IntelCore))
		}
	}

	bgq := candidate{mode: platform.ShortRunning, policy: tm.Policy{TransientRetry: 8}}
	bns := neighbors(bgq, platform.BlueGeneQ)
	if len(bns) != 3 {
		t.Fatalf("bgq neighbours = %d, want 3 (half, double, mode flip)", len(bns))
	}
	flips := 0
	for _, n := range bns {
		if n.mode == platform.LongRunning {
			flips++
			if !n.policy.LazySubscription {
				t.Error("mode flip did not update LazySubscription")
			}
		}
	}
	if flips != 1 {
		t.Errorf("bgq neighbours contain %d mode flips, want 1", flips)
	}
}

// TestCandidateSpec checks the trial instantiation: single repeat, policy
// pinned, base fields preserved.
func TestCandidateSpec(t *testing.T) {
	base := harness.RunSpec{
		Platform: platform.ZEC12, Benchmark: "yada", Threads: 4,
		Scale: stamp.ScaleSim, Seed: 7, Repeats: 4,
	}
	c := candidate{policy: tm.Policy{LockRetry: 2, PersistentRetry: 1, TransientRetry: 4}}
	s := c.spec(base)
	if s.Repeats != 1 {
		t.Errorf("trial repeats = %d, want 1", s.Repeats)
	}
	if s.Policy == nil || *s.Policy != c.policy {
		t.Errorf("trial policy = %+v, want %+v", s.Policy, c.policy)
	}
	if s.Platform != base.Platform || s.Benchmark != base.Benchmark ||
		s.Threads != base.Threads || s.Seed != base.Seed {
		t.Errorf("trial lost base fields: %+v", s)
	}
}

// fakeEval returns a synthetic speedup per spec through fn and records every
// batch it served.
type fakeEval struct {
	batches [][]harness.RunSpec
	fn      func(harness.RunSpec) float64
}

func (f *fakeEval) eval(specs []harness.RunSpec) ([]harness.Result, error) {
	f.batches = append(f.batches, specs)
	out := make([]harness.Result, len(specs))
	for i, s := range specs {
		out[i] = harness.Result{Spec: s, Speedup: f.fn(s)}
	}
	return out, nil
}

// TestRunSearchConverges drives the search against a synthetic objective
// with a unique optimum and checks the refinement walks toward it: the
// winner must strictly improve on the best coarse-lattice point.
func TestRunSearchConverges(t *testing.T) {
	base := harness.RunSpec{
		Platform: platform.IntelCore, Benchmark: "yada", Threads: 4,
		Scale: stamp.ScaleSim, Seed: 42, Repeats: 2,
	}
	// Optimum at lock=16, persistent=1, transient=64 — outside the coarse
	// lattice on two axes, reachable by doubling moves.
	score := func(s harness.RunSpec) float64 {
		p := s.Policy
		d := abs(p.LockRetry-16) + 4*abs(p.PersistentRetry-1) + abs(p.TransientRetry-64)/8
		return 10.0 / float64(1+d)
	}
	f := &fakeEval{fn: score}
	best, res, err := runSearch(base, platform.IntelCore, "yada", 3, f.eval, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.batches) < 2 {
		t.Fatalf("search never refined: %d batches", len(f.batches))
	}
	coarseBest := 0.0
	for _, s := range f.batches[0] {
		if v := score(s); v > coarseBest {
			coarseBest = v
		}
	}
	if res.Speedup <= coarseBest {
		t.Errorf("refinement did not improve: final %.3f, coarse best %.3f (winner %s)",
			res.Speedup, coarseBest, best.label(platform.IntelCore))
	}
	if best.policy.PersistentRetry != 1 {
		t.Errorf("search missed the persistent=1 valley: %s", best.label(platform.IntelCore))
	}
}

// TestRunSearchDeduplicates checks no candidate is measured twice even when
// neighbour moves revisit lattice points.
func TestRunSearchDeduplicates(t *testing.T) {
	base := harness.RunSpec{Platform: platform.ZEC12, Benchmark: "yada", Threads: 4}
	f := &fakeEval{fn: func(s harness.RunSpec) float64 {
		return float64(s.Policy.LockRetry) // monotone: walks toward the clamp
	}}
	_, _, err := runSearch(base, platform.ZEC12, "yada", 5, f.eval, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, b := range f.batches {
		for _, s := range b {
			k := fmt.Sprintf("%+v/%v/%d", *s.Policy, s.Mode, s.ChunkStep1)
			seen[k]++
		}
	}
	for k, n := range seen {
		if n > 1 {
			t.Errorf("candidate %s measured %d times", k, n)
		}
	}
}

// TestRunSearchRoundsBound checks -rounds bounds the refinement: rounds=0
// evaluates only the coarse lattice.
func TestRunSearchRoundsBound(t *testing.T) {
	base := harness.RunSpec{Platform: platform.POWER8, Benchmark: "yada", Threads: 4}
	f := &fakeEval{fn: func(s harness.RunSpec) float64 { return float64(s.Policy.LockRetry) }}
	_, _, err := runSearch(base, platform.POWER8, "yada", 0, f.eval, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.batches) != 1 {
		t.Errorf("rounds=0 ran %d batches, want 1", len(f.batches))
	}
}

// TestComparisonSpecs pins the final report's three runs: default, tuned
// winner at full repeats, adaptive.
func TestComparisonSpecs(t *testing.T) {
	base := harness.RunSpec{
		Platform: platform.POWER8, Benchmark: "labyrinth", Threads: 4, Repeats: 3,
	}
	best := candidate{policy: tm.Policy{LockRetry: 4, PersistentRetry: 1, TransientRetry: 16}}
	specs := comparisonSpecs(base, best)
	if len(specs) != 3 {
		t.Fatalf("comparisonSpecs returned %d specs, want 3", len(specs))
	}
	def, win, ad := specs[0], specs[1], specs[2]
	if def.Policy != nil || def.Adaptive {
		t.Errorf("default spec is not the plain baseline: %+v", def)
	}
	if win.Policy == nil || *win.Policy != best.policy {
		t.Errorf("winner spec policy = %+v, want %+v", win.Policy, best.policy)
	}
	if win.Repeats != base.Repeats {
		t.Errorf("winner repeats = %d, want %d (trial used 1)", win.Repeats, base.Repeats)
	}
	if !ad.Adaptive || ad.Policy != nil {
		t.Errorf("adaptive spec misconfigured: %+v", ad)
	}
	for _, s := range specs {
		if s.Benchmark != base.Benchmark || s.Threads != base.Threads {
			t.Errorf("comparison spec lost base fields: %+v", s)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
