package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"htmcmp/internal/harness"
	"htmcmp/internal/harness/sweep"
	"htmcmp/internal/htm"
	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
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
// cell, -threads 0 to print "with 0 threads" and measure 4, -seed 0 to run
// seed 42.
func TestUsageErrorsExitBeforeSideEffects(t *testing.T) {
	for _, args := range [][]string{
		{"-threads", "0"},
		{"-threads", "300"},
		{"-rounds", "-1"},
		{"-repeats", "0"},
		{"-jobs", "0"},
		{"-bench", "nosuch"},
		{"-platform", "sparc"},
		{"-scale", "huge"},
		{"-seed", "0"},
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
	opts := harness.Options{Scale: stamp.ScaleTest, Seed: 42, Repeats: 2}
	for _, k := range platform.Kinds() {
		cands := lattice(opts.Point(k, "vacation-low", 4, stamp.Modified))
		if len(cands) < 8 {
			t.Errorf("%v: only %d coarse candidates", k, len(cands))
		}
		for _, c := range cands {
			if c.ChunkStep1 != 0 {
				t.Errorf("%v: non-genome candidate has chunk %d", k, c.ChunkStep1)
			}
		}
		var chunks [2]int
		for _, c := range lattice(opts.Point(k, "genome", 4, stamp.Modified)) {
			switch c.ChunkStep1 {
			case 2:
				chunks[0]++
			case 9:
				chunks[1]++
			default:
				t.Errorf("%v: genome candidate has chunk %d", k, c.ChunkStep1)
			}
		}
		if chunks[0] == 0 || chunks[0] > chunks[1] {
			t.Errorf("%v: genome lattice has %d chunk-2 and %d chunk-9 candidates", k, chunks[0], chunks[1])
		}
	}
	// BGQ candidates must keep mode and lazy subscription consistent.
	for _, c := range lattice(opts.Point(platform.BlueGeneQ, "yada", 4, stamp.Modified)) {
		if c.Policy.LazySubscription != (c.Mode == platform.LongRunning) {
			t.Errorf("bgq candidate %q: LazySubscription=%v under mode %v",
				label(c), c.Policy.LazySubscription, c.Mode)
		}
	}
}

// TestCandidateSpec checks the trial instantiation: single repeat, policy
// pinned, base fields preserved.
func TestCandidateSpec(t *testing.T) {
	base := harness.Options{Scale: stamp.ScaleSim, Seed: 7, Repeats: 4}.Point(platform.ZEC12, "yada", 4, stamp.Modified)
	for _, s := range lattice(base) {
		if s.Repeats != 1 {
			t.Errorf("%s: trial repeats = %d, want 1", label(s), s.Repeats)
		}
		if s.Policy == nil {
			t.Fatalf("trial has no policy: %+v", s)
		}
		if s.Platform != base.Platform || s.Benchmark != base.Benchmark ||
			s.Threads != base.Threads || s.Seed != base.Seed || s.CostScale != base.CostScale {
			t.Errorf("%s: trial lost base fields: %+v", label(s), s)
		}
	}
}

// TestUsesExperimentCells: htmtune searches from the experiments' own
// untuned point, so its default and adaptive comparison runs are cells that
// htmbench -exp adaptive already banks, and its round 0 measures every
// trial htmbench -tune does.
func TestUsesExperimentCells(t *testing.T) {
	opts := harness.Options{Scale: stamp.ScaleTest, Seed: 42, Repeats: 2}
	plan := sweep.NewPlan()
	withPlan := opts
	withPlan.Exec = plan
	if _, err := harness.AdaptiveComparison(withPlan); err != nil {
		t.Fatal(err)
	}
	planned := map[string]bool{}
	for _, c := range plan.Cells() {
		planned[cellKey(t, c.Spec)] = true
	}
	for _, bench := range harness.AdaptiveBenches {
		for _, k := range platform.Kinds() {
			base := searchBase(k, bench, 4, opts.Scale, opts.Seed, opts.Repeats)
			specs := comparisonSpecs(base, lattice(base)[0])
			for _, i := range []int{0, 2} {
				if !planned[cellKey(t, specs[i])] {
					t.Errorf("%s: comparison run %s is not a cell of -exp adaptive", base.Label(), specs[i].Label())
				}
			}
		}
	}
	for _, k := range platform.Kinds() {
		for _, bench := range []string{"genome", "vacation-low"} {
			base := searchBase(k, bench, 4, opts.Scale, opts.Seed, opts.Repeats)
			have := map[string]bool{}
			for _, s := range lattice(base) {
				have[cellKey(t, s)] = true
			}
			for _, s := range harness.TuneGrid(base) {
				if !have[cellKey(t, s)] {
					t.Errorf("%s: the lattice misses -tune's trial %s", base.Label(), label(s))
				}
			}
		}
	}
}

// cellKey is the cache key under which schedulerEval measures spec.
func cellKey(t *testing.T, spec harness.RunSpec) string {
	t.Helper()
	key, err := sweep.Cell{Kind: sweep.Measure, Spec: spec}.Key()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestComparisonSpecs pins the final report's three runs: default, tuned
// winner at full repeats, adaptive.
func TestComparisonSpecs(t *testing.T) {
	base := harness.Options{Repeats: 3}.Point(platform.BlueGeneQ, "labyrinth", 4, stamp.Modified)
	best := lattice(base)[3]
	specs := comparisonSpecs(base, best)
	if len(specs) != 3 {
		t.Fatalf("comparisonSpecs returned %d specs, want 3", len(specs))
	}
	def, win, ad := specs[0], specs[1], specs[2]
	if def.Policy != nil || def.Adaptive || def.Mode != platform.LongRunning {
		t.Errorf("default spec is not the experiments' untuned point: %+v", def)
	}
	if win.Policy == nil || *win.Policy != *best.Policy || win.Mode != best.Mode {
		t.Errorf("winner spec = %+v, want the trial %s", win, label(best))
	}
	if win.Repeats != base.Repeats || best.Repeats != 1 {
		t.Errorf("winner repeats = %d (trial %d), want %d (trial 1)", win.Repeats, best.Repeats, base.Repeats)
	}
	if !ad.Adaptive || ad.Policy != nil || ad.Mode != def.Mode {
		t.Errorf("adaptive spec misconfigured: %+v", ad)
	}
	for _, s := range specs {
		if s.Benchmark != base.Benchmark || s.Threads != base.Threads {
			t.Errorf("comparison spec lost base fields: %+v", s)
		}
	}
}
