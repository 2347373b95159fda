package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"

	"htmcmp/internal/cache"
	"htmcmp/internal/features"
	"htmcmp/internal/harness"
	"htmcmp/internal/harness/sweep"
	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
)

// TestReconcileTraceResume pins the -trace-dir / -resume interaction:
// tracing needs every cell to execute, so a trace dir must force resume off
// with a warning; every other combination passes through silently.
func TestReconcileTraceResume(t *testing.T) {
	cases := []struct {
		name       string
		traceDir   string
		resume     bool
		wantResume bool
		wantWarn   bool
	}{
		{"no trace, resume on", "", true, true, false},
		{"no trace, resume off", "", false, false, false},
		{"trace forces resume off", "traces", true, false, true},
		{"trace, resume already off", "traces", false, false, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var buf strings.Builder
			got := reconcileTraceResume(tc.traceDir, tc.resume, &buf)
			if got != tc.wantResume {
				t.Errorf("effective resume = %v, want %v", got, tc.wantResume)
			}
			warned := buf.Len() > 0
			if warned != tc.wantWarn {
				t.Errorf("warning emitted = %v, want %v (output %q)", warned, tc.wantWarn, buf.String())
			}
			if tc.wantWarn && !strings.Contains(buf.String(), "-trace-dir forces -resume=false") {
				t.Errorf("warning does not name the flags: %q", buf.String())
			}
		})
	}
}

// TestVerifyCells exercises the -verify pass over a small planned cell set:
// duplicate configurations verify once and cells without a RunSpec
// (footprints, Figure 6 / Figure 9 engine runs) are skipped.
func TestVerifyCells(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmark cells")
	}
	spec := harness.RunSpec{
		Platform: platform.IntelCore, Benchmark: "ssca2", Threads: 2,
		Scale: stamp.ScaleTest, Seed: 42, Repeats: 1,
	}
	cells := []sweep.Cell{
		{Kind: sweep.Measure, Spec: spec},
		{Kind: sweep.Measure, Spec: spec}, // duplicate: verified once
		{Kind: sweep.Footprint, Bench: "ssca2", Platform: platform.IntelCore},
		{Kind: sweep.CLQRun, CLQ: &features.CLQPoint{Threads: 1}},
		{Kind: sweep.TLSRun, TLS: &features.TLSPoint{Threads: 1}},
	}
	var buf strings.Builder
	n, err := verifyCells(cells, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("verified %d cells, want 1 (dedupe + cells without a RunSpec skipped)", n)
	}
	if got := strings.Count(buf.String(), "verify ssca2"); got != 1 {
		t.Errorf("progress logged %d times, want 1:\n%s", got, buf.String())
	}
}

var update = flag.Bool("update", false, "rewrite testdata/results_test.golden from this tree's output")

// mustExpand is expandExp for names the test knows are valid.
func mustExpand(t *testing.T, exp string) []string {
	t.Helper()
	names, err := expandExp(exp)
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestPlanCellCounts: every name in experiments plans, so the list and
// runExperiment agree, and every one but the static table1 decomposes into
// cells — Figure 6 into its 20 points, Figure 9 into 26. "all" plans the
// inAll experiments, whose shared cells deduplicate to 379.
func TestPlanCellCounts(t *testing.T) {
	opts := harness.Options{Scale: stamp.ScaleTest, Repeats: 2, Seed: 42}
	want := map[string]int{"table1": 0, "fig6": 20, "fig9": 26, "fig2+3": 40, "all": 379}
	for _, exp := range expNames() {
		plan, err := planCells(mustExpand(t, exp), opts, false)
		if err != nil {
			t.Fatal(err)
		}
		got := len(plan.Cells())
		if n, pinned := want[exp]; pinned && got != n {
			t.Errorf("-exp %s plans %d cells, want %d", exp, got, n)
		}
		if got == 0 && exp != "table1" {
			t.Errorf("-exp %s plans no cells", exp)
		}
	}
	if _, err := expandExp("fig2,fig3"); err == nil || !strings.Contains(err.Error(), "one of: table1, fig2, ") {
		t.Errorf("expandExp of a comma list: err = %v, want the valid names listed", err)
	}
}

// TestMain lets the test binary stand in for htmbench: re-executed with
// HTMBENCH_TEST_MAIN set, it runs main with its arguments as the flags.
func TestMain(m *testing.M) {
	if os.Getenv("HTMBENCH_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain re-executes the test binary as htmbench (see TestMain) with args in
// an empty working directory, and returns that directory, what the run wrote
// and how it ended.
func runMain(t *testing.T, args ...string) (dir, stdout, stderr string, err error) {
	t.Helper()
	dir = t.TempDir()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "HTMBENCH_TEST_MAIN=1")
	var out, errw bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errw
	err = cmd.Run()
	return dir, out.String(), errw.String(), err
}

// TestUsageErrorsExitBeforeSideEffects: a flag value htmbench cannot use is
// one line on stderr and exit status 2, with nothing printed to stdout and
// no cache directory created. -repeats and -jobs below 1 and a negative
// -cell-timeout used to run as if the default had been given, and -seed 0
// printed seed 42's tables. A
// flag that no longer exists (-http, with the live-telemetry stack) gets the
// flag package's own message and usage text, to the same standard.
func TestUsageErrorsExitBeforeSideEffects(t *testing.T) {
	const undefined = "flag provided but not defined: "
	for _, args := range [][]string{
		{"-exp", "bogus"},
		{"-scale", "tiny"},
		{"-repeats", "0"},
		{"-repeats", "-1"},
		{"-jobs", "0"},
		{"-jobs", "-3"},
		{"-cell-timeout", "-5s"},
		{"-seed", "0"},
		{"-http", ":0"},
	} {
		dir, stdout, msg, err := runMain(t, args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("htmbench %v: %v, want exit status 2\nstderr: %s", args, err, msg)
		}
		if args[0] == "-http" {
			if !strings.HasPrefix(msg, undefined+"-http\n") {
				t.Errorf("htmbench %v: stderr %q, want %q first", args, msg, undefined+"-http")
			}
		} else if strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "htmbench: ") {
			t.Errorf("htmbench %v: stderr %q, want one htmbench: line", args, msg)
		}
		if stdout != "" {
			t.Errorf("htmbench %v printed to stdout: %q", args, stdout)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("htmbench %v left %d entries behind, first %s", args, len(left), left[0].Name())
		}
	}
}

// TestREADMECommands: every htmbench command line in README.md,
// EXPERIMENTS.md and the Makefile names only flags htmbench defines (as its
// -h lists them) and only -scale / -exp values that parse. README's
// live-telemetry walkthrough ran `-scale small`, which has never parsed, for
// sixteen PRs.
func TestREADMECommands(t *testing.T) {
	_, _, usage, err := runMain(t, "-h")
	if err != nil {
		t.Fatalf("htmbench -h: %v\n%s", err, usage)
	}
	defined := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(usage, -1) {
		defined[m[1]] = true
	}
	if !defined["exp"] || !defined["scale"] {
		t.Fatalf("htmbench -h lists no -exp or -scale:\n%s", usage)
	}
	command := regexp.MustCompile(`^(?:go run \./cmd/htmbench|\./\$\(BIN\)/htmbench)\s(.*)`)
	commands := 0
	for _, file := range []string{"../../README.md", "../../EXPERIMENTS.md", "../../Makefile"} {
		text, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		joined := strings.ReplaceAll(string(text), "\\\n", " ")
		for _, line := range strings.Split(joined, "\n") {
			line = strings.TrimSpace(line)
			m := command.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			commands++
			args, _, _ := strings.Cut(m[1], " #")
			words := strings.Fields(args)
			for i, w := range words {
				if !strings.HasPrefix(w, "-") {
					continue
				}
				name, value, hasValue := strings.Cut(strings.TrimLeft(w, "-"), "=")
				if !defined[name] {
					t.Errorf("%s: `%s`: htmbench defines no -%s", file, line, name)
					continue
				}
				if !hasValue && i+1 < len(words) {
					value = words[i+1]
				}
				var bad error
				switch name {
				case "scale":
					_, bad = stamp.ParseScale(value)
				case "exp":
					_, bad = expandExp(value)
				}
				if bad != nil {
					t.Errorf("%s: `%s`: %v", file, line, bad)
				}
			}
		}
	}
	if commands < 20 {
		t.Errorf("found %d htmbench command lines in README.md, EXPERIMENTS.md and the Makefile, want the 20 and more there are: the pattern has rotted", commands)
	}
}

// TestResultsGolden pins every rendered table: `htmbench -exp all -scale
// test -seed 42 -repeats 2` through the CLI's own plan, sweep and render
// passes must reproduce testdata/results_test.golden byte for byte. Virtual
// time is deterministic, so any difference is a changed simulation (or a
// changed table layout), never noise; fig6 and fig9 are pinned nowhere else.
// It runs twice over one cache directory: the cold pass computes every cell,
// the warm pass must render the same bytes having simulated nothing — every
// number the CLI prints comes from a cell, and a cell from its record.
// After an intended change, rerun with -update and review the diff.
func TestResultsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole test-scale sweep")
	}
	const golden = "testdata/results_test.golden"
	const cells = 379
	const regions = 667 // 1,324 if every cell simulated all of its own
	names := mustExpand(t, "all")
	opts := harness.Options{Scale: stamp.ScaleTest, Repeats: 2, Seed: 42}
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range []string{"cold", "warm"} {
		plan, err := planCells(names, opts, false)
		if err != nil {
			t.Fatal(err)
		}
		sched := sweep.New(sweep.Config{Cache: store, Resume: true})
		sum := sched.Prewarm(plan.Cells())
		if sum.Failed != 0 || sum.Cells != cells {
			t.Fatalf("%s sweep: %s, want %d cells and none failed", pass, sum, cells)
		}
		if pass == "cold" && (sum.Computed != cells || sum.Regions != regions) ||
			pass == "warm" && (sum.Computed != 0 || sum.Cached != cells || sum.Regions != 0) {
			t.Fatalf("%s sweep: %s", pass, sum)
		}
		var got bytes.Buffer
		if err := renderTables(names, opts, sched, &got, false); err != nil {
			t.Fatal(err)
		}
		// Read after the render pass: a cell the plan missed would have been
		// computed inline by it.
		computed := sched.Registry().Counter("sweep_cells_computed_total").Value()
		begins := sched.Registry().Counter("htm_tx_begins_total").Value()
		if pass == "cold" && (computed != cells || begins == 0) || pass == "warm" && (computed != 0 || begins != 0) {
			t.Errorf("%s pass, prewarm and render: %d cells computed, %d transactions begun", pass, computed, begins)
		}
		if *update {
			if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("%s pass: rendered tables differ from %s at line %d:\n got %q\nwant %q", pass, golden, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("%s pass: rendered tables differ from %s in length: %d lines, want %d", pass, golden, len(gl), len(wl))
		}
	}
}

// TestSweepRegionCounts pins how many engine regions a sweep simulates: each
// distinct sequential baseline and parallel repeat once, however many cells
// share it, and none on a warm pass. adaptive's default, tuned and adaptive
// cells share baselines, and its default cells are tuning trials off BG/Q
// (344 regions if every cell simulated its own). fig2+3's 80 parallel
// repeats are distinct, and its 80 sequential baselines are 22, one per
// workload (benchmark, repeat seed and genome chunk) whatever the platform.
func TestSweepRegionCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two test-scale sweeps")
	}
	opts := harness.Options{Scale: stamp.ScaleTest, Repeats: 2, Seed: 42}
	for _, tc := range []struct {
		exp     string
		regions int
	}{{"adaptive", 151}, {"fig2+3", 102}} {
		plan, err := planCells(mustExpand(t, tc.exp), opts, false)
		if err != nil {
			t.Fatal(err)
		}
		store, err := cache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, pass := range []struct {
			name    string
			regions int
		}{{"cold", tc.regions}, {"warm", 0}} {
			sum := sweep.New(sweep.Config{Cache: store, Resume: true}).Prewarm(plan.Cells())
			if sum.Failed != 0 || sum.Regions != pass.regions {
				t.Errorf("-exp %s, %s pass: %s, want regions=%d and none failed", tc.exp, pass.name, sum, pass.regions)
			}
		}
	}
}

// resultsDigests maps every sweep.ResultsVersion to the sha256 of
// testdata/results_test.golden, ../../results_sim.txt and internal/tm's
// golden determinism rows (../../internal/tm/testdata/golden.txt), in that
// order, under it.
var resultsDigests = map[string]string{
	"htmcmp-results-v1": "fcde03dd86a0e703196450a80cbb5f2e5fe7067ae33758919e851a60646db3dc",
}

// TestResultsVersionPinsGolden ties a moved rendered byte to a ResultsVersion
// bump. Cached records are keyed by the version, so a simulation change that
// moves a table but keeps the version would serve stale records. After an
// intended table change (TestResultsGolden -update, make results-sim, new
// internal/tm golden rows), bump
// sweep.ResultsVersion and add its digest here. A bump that moves no byte
// fails too: it would flush every cache for nothing.
func TestResultsVersionPinsGolden(t *testing.T) {
	h := sha256.New()
	for _, path := range []string{"testdata/results_test.golden", "../../results_sim.txt", "../../internal/tm/testdata/golden.txt"} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
	}
	got := hex.EncodeToString(h.Sum(nil))
	seen := map[string]string{}
	for version, digest := range resultsDigests {
		if other, dup := seen[digest]; dup {
			t.Errorf("%s and %s pin the same tables: a version bump must move a rendered byte", other, version)
		}
		seen[digest] = version
	}
	want, ok := resultsDigests[sweep.ResultsVersion]
	switch {
	case !ok:
		t.Errorf("sweep.ResultsVersion %q has no digest; add %q: %s", sweep.ResultsVersion, sweep.ResultsVersion, got)
	case got != want:
		if v, old := seen[got]; old {
			t.Errorf("the tables are those of %s, but sweep.ResultsVersion is %q", v, sweep.ResultsVersion)
		} else {
			t.Errorf("the tables moved (digest %s) but sweep.ResultsVersion is still %q, pinned to %s: bump it and add the new digest", got, sweep.ResultsVersion, want)
		}
	}
}
