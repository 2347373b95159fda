package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
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
// -cell-timeout used to run as if the default had been given, -seed 0
// printed seed 42's tables, and -chaos-report without -chaos ran the whole
// sweep to report nothing. An output file that cannot be created is exit
// status 1, to the same standard: -metrics and -memprofile used to run the
// whole sweep, then print the error and exit 0, and an output that failed
// after another was created left the first behind, empty. So is a
// -trace-dir that cannot be made, before the cache directory is. A flag
// that no longer exists (-http, with the live-telemetry stack) gets the
// flag package's own message and usage text, to the same standard.
func TestUsageErrorsExitBeforeSideEffects(t *testing.T) {
	const undefined = "flag provided but not defined: "
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-exp", "bogus"}, 2},
		{[]string{"-scale", "tiny"}, 2},
		{[]string{"-repeats", "0"}, 2},
		{[]string{"-repeats", "-1"}, 2},
		{[]string{"-jobs", "0"}, 2},
		{[]string{"-jobs", "-3"}, 2},
		{[]string{"-cell-timeout", "-5s"}, 2},
		{[]string{"-seed", "0"}, 2},
		{[]string{"-chaos-report", "report.json"}, 2},
		{[]string{"-http", ":0"}, 2},
		{[]string{"-metrics", "no-such-dir/metrics.json"}, 1},
		{[]string{"-memprofile", "no-such-dir/heap.pprof"}, 1},
		{[]string{"-cpuprofile", "no-such-dir/cpu.pprof"}, 1},
		{[]string{"-chaos", "-chaos-report", "no-such-dir/report.json"}, 1},
		{[]string{"-cpuprofile", "cpu.pprof", "-metrics", "no-such-dir/metrics.json"}, 1},
		{[]string{"-trace-dir", "/dev/null/traces"}, 1},
	} {
		args := tc.args
		dir, stdout, msg, err := runMain(t, args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != tc.code {
			t.Errorf("htmbench %v: %v, want exit status %d\nstderr: %s", args, err, tc.code, msg)
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

// TestUnwritableOutputKeepsExistingFiles: when one output cannot be
// created, a file already at another output's path keeps its contents.
func TestUnwritableOutputKeepsExistingFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	if err := os.WriteFile(cpu, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-cpuprofile", "cpu.pprof", "-memprofile", "no-such-dir/heap.pprof")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "HTMBENCH_TEST_MAIN=1")
	var exit *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("an unwritable -memprofile: %v, want exit status 1", err)
	}
	if got, err := os.ReadFile(cpu); err != nil || string(got) != "keep" {
		t.Errorf("existing cpu.pprof now holds %q (%v), want %q", got, err, "keep")
	}
}

// TestFailedSweepWritesOutputs: a sweep whose cells fail exits 1 through the
// same path as a good one, so its CPU profile is complete, its heap profile
// written and its metrics count the failures. os.Exit used to skip the
// deferred profile writers, leaving a truncated CPU profile and no heap
// profile.
func TestFailedSweepWritesOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a test-scale sweep")
	}
	dir, _, msg, err := runMain(t, "-exp", "fig2+3", "-scale", "test", "-no-cache", "-progress=false",
		"-cell-timeout", "1ns", "-cpuprofile", "cpu.pprof", "-memprofile", "heap.pprof", "-metrics", "metrics.json")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(msg, "timed out") {
		t.Fatalf("a sweep of timed-out cells: %v, want exit status 1 naming a timeout\nstderr: %s", err, msg)
	}
	for _, name := range []string{"cpu.pprof", "heap.pprof"} {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		// A pprof profile is one gzip stream; a truncated one ends early.
		zr, err := gzip.NewReader(f)
		if err == nil {
			_, err = io.Copy(io.Discard, zr)
		}
		if err != nil {
			t.Errorf("%s is not a complete profile: %v", name, err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	var counters map[string]float64
	if err := json.Unmarshal(data, &counters); err != nil || counters["sweep_cells_failed_total"] == 0 {
		t.Errorf("metrics.json: sweep_cells_failed_total = %v (err %v), want the failures counted", counters["sweep_cells_failed_total"], err)
	}
}

// TestMetricsGolden pins the -metrics file byte for byte: `htmbench -exp
// fig2+3 -scale test -no-cache -metrics F` must write
// testdata/metrics_fig2+3.json, every series name, label, value and the
// two-space indent. Every `#   "name": value` line of README's -metrics
// walkthrough must be one of its lines.
func TestMetricsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a test-scale sweep")
	}
	const golden = "testdata/metrics_fig2+3.json"
	dir, _, msg, err := runMain(t, "-exp", "fig2+3", "-scale", "test", "-no-cache", "-progress=false", "-metrics", "metrics.json")
	if err != nil {
		t.Fatalf("htmbench: %v\nstderr: %s", err, msg)
	}
	got, err := os.ReadFile(filepath.Join(dir, "metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-metrics file differs from %s:\n got %s\nwant %s", golden, got, want)
	}
	lines := map[string]bool{}
	for _, l := range strings.Split(string(want), "\n") {
		lines[strings.TrimSuffix(strings.TrimSpace(l), ",")] = true
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	quoted := regexp.MustCompile(`(?m)^#\s+(".*": \d+),?$`).FindAllStringSubmatch(string(readme), -1)
	if len(quoted) == 0 {
		t.Fatal("README.md quotes no -metrics line: the pattern has rotted")
	}
	for _, m := range quoted {
		if !lines[m[1]] {
			t.Errorf("README.md quotes %s, which %s does not hold", m[1], golden)
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
// number the CLI prints comes from a cell, and a cell from its record. A
// third pass re-indents every record first, the form binaries wrote before
// records were compact: each must still hit, none be evicted.
// After an intended change, rerun with -update and review the diff.
func TestResultsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole test-scale sweep")
	}
	const golden = "testdata/results_test.golden"
	const cells = 379
	// 667 without budget families, 1,324 if every cell simulated all of its
	// own; a family member answers the other 34.
	const regions, served = 633, 34
	names := mustExpand(t, "all")
	opts := harness.Options{Scale: stamp.ScaleTest, Repeats: 2, Seed: 42}
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range []string{"cold", "warm", "indented"} {
		if pass == "indented" {
			indentRecords(t, store.Dir())
		}
		plan, err := planCells(names, opts, false)
		if err != nil {
			t.Fatal(err)
		}
		sched := sweep.New(sweep.Config{Cache: store, Resume: true})
		sum := sched.Prewarm(plan.Cells())
		if sum.Failed != 0 || sum.Cells != cells {
			t.Fatalf("%s sweep: %s, want %d cells and none failed", pass, sum, cells)
		}
		cold := pass == "cold"
		if cold && (sum.Computed != cells || sum.Regions != regions || sum.Served != served) ||
			!cold && (sum.Computed != 0 || sum.Cached != cells || sum.Evicted != 0 || sum.Regions != 0 || sum.Served != 0) {
			t.Fatalf("%s sweep: %s", pass, sum)
		}
		var got bytes.Buffer
		if err := renderTables(names, opts, sched, &got, false); err != nil {
			t.Fatal(err)
		}
		// Read after the render pass: a cell the plan missed would have been
		// computed inline by it.
		m := sched.Metrics()
		computed, begins := m["sweep_cells_computed_total"], m["htm_tx_begins_total"]
		if cold && (computed != cells || begins == 0) || !cold && (computed != 0 || begins != 0) {
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

// indentRecords rewrites every record under dir as json.Indent with a
// one-space indent, byte for byte what Put wrote before it wrote compact JSON.
func indentRecords(t *testing.T, dir string) {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var indented bytes.Buffer
		if err := json.Indent(&indented, data, "", " "); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		n++
		return os.WriteFile(path, indented.Bytes(), 0o644)
	})
	if err != nil || n == 0 {
		t.Fatalf("re-indenting the records under %s: %d records, err %v", dir, n, err)
	}
}

// TestSweepRegionCounts pins how many engine regions a sweep simulates: each
// distinct sequential baseline and parallel repeat once, however many cells
// share it, one per budget family class (harness.Regions), and none on a
// warm pass — at one worker and at four; served= counts the family members
// answered instead. adaptive's default, tuned and adaptive cells share
// baselines, its default cells are tuning trials off BG/Q, and trials whose
// persistent budget never ran out are served by one run (344 regions if
// every cell simulated its own, 151 without families). capacity's TMCAM
// sizes that never bind are one run per repeat (36 without families).
// fig2+3's 80 parallel repeats are distinct, and its 80 sequential
// baselines are 22, one per workload (benchmark, repeat seed and genome
// chunk) whatever the platform.
func TestSweepRegionCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs test-scale sweeps")
	}
	opts := harness.Options{Scale: stamp.ScaleTest, Repeats: 2, Seed: 42}
	for _, tc := range []struct {
		exp             string
		regions, served int
		jobs            []int
	}{{"adaptive", 138, 13, []int{1, 4}}, {"capacity", 15, 21, []int{1, 4}}, {"fig2+3", 102, 0, []int{0}}} {
		plan, err := planCells(mustExpand(t, tc.exp), opts, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, jobs := range tc.jobs {
			store, err := cache.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, pass := range []struct {
				name            string
				regions, served int
			}{{"cold", tc.regions, tc.served}, {"warm", 0, 0}} {
				sum := sweep.New(sweep.Config{Jobs: jobs, Cache: store, Resume: true}).Prewarm(plan.Cells())
				if sum.Failed != 0 || sum.Regions != pass.regions || sum.Served != pass.served {
					t.Errorf("-exp %s -jobs %d, %s pass: %s, want regions=%d served=%d and none failed",
						tc.exp, jobs, pass.name, sum, pass.regions, pass.served)
				}
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
