package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"

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
// duplicate configurations verify once and footprint cells are skipped.
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
	}
	var buf strings.Builder
	n, err := verifyCells(cells, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("verified %d cells, want 1 (dedupe + footprint skip)", n)
	}
	if got := strings.Count(buf.String(), "verify ssca2"); got != 1 {
		t.Errorf("progress logged %d times, want 1:\n%s", got, buf.String())
	}
}

var update = flag.Bool("update", false, "rewrite testdata/results_test.golden from this tree's output")

// TestResultsGolden pins every rendered table: `htmbench -exp all -scale
// test -seed 42 -repeats 2` through the CLI's own plan, sweep and render
// passes must reproduce testdata/results_test.golden byte for byte. Virtual
// time is deterministic, so any difference is a changed simulation (or a
// changed table layout), never noise; fig6 and fig9 are pinned nowhere else.
// After an intended change, rerun with -update and review the diff.
func TestResultsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole test-scale sweep")
	}
	const golden = "testdata/results_test.golden"
	names := expandExp("all")
	opts := harness.Options{Scale: stamp.ScaleTest, Repeats: 2, Seed: 42}
	plan, err := planCells(names, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	sched := sweep.New(sweep.Config{})
	if sum := sched.Prewarm(plan.Cells()); sum.Failed != 0 {
		t.Fatalf("sweep: %s", sum)
	}
	var got bytes.Buffer
	if err := renderTables(names, opts, sched, &got, false); err != nil {
		t.Fatal(err)
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
				t.Fatalf("rendered tables differ from %s at line %d:\n got %q\nwant %q", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("rendered tables differ from %s in length: %d lines, want %d", golden, len(gl), len(wl))
	}
}
