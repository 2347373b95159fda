package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"htmcmp/internal/cache"
	"htmcmp/internal/harness"
	"htmcmp/internal/harness/sweep"
	"htmcmp/internal/platform"
)

func TestParseSummary(t *testing.T) {
	const head = "htmbench: chatter\nsweep summary: "
	got, err := parseSummary(head + "cells=333 computed=333 cached=0 failed=0 hit=0.0% elapsed=13.517s steals=3 retried=2 recovered=2\n")
	want := summary{Cells: 333, Computed: 333, Steals: 3, Retried: 2, Hit: "0.0%", Prewarm: 13517 * time.Millisecond}
	if err != nil || got != want {
		t.Errorf("with optional fields: got %+v, %v; want %+v", got, err, want)
	}
	got, err = parseSummary(head + "cells=40 computed=0 cached=40 failed=0 hit=100.0% elapsed=13ms")
	want = summary{Cells: 40, Cached: 40, Hit: "100.0%", Prewarm: 13 * time.Millisecond}
	if err != nil || got != want {
		t.Errorf("without optional fields: got %+v, %v; want %+v", got, err, want)
	}
	for _, bad := range []string{
		"no summary here",
		head + "cells=40 computed=0 cached=40 hit=100.0% elapsed=13ms", // failed= missing
		head + "cells=forty computed=0 cached=40 failed=0 hit=100.0% elapsed=13ms",
	} {
		if _, err := parseSummary(bad); err == nil {
			t.Errorf("parseSummary(%q) succeeded", bad)
		}
	}
}

func TestReadRecordsSkipsEstimatorState(t *testing.T) {
	dir := t.TempDir()
	store, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cell := sweep.Cell{Kind: sweep.Measure, Spec: harness.RunSpec{Platform: platform.ZEC12, Benchmark: "ssca2", Threads: 4, Seed: 42}}
	key, err := cell.Key()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(key, cacheRecord{Cell: cell, Result: &harness.Result{Speedup: 2.5}, Seconds: 0.25}); err != nil {
		t.Fatal(err)
	}
	// What the duration estimator keeps next to the records.
	stateKey, _ := cache.Key("htmcmp-durations-v1", "class-duration-ewma")
	if err := store.Put(stateKey, map[string]any{"classes": map[string]float64{"measure/ssca2/test/4": 0.25}, "global": 0.25}); err != nil {
		t.Fatal(err)
	}
	recs, size, err := readRecords(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[key].Seconds != 0.25 || recs[key].Result.Speedup != 2.5 || size == 0 {
		t.Errorf("readRecords = %d records, %d bytes: %+v", len(recs), size, recs)
	}
}

func TestCheckRun(t *testing.T) {
	golden := []byte("Table 1\nFigure 2: a b c\nFigure 3: d e f\nFigure 4\n")
	tables := []byte("Figure 2: a b c\nFigure 3: d e f\n")
	cold := procResult{Stdout: tables, Summary: summary{Cells: 40, Computed: 40, Hit: "0.0%"}}
	warm := procResult{Stdout: tables, Summary: summary{Cells: 40, Cached: 40, Hit: "100.0%"}}
	cases := []struct {
		name         string
		r            procResult
		warm         bool
		golden, same []byte
		wantBad      string // substring of the one complaint, "" for none
	}{
		{"cold ok", cold, false, golden, nil, ""},
		{"warm ok, equals cold", warm, true, golden, cold.Stdout, ""},
		{"not a contiguous part", procResult{Stdout: []byte("Figure 2: a b c\nFigure 4\n"), Summary: cold.Summary}, false, golden, nil, "contiguous"},
		{"warm differs from cold", warm, true, nil, []byte("Figure 2: a b X\n"), "differs"},
		{"cold run hit the cache", procResult{Stdout: tables, Summary: summary{Cells: 40, Computed: 39, Cached: 1, Hit: "2.5%"}}, false, nil, nil, "cached=1"},
		{"warm run computed", procResult{Stdout: tables, Summary: summary{Cells: 40, Computed: 1, Cached: 39, Hit: "97.5%"}}, true, nil, nil, "computed=1"},
		{"failed cells", procResult{Stdout: tables, Summary: summary{Cells: 40, Computed: 40, Failed: 2, Hit: "0.0%"}}, false, nil, nil, "2 cells failed"},
		{"exit status", procResult{ExitErr: os.ErrDeadlineExceeded, Stderr: "boom\n"}, false, golden, nil, "run failed"},
	}
	for _, c := range cases {
		bad := checkRun(c.r, c.warm, c.golden, c.same)
		switch {
		case c.wantBad == "" && len(bad) != 0:
			t.Errorf("%s: unexpected complaints %q", c.name, bad)
		case c.wantBad != "" && (len(bad) != 1 || !strings.Contains(bad[0], c.wantBad)):
			t.Errorf("%s: complaints %q, want one containing %q", c.name, bad, c.wantBad)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median of three = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of four = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median of none = %v", m)
	}
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	if v, ok := percentile(ramp(199), 95); ok || v != 0 {
		t.Errorf("p95 of 199 samples reported (%v): only 9 lie beyond it", v)
	}
	if v, ok := percentile(ramp(200), 95); !ok || math.Abs(v-189) > 1 {
		t.Errorf("p95 of 200 samples = %v, %v", v, ok)
	}
	if _, ok := percentile(ramp(40), 95); ok {
		t.Error("p95 of 40 samples reported")
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Layer: unattributed, Start: 0, End: 100},
		{ID: 1, Parent: 0, Layer: "a", Start: 10, End: 50},
		{ID: 2, Parent: 0, Layer: "b", Start: 30, End: 70},  // overlaps span 1 by 20
		{ID: 3, Parent: 0, Layer: "b", Start: 90, End: 120}, // runs past its parent
		{ID: 4, Parent: 1, Layer: "c", Start: 20, End: 30},
	}
	want := []int64{30, 30, 40, 30, 10} // root: 100 - [10,70] - [90,100]
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	by := layerSeconds(spans)
	if math.Abs(by[unattributed]-30e-9) > 1e-15 || math.Abs(by["b"]-70e-9) > 1e-15 {
		t.Errorf("layerSeconds = %v", by)
	}

	rec := newRecorder()
	root := rec.begin(unattributed, "root")
	rec.setCell("k1")
	kid := rec.begin("a", "a.F")
	rec.end(kid)
	rec.end(root)
	if len(rec.spans) != 2 || rec.spans[1].Parent != 0 || rec.spans[1].Cell != "k1" || rec.spans[0].End < rec.spans[1].End {
		t.Errorf("recorder spans = %+v", rec.spans)
	}
	var off *recorder
	off.end(off.begin("a", "a.F")) // a nil recorder records nothing
}

// benchmarkJSON is the schema of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadEntry `json:"workloads"`
	EndToEnd   []gatedEntry    `json:"end_to_end"`
	PerLayer   []metricEntry   `json:"per_layer"`
}

type workloadEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type gatedEntry struct {
	metricEntry
	Bound float64 `json:"bound"`
}

// expectedBenchmarkJSON is what the code's declarations say BENCHMARK.json
// should hold.
func expectedBenchmarkJSON() benchmarkJSON {
	b := benchmarkJSON{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: 20}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, workloadEntry{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, gatedEntry{metricEntry{d.Name, d.Unit, d.Better}, d.Bound})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, metricEntry{d.Name, d.Unit, d.Better})
	}
	return b
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	want := expectedBenchmarkJSON()
	wantText, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("%v\nthe declarations in the code give:\n%s", err, wantText)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json and the declarations in the code disagree; the code gives:\n%s", wantText)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: malformed unit %q", n, u)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", n, better)
		}
	}
	for _, w := range workloads {
		check(w.Name, "", "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d.Name, d.Unit, d.Better)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end-to-end metrics lack setup_s in s, lower is better")
	}
	for _, d := range perLayer {
		check(d.Name, d.Unit, d.Better)
		if d.Source != srcRun && d.Source != srcTrace && d.Source != srcUnit {
			t.Errorf("%s: unknown source %q", d.Name, d.Source)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the limit is 128", len(perLayer))
	}
}

// TestSmoke drives the whole benchmark once at -scale test with one rep:
// build, engine_serial cold, the same command warm, and the traced pass with
// both twins, and wants every declared metric emitted and finite.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs htmbench")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	e := &env{Root: root, Scratch: t.TempDir(), OutDir: t.TempDir(), W: io.Discard, Scale: "test", Seed: 42, SubSeeds: 1}
	buildS, err := e.build()
	if err != nil {
		t.Fatal(err)
	}
	engine, _ := findWorkload("engine_serial")
	warm := engine
	warm.Name, warm.Warm = "engine_serial_warm", true
	for _, w := range []workload{engine, warm} {
		res := e.runWorkload(w, 0, 1, buildS)
		if !res.correct() || res.Attempted != 40 {
			t.Fatalf("%s: attempted %d, failed %d, problems %q", w.Name, res.Attempted, res.Failed, res.Problems)
		}
		line, _, err := e.report(res)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range endToEnd {
			if m, ok := line.Metrics[d.Name]; !ok || !(m.Value > 0) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v", w.Name, d.Name, m)
			}
		}
	}

	line, err := e.tracedPass(engine, buildS)
	if err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Failed != 0 {
		t.Errorf("traced pass: %+v", line)
	}
	if len(line.Metrics) != len(perLayer) {
		t.Errorf("traced pass emitted %d metrics, %d are declared", len(line.Metrics), len(perLayer))
	}
	for _, d := range perLayer {
		m, ok := line.Metrics[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
			t.Errorf("per-layer metric %s = %+v (emitted %v)", d.Name, m, ok)
		}
	}
	if c := line.Metrics["trace.coverage_pct"].Value; c < 90 {
		t.Errorf("trace.coverage_pct = %v, want at least 90", c)
	}
	if _, err := os.Stat(filepath.Join(e.OutDir, "trace-engine_serial.json")); err != nil {
		t.Error(err)
	}
}
