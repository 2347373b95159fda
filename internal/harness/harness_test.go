package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"htmcmp/internal/obs"
	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
)

func TestRunProducesSpeedupSSCA2(t *testing.T) {
	res, err := Run(RunSpec{
		Platform:  platform.ZEC12,
		Benchmark: "ssca2",
		Threads:   4,
		Scale:     stamp.ScaleTest,
		Repeats:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup <= 1.0 {
		t.Errorf("ssca2 on zEC12 with 4 threads: speedup %.2f, want > 1 (virtual-time parallelism broken?)", res.Speedup)
	}
	if res.Speedup > 4.5 {
		t.Errorf("speedup %.2f exceeds thread count", res.Speedup)
	}
	if res.TM.Commits() == 0 {
		t.Error("no commits recorded")
	}
}

func TestRunDeterministicAcrossInvocations(t *testing.T) {
	spec := RunSpec{
		Platform:  platform.POWER8,
		Benchmark: "vacation-low",
		Threads:   4,
		Scale:     stamp.ScaleTest,
		Repeats:   1,
		Seed:      7,
	}
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Speedup != b.Speedup || a.ParSeconds != b.ParSeconds {
		t.Errorf("virtual-time runs not deterministic: %.6f/%.0f vs %.6f/%.0f",
			a.Speedup, a.ParSeconds, b.Speedup, b.ParSeconds)
	}
	if a.TM != b.TM {
		t.Errorf("stats not deterministic: %+v vs %+v", a.TM, b.TM)
	}
}

func TestSequentialBaselineHasNoAborts(t *testing.T) {
	spec := RunSpec{
		Platform:  platform.IntelCore,
		Benchmark: "kmeans-low",
		Threads:   1,
		Scale:     stamp.ScaleTest,
		Repeats:   1,
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	// One thread can still abort (zEC12 cache-fetch etc.) but on Intel the
	// only stochastic source is the prefetcher, which never conflicts with
	// a single thread.
	if res.AbortRatio > 1 {
		t.Errorf("single-thread abort ratio %.2f%%, want ~0", res.AbortRatio)
	}
	if res.Speedup < 0.90 || res.Speedup > 1.10 {
		t.Errorf("1-thread transactional speedup %.3f, want ~1 (overheads mismodelled)", res.Speedup)
	}
}

func TestTable1Rendering(t *testing.T) {
	tb := Table1()
	var sb strings.Builder
	tb.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"Blue Gene/Q", "zEC12", "Intel Core", "POWER8",
		"256 bytes", "8 KB", "4 MB", "22 KB", "20 MB (1.25 MB per core)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
	var csv strings.Builder
	tb.CSV(&csv)
	if !strings.Contains(csv.String(), "Processor type,Blue Gene/Q") {
		t.Error("CSV header malformed")
	}
}

func TestTuneFindsAPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("tuning in -short mode")
	}
	tr, err := Tune(RunSpec{
		Platform:  platform.POWER8,
		Benchmark: "ssca2",
		Threads:   2,
		Scale:     stamp.ScaleTest,
		Repeats:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Result.Speedup <= 0 {
		t.Errorf("tuned speedup %.2f", tr.Result.Speedup)
	}
	if tr.Policy.TransientRetry == 0 {
		t.Error("tuner returned zero policy")
	}
}

func TestTuneBGQSearchesModes(t *testing.T) {
	if testing.Short() {
		t.Skip("tuning in -short mode")
	}
	tr, err := Tune(RunSpec{
		Platform:  platform.BlueGeneQ,
		Benchmark: "kmeans-high",
		Threads:   2,
		Scale:     stamp.ScaleTest,
		Repeats:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Result.Speedup <= 0 {
		t.Errorf("tuned speedup %.2f", tr.Result.Speedup)
	}
}

func TestHLESpecRuns(t *testing.T) {
	res, err := Run(RunSpec{
		Platform:  platform.IntelCore,
		Benchmark: "ssca2",
		Threads:   2,
		Scale:     stamp.ScaleTest,
		Repeats:   1,
		UseHLE:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TM.Commits() == 0 {
		t.Error("HLE run recorded no commits")
	}
}

func TestMeasureAppliesBGQGenomeChunk(t *testing.T) {
	opts := Options{Scale: stamp.ScaleTest, Repeats: 1}.withDefaults()
	res, err := opts.measure(platform.BlueGeneQ, "genome", 2, stamp.Modified)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spec.ChunkStep1 != 9 {
		t.Errorf("BG/Q genome ChunkStep1 = %d, want the paper's tuned 9", res.Spec.ChunkStep1)
	}
}

func TestRunWritesTraceFiles(t *testing.T) {
	dir := t.TempDir()
	spec := RunSpec{
		Platform:  platform.ZEC12,
		Benchmark: "kmeans-low",
		Threads:   2,
		Scale:     stamp.ScaleTest,
		Repeats:   2,
		TraceDir:  dir,
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for rep := 0; rep < 2; rep++ {
		n, err := obs.ValidateFile(filepath.Join(dir, spec.withDefaults().traceName(rep)))
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	// Each begin and each commit is one event; aborts add more.
	if want := int(res.Engine.Begins + res.Engine.Commits); total < want {
		t.Errorf("trace files hold %d events, want >= %d (begins+commits)", total, want)
	}
}

// TestTraceDirEventsMatchEngineStats: the event log drops nothing, so the
// per-repeat files of a traced cell hold exactly the begins, commits and
// aborts the engine counted over the same repeats.
func TestTraceDirEventsMatchEngineStats(t *testing.T) {
	dir := t.TempDir()
	spec := RunSpec{
		Platform:  platform.IntelCore,
		Benchmark: "intruder",
		Threads:   4,
		Scale:     stamp.ScaleTest,
		Repeats:   2,
		TraceDir:  dir,
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]uint64{}
	for rep := 0; rep < spec.Repeats; rep++ {
		path := filepath.Join(dir, spec.withDefaults().traceName(rep))
		if _, err := obs.ValidateFile(path); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			var ev struct{ Kind string }
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatal(err)
			}
			kinds[ev.Kind]++
		}
	}
	st := res.Engine
	if st.Aborts == 0 {
		t.Fatal("no aborts: the cell does not exercise the abort events")
	}
	if kinds["begin"] != st.Begins || kinds["commit"] != st.Commits || kinds["abort"] != st.Aborts {
		t.Errorf("trace files hold begins/commits/aborts %d/%d/%d, engine stats %d/%d/%d",
			kinds["begin"], kinds["commit"], kinds["abort"], st.Begins, st.Commits, st.Aborts)
	}
}

// TestTraceNamesSeparateVariants pins the collision fix: specs that share a
// label (the variant is not part of it) must still write distinct files.
func TestTraceNamesSeparateVariants(t *testing.T) {
	a := RunSpec{Platform: platform.ZEC12, Benchmark: "genome", Threads: 4, Variant: stamp.Original}
	b := a
	b.Variant = stamp.Modified
	if a.Label() != b.Label() {
		t.Fatalf("labels differ (%q vs %q); test premise broken", a.Label(), b.Label())
	}
	if a.traceName(0) == b.traceName(0) {
		t.Errorf("variants map to the same trace file %q; concurrent cells would corrupt it", a.traceName(0))
	}
	if a.traceName(0) == a.traceName(1) {
		t.Error("repeats map to the same trace file")
	}
	if !strings.Contains(a.traceName(0), "genome-z12-t4") {
		t.Errorf("trace name %q lost the human-readable label", a.traceName(0))
	}
}

func TestRunSpecJSONOmitsTraceDir(t *testing.T) {
	b, err := json.Marshal(RunSpec{TraceDir: "/tmp/somewhere"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "somewhere") || strings.Contains(string(b), "TraceDir") {
		t.Errorf("RunSpec JSON leaks TraceDir (cache-key contamination): %s", b)
	}
}
