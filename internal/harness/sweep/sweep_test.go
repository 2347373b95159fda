package sweep

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"htmcmp/internal/cache"
	"htmcmp/internal/features"
	"htmcmp/internal/harness"
	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
	"htmcmp/internal/trace"
)

// testCells is a small, fast cell set: 2 benchmarks × 2 platforms at test
// scale with a single repeat.
func testCells() []Cell {
	var cells []Cell
	for _, bench := range []string{"ssca2", "kmeans-low"} {
		for _, k := range []platform.Kind{platform.ZEC12, platform.POWER8} {
			cells = append(cells, Cell{Kind: Measure, Spec: harness.RunSpec{
				Platform:  k,
				Benchmark: bench,
				Threads:   2,
				Scale:     stamp.ScaleTest,
				Variant:   stamp.Modified,
				Seed:      42,
				Repeats:   1,
			}})
		}
	}
	return cells
}

// TestParallelMatchesSerial is the ordering-independence guarantee: a
// 4-worker pool must produce results equal cell-for-cell to direct serial
// execution.
func TestParallelMatchesSerial(t *testing.T) {
	cells := testCells()
	want := make([]harness.Result, len(cells))
	for i, c := range cells {
		r, err := harness.Run(c.Spec)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	s := New(Config{Jobs: 4})
	sum := s.Prewarm(cells)
	if sum.Cells != len(cells) || sum.Computed != len(cells) || sum.Failed != 0 {
		t.Fatalf("summary = %s", sum)
	}
	for i, c := range cells {
		got, err := s.Measure(c.Spec, false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("cell %s: parallel result differs from serial\n got %+v\nwant %+v",
				c.Label(), got, want[i])
		}
	}
}

// TestRegionsSameAtAnyJobs: cells that share engine regions — three thread
// counts over one sequential baseline, and a tune cell whose trials include
// the default policy — simulate each region once whatever the pool size,
// with the same results. Under -race (make race) the four-worker pass has
// workers waiting on regions another worker is simulating.
func TestRegionsSameAtAnyJobs(t *testing.T) {
	base := harness.RunSpec{
		Platform: platform.ZEC12, Benchmark: "ssca2", Scale: stamp.ScaleTest,
		Variant: stamp.Modified, Seed: 42, Repeats: 2,
	}
	var cells []Cell
	for _, n := range []int{1, 2, 4} {
		c := Cell{Kind: Measure, Spec: base}
		c.Spec.Threads = n
		cells = append(cells, c)
	}
	tuned := Cell{Kind: TuneMeasure, Spec: base}
	tuned.Spec.Threads = 4
	cells = append(cells, tuned)

	var want []harness.Result
	regions := 0
	for _, jobs := range []int{1, 4} {
		s := New(Config{Jobs: jobs})
		sum := s.Prewarm(cells)
		if sum.Failed != 0 {
			t.Fatalf("-jobs %d: summary = %s", jobs, sum)
		}
		got := make([]harness.Result, len(cells))
		for i, c := range cells {
			o := s.request(c)
			if o.err != nil {
				t.Fatal(o.err)
			}
			got[i] = o.res
		}
		if want == nil {
			want, regions = got, sum.Regions
			continue
		}
		if sum.Regions != regions {
			t.Errorf("-jobs %d simulated %d regions, -jobs 1 %d", jobs, sum.Regions, regions)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("-jobs %d results differ from -jobs 1", jobs)
		}
	}
	// Unshared, each Measure cell is 4 regions and the tune cell 14.
	if unshared := 3*4 + 14; regions >= unshared {
		t.Errorf("%d regions simulated, want fewer than the %d the cells hold unshared", regions, unshared)
	}
}

func TestCacheHitAndCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	store, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cells := testCells()

	s1 := New(Config{Jobs: 2, Cache: store, Resume: true})
	sum1 := s1.Prewarm(cells)
	if sum1.Computed != len(cells) || sum1.Cached != 0 {
		t.Fatalf("cold run summary = %s", sum1)
	}
	want, err := s1.Measure(cells[0].Spec, false)
	if err != nil {
		t.Fatal(err)
	}

	// Warm run: every cell must be served from disk.
	s2 := New(Config{Jobs: 2, Cache: store, Resume: true})
	sum2 := s2.Prewarm(cells)
	if sum2.Cached != len(cells) || sum2.Computed != 0 {
		t.Fatalf("warm run summary = %s", sum2)
	}
	if sum2.HitRatio() != 100 {
		t.Errorf("hit ratio = %.1f, want 100", sum2.HitRatio())
	}
	got, err := s2.Measure(cells[0].Spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cached result differs from computed:\n got %+v\nwant %+v", got, want)
	}

	// Corrupt one record: the next run must recompute exactly that cell
	// and still converge to the same result.
	key, err := cells[0].Key()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Path(key), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s3 := New(Config{Jobs: 2, Cache: store, Resume: true})
	sum3 := s3.Prewarm(cells)
	if sum3.Computed != 1 || sum3.Cached != len(cells)-1 {
		t.Fatalf("post-corruption summary = %s", sum3)
	}
	got3, err := s3.Measure(cells[0].Spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got3, want) {
		t.Error("recomputed result differs after corrupt cache entry")
	}
}

// TestWarmPassWritesNothing: an all-hit Prewarm only reads the cache. The
// directory holds the same files with the same bytes after it as before.
func TestWarmPassWritesNothing(t *testing.T) {
	setRunCellHook(t, func(Cell) (harness.Result, trace.Footprint, error) {
		return harness.Result{ParSeconds: 1.5}, trace.Footprint{}, nil
	})
	dir := t.TempDir()
	store, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func() map[string]string {
		files := map[string]string{}
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			data, err := os.ReadFile(path)
			files[path] = string(data)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	cells := testCells()
	if sum := New(Config{Jobs: 2, Cache: store, Resume: true}).Prewarm(cells); sum.Computed != len(cells) {
		t.Fatalf("cold summary = %s", sum)
	}
	before := snapshot()
	if sum := New(Config{Jobs: 2, Cache: store, Resume: true}).Prewarm(cells); sum.Cached != len(cells) {
		t.Fatalf("warm summary = %s, want every cell loaded", sum)
	}
	after := snapshot()
	for path, data := range after {
		if old, ok := before[path]; !ok || old != data {
			t.Errorf("the warm pass wrote %s", path)
		}
	}
	if len(after) != len(before) {
		t.Errorf("the warm pass changed the file count: %d before, %d after", len(before), len(after))
	}
}

// TestResumeAfterInterrupt models an interrupted sweep: only a prefix of the
// cells completed (and was cached); a fresh scheduler finishes the rest,
// loading the completed ones.
func TestResumeAfterInterrupt(t *testing.T) {
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cells := testCells()

	s1 := New(Config{Jobs: 1, Cache: store, Resume: true})
	if sum := s1.Prewarm(cells[:2]); sum.Computed != 2 {
		t.Fatalf("partial run summary = %s", sum)
	}

	s2 := New(Config{Jobs: 2, Cache: store, Resume: true})
	sum := s2.Prewarm(cells)
	if sum.Cached != 2 || sum.Computed != len(cells)-2 {
		t.Fatalf("resume summary = %s, want 2 cached / %d computed", sum, len(cells)-2)
	}
}

func TestNoResumeRecomputes(t *testing.T) {
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cells := testCells()[:1]
	New(Config{Jobs: 1, Cache: store, Resume: true}).Prewarm(cells)

	s := New(Config{Jobs: 1, Cache: store, Resume: false})
	if sum := s.Prewarm(cells); sum.Computed != 1 || sum.Cached != 0 {
		t.Fatalf("no-resume summary = %s, want recompute", sum)
	}
}

func TestPrewarmDeduplicates(t *testing.T) {
	c := testCells()[0]
	s := New(Config{Jobs: 4})
	sum := s.Prewarm([]Cell{c, c, c})
	if sum.Cells != 1 || sum.Computed != 1 {
		t.Errorf("summary = %s, want 1 unique cell", sum)
	}
}

// setRunCellHook installs a cell-execution hook for the duration of a test.
func setRunCellHook(t *testing.T, f cellRunner) {
	t.Helper()
	runCellHook.Store(&f)
	t.Cleanup(func() { runCellHook.Store(nil) })
}

func TestPanicRecovery(t *testing.T) {
	setRunCellHook(t, func(Cell) (harness.Result, trace.Footprint, error) {
		panic("boom")
	})

	s := New(Config{Jobs: 2})
	cells := testCells()
	sum := s.Prewarm(cells)
	if sum.Failed != len(cells) {
		t.Fatalf("summary = %s, want all failed", sum)
	}
	_, err := s.Measure(cells[0].Spec, false)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("err = %v, want panic surfaced as error", err)
	}
}

// TestThreadPanicFailsItsCell: a panic on a simulated thread — here
// intruder's parallel run outgrowing a 104 KiB arena on thread 1, after its
// sequential baseline has fitted — is that cell's failure, with the slot and
// the thread's stack in the error. The cell fails like any other, the other
// cells land and the pass completes. (Before Engine.Run the panic was on a
// bare goroutine and killed the process.)
func TestThreadPanicFailsItsCell(t *testing.T) {
	bad := Cell{Kind: Measure, Spec: harness.RunSpec{
		Platform: platform.ZEC12, Benchmark: "intruder", Threads: 4,
		Scale: stamp.ScaleTest, Seed: 42, Repeats: 1, SpaceSize: 104 << 10,
	}}
	cells := append(testCells(), bad)
	s := New(Config{Jobs: 2})
	sum := s.Prewarm(cells)
	if sum.Cells != len(cells) || sum.Computed != len(cells) || sum.Failed != 1 {
		t.Fatalf("summary = %s, want %d cells computed, one of them failed", sum, len(cells))
	}
	for _, c := range testCells() {
		if _, err := s.Measure(c.Spec, false); err != nil {
			t.Errorf("%s, in the same pass: %v", c.Label(), err)
		}
	}
	_, err := s.Measure(bad.Spec, false)
	if err == nil {
		t.Fatal("the cell with the panicking thread reported no error")
	}
	for _, want := range []string{
		"sweep: cell " + bad.Label() + " panicked: htm: thread 1 panicked: mem: space exhausted",
		"stamp.(*intruder).Run", // the simulated thread's own stack
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error does not mention %q:\n%v", want, err)
		}
	}
}

func TestCellTimeout(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	setRunCellHook(t, func(Cell) (harness.Result, trace.Footprint, error) {
		<-block
		return harness.Result{}, trace.Footprint{}, nil
	})

	s := New(Config{Jobs: 1, Timeout: 20 * time.Millisecond})
	cells := testCells()[:1]
	sum := s.Prewarm(cells)
	if sum.Failed != 1 {
		t.Fatalf("summary = %s, want 1 failed", sum)
	}
	_, err := s.Measure(cells[0].Spec, false)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Errorf("err = %v, want timeout error", err)
	}
}

// TestFootprintCell runs one trace.Collect cell through the scheduler and
// checks it matches a direct collection.
func TestFootprintCell(t *testing.T) {
	if testing.Short() {
		t.Skip("footprint collection in -short mode")
	}
	opts := trace.Options{Scale: stamp.ScaleTest, Seed: 42}
	want, err := trace.Collect("ssca2", platform.ZEC12, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Jobs: 2})
	cell := Cell{Kind: Footprint, Bench: "ssca2", Platform: platform.ZEC12, Scale: stamp.ScaleTest, Seed: 42}
	if sum := s.Prewarm([]Cell{cell}); sum.Failed != 0 {
		t.Fatalf("summary = %s", sum)
	}
	got, err := s.Collect("ssca2", platform.ZEC12, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("footprint differs:\n got %+v\nwant %+v", got, want)
	}
}

// TestPlanRecordsFig7 checks the planning pass: Fig7 requests 10 RTM cells
// (one per benchmark) plus 10 HLE cells, with no simulation executed.
func TestPlanRecordsFig7(t *testing.T) {
	p := NewPlan()
	opts := harness.Options{Scale: stamp.ScaleTest, Repeats: 1, Exec: p}
	if _, err := harness.Fig7(opts); err != nil {
		t.Fatal(err)
	}
	cells := p.Cells()
	want := 2 * len(stamp.Names())
	if len(cells) != want {
		t.Fatalf("plan recorded %d cells, want %d", len(cells), want)
	}
	hle := 0
	for _, c := range cells {
		if c.Kind != Measure {
			t.Errorf("cell %s kind = %v, want Measure", c.Label(), c.Kind)
		}
		if c.Spec.UseHLE {
			hle++
		}
	}
	if hle != len(stamp.Names()) {
		t.Errorf("plan has %d HLE cells, want %d", hle, len(stamp.Names()))
	}
}

// TestPlanDeduplicates: Fig2And3 and Fig4 share every modified-variant
// measurement, so planning both must not duplicate cells.
func TestPlanDeduplicates(t *testing.T) {
	p := NewPlan()
	opts := harness.Options{Scale: stamp.ScaleTest, Repeats: 1, Exec: p}
	if _, _, err := harness.Fig2And3(opts); err != nil {
		t.Fatal(err)
	}
	n := len(p.Cells())
	if _, err := harness.Fig4(opts); err != nil {
		t.Fatal(err)
	}
	// Fig4 adds only the Original-variant cells of the 6 changed
	// benchmarks (4 platforms each).
	want := n + 6*4
	if got := len(p.Cells()); got != want {
		t.Errorf("plan has %d cells after Fig4, want %d", got, want)
	}
}

// TestPlanTune records tuned cells distinctly from untuned ones.
func TestPlanTune(t *testing.T) {
	p := NewPlan()
	spec := testCells()[0].Spec
	if _, err := p.Measure(spec, false); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Measure(spec, true); err != nil {
		t.Fatal(err)
	}
	cells := p.Cells()
	if len(cells) != 2 {
		t.Fatalf("plan has %d cells, want 2 (tuned and untuned are distinct)", len(cells))
	}
	k0, _ := cells[0].Key()
	k1, _ := cells[1].Key()
	if k0 == k1 {
		t.Error("tuned and untuned cells share a cache key")
	}
}

// TestMetricsAndTraceDir exercises the observability hooks: the scheduler
// counts cells and their transactions in its registry, writes per-cell event
// files when TraceDir is set, and cells served from cache leave no files.
func TestMetricsAndTraceDir(t *testing.T) {
	cells := testCells()
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s := New(Config{Jobs: 2, Cache: store, Resume: true, TraceDir: dir})
	sum := s.Prewarm(cells)
	if sum.Failed != 0 {
		t.Fatalf("summary = %s", sum)
	}

	m := s.Registry().CounterValues()
	if got := m["sweep_cells_done_total"]; got != uint64(len(cells)) {
		t.Errorf("sweep_cells_done_total = %d, want %d", got, len(cells))
	}
	if got := m["sweep_cells_computed_total"]; got != uint64(len(cells)) {
		t.Errorf("sweep_cells_computed_total = %d, want %d", got, len(cells))
	}
	if m["htm_tx_commits_total"] == 0 || m["htm_tx_begins_total"] == 0 {
		t.Errorf("transaction counters stayed zero: %v", m)
	}

	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("TraceDir is empty after a computed sweep")
	}

	// A resumed sweep serves every cell from cache: no new trace files,
	// cached counter advances.
	dir2 := t.TempDir()
	s2 := New(Config{Jobs: 2, Cache: store, Resume: true, TraceDir: dir2})
	if sum2 := s2.Prewarm(cells); sum2.Cached != len(cells) {
		t.Fatalf("resumed summary = %s", sum2)
	}
	if got := s2.Registry().Counter("sweep_cells_cached_total").Value(); got != uint64(len(cells)) {
		t.Errorf("sweep_cells_cached_total = %d, want %d", got, len(cells))
	}
	if names2, _ := os.ReadDir(dir2); len(names2) != 0 {
		t.Errorf("cache hits wrote %d trace files, want none", len(names2))
	}
}

func TestCellJSONOmitsTraceDir(t *testing.T) {
	c := Cell{Kind: Measure, TraceDir: "/tmp/x"}
	k1, err := c.Key()
	if err != nil {
		t.Fatal(err)
	}
	c.TraceDir = ""
	k2, err := c.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("TraceDir changes the cache key; traced and untraced sweeps would not share a cache")
	}
}

// TestExistingCellKeysStable pins cache keys as computed at the commit before
// CLQRun and TLSRun existed (PR 18). A new Cell field that is not an
// omitempty pointer, slice or scalar — a struct-valued one is emitted as {}
// whatever its tag says — or a kind inserted before Footprint changes all of
// them, and every cache on disk goes cold without anyone having bumped
// ResultsVersion.
func TestExistingCellKeysStable(t *testing.T) {
	spec := harness.RunSpec{
		Platform: platform.ZEC12, Benchmark: "ssca2", Threads: 4,
		Scale: stamp.ScaleTest, Variant: stamp.Modified, Seed: 42, Repeats: 2,
	}
	for _, tc := range []struct {
		cell Cell
		kind int
		key  string
	}{
		{Cell{Kind: Measure, Spec: spec}, 0,
			"292403bc2af74a531be59ea46cf8f2c20f1cd6b6ad9a867bdf5fcf2ade665db0"},
		{Cell{Kind: TuneMeasure, Spec: spec}, 1,
			"1652a3c724fb4d84d4a429f6586280b6202765e4ec16684b50d2b2a7bc1a68c9"},
		{Cell{Kind: Footprint, Bench: "labyrinth", Platform: platform.POWER8, Scale: stamp.ScaleSim, Seed: 42}, 2,
			"5bfdc1e7ad40d36f6dcd0ecb2bb73f17299ef58ddf671322d4a77d800796c092"},
	} {
		if int(tc.cell.Kind) != tc.kind {
			t.Errorf("%v = %d, want %d: bench/ indexes a [3]float64 by these", tc.cell.Kind, int(tc.cell.Kind), tc.kind)
		}
		if got, err := tc.cell.Key(); err != nil || got != tc.key {
			t.Errorf("%s: key %s (err %v), want %s as at PR 18", tc.cell.Label(), got, err, tc.key)
		}
	}
}

// planFeatures records the cells RunCLQ and RunTLS request under the given
// options.
func planFeatures(t *testing.T, clq features.CLQOptions, tls features.TLSOptions) []Cell {
	t.Helper()
	p := NewPlan()
	clq.Exec, tls.Exec = p, p
	if _, err := features.RunCLQ(clq); err != nil {
		t.Fatal(err)
	}
	if _, err := features.RunTLS(tls); err != nil {
		t.Fatal(err)
	}
	return p.Cells()
}

// featureCells is a small, fast Figure 6 + Figure 9 plan: 16 + 10 cells.
func featureCells(t *testing.T) []Cell {
	return planFeatures(t,
		features.CLQOptions{OpsPerThread: 100, Threads: []int{1, 2}},
		features.TLSOptions{Iterations: 64, Threads: []int{1, 2}})
}

// TestFeatureCellsDistinct: the default Figure 6 and Figure 9 plan is 20 + 26
// cells, no two sharing a cache key or a label.
func TestFeatureCellsDistinct(t *testing.T) {
	cells := planFeatures(t, features.CLQOptions{}, features.TLSOptions{})
	kinds := map[Kind]int{}
	keys, labels := map[string]bool{}, map[string]bool{}
	for _, c := range cells {
		kinds[c.Kind]++
		key, err := c.Key()
		if err != nil {
			t.Fatal(err)
		}
		if keys[key] || labels[c.Label()] {
			t.Errorf("cell %s repeats a key or a label", c.Label())
		}
		keys[key], labels[c.Label()] = true, true
	}
	if kinds[CLQRun] != 20 || kinds[TLSRun] != 26 || len(cells) != 46 {
		t.Errorf("planned %d cells by kind %v, want 20 clq + 26 tls", len(cells), kinds)
	}
}

// TestFeatureCellsMatchInline runs a small Figure 6 + Figure 9 plan through
// the pool and a cache: the tables rendered from the scheduler — computed,
// then from the records alone — equal the inline ones, and the cells'
// transactions reach the registry when computed and not when loaded.
func TestFeatureCellsMatchInline(t *testing.T) {
	clq := features.CLQOptions{OpsPerThread: 100, Threads: []int{1, 2}}
	tls := features.TLSOptions{Iterations: 64, Threads: []int{1, 2}}
	wantCLQ, err := features.RunCLQ(clq)
	if err != nil {
		t.Fatal(err)
	}
	wantTLS, err := features.RunTLS(tls)
	if err != nil {
		t.Fatal(err)
	}
	cells := planFeatures(t, clq, tls)
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range []string{"cold", "warm"} {
		s := New(Config{Jobs: 2, Cache: store, Resume: true})
		sum := s.Prewarm(cells)
		begins := s.Registry().Counter("htm_tx_begins_total").Value()
		if pass == "cold" && (sum.Computed != len(cells) || sum.Failed != 0 || begins == 0) {
			t.Fatalf("cold summary = %s with %d begins published", sum, begins)
		}
		if pass == "warm" && (sum.Cached != len(cells) || begins != 0) {
			t.Fatalf("warm summary = %s with %d begins published, want every cell loaded and nothing simulated", sum, begins)
		}
		clq.Exec, tls.Exec = s, s
		if got, err := features.RunCLQ(clq); err != nil || !reflect.DeepEqual(got, wantCLQ) {
			t.Errorf("%s: RunCLQ through the scheduler differs from inline (err %v)", pass, err)
		}
		if got, err := features.RunTLS(tls); err != nil || !reflect.DeepEqual(got, wantTLS) {
			t.Errorf("%s: RunTLS through the scheduler differs from inline (err %v)", pass, err)
		}
		if done := s.Registry().Counter("sweep_cells_done_total").Value(); done != uint64(len(cells)) {
			t.Errorf("%s: rendering obtained cells the plan did not hold: done = %d, want %d", pass, done, len(cells))
		}
	}
}

// TestFeatureCellWithoutPoint: a CLQRun or TLSRun cell whose point is missing
// (a hand-built cell, a record from a confused writer) has a printable label
// and fails with an error in the worker instead of dereferencing nil.
func TestFeatureCellWithoutPoint(t *testing.T) {
	for _, c := range []Cell{{Kind: CLQRun}, {Kind: TLSRun}, {Kind: CLQRun, TLS: &features.TLSPoint{}}} {
		if l := c.Label(); !strings.Contains(l, "no point") {
			t.Errorf("label %q does not say the point is missing", l)
		}
		s := New(Config{Jobs: 1})
		if sum := s.Prewarm([]Cell{c}); sum.Failed != 1 {
			t.Errorf("%s: summary = %s, want the cell failed", c.Label(), sum)
		}
		if o := s.request(c); o.err == nil || !strings.Contains(o.err.Error(), "carries no point") {
			t.Errorf("%s: err = %v, want a missing-point error", c.Label(), o.err)
		}
	}
}

// TestPrewarmWritesEveryRecord: the pass's one record writer has drained
// when Prewarm returns, so the store holds exactly one record per computed
// cell and no temporary file, at one worker and at four.
func TestPrewarmWritesEveryRecord(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		dir := t.TempDir()
		store, err := cache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		sum := New(Config{Jobs: jobs, Cache: store, Resume: true}).Prewarm(testCells())
		if sum.Computed != len(testCells()) || sum.Failed != 0 {
			t.Fatalf("-jobs %d: summary = %s", jobs, sum)
		}
		var files []string
		err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				files = append(files, filepath.Base(path))
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != sum.Computed {
			t.Errorf("-jobs %d: %d cells computed, the store holds %v", jobs, sum.Computed, files)
		}
		for _, c := range testCells() {
			key, _ := c.Key()
			var rec record
			if found, err := store.Get(key, &rec); !found || err != nil || rec.Result == nil {
				t.Errorf("-jobs %d: cell %s has no record (found %v, err %v)", jobs, c.Label(), found, err)
			}
		}
	}
}
