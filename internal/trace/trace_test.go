package trace

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"htmcmp/internal/obs"

	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
)

func TestCollectKmeansFootprints(t *testing.T) {
	fp, err := Collect("kmeans-low", platform.ZEC12, Options{Scale: stamp.ScaleTest})
	if err != nil {
		t.Fatal(err)
	}
	if fp.Transactions == 0 {
		t.Fatal("no transactions sampled")
	}
	// Collect releases its engine, so a second collection runs on the
	// recycled arena and line table and must not be able to tell.
	if again, err := Collect("kmeans-low", platform.ZEC12, Options{Scale: stamp.ScaleTest}); err != nil || !reflect.DeepEqual(fp, again) {
		t.Errorf("collection on recycled memory diverged (err %v):\nfirst:  %+v\nsecond: %+v", err, fp, again)
	}
	// A kmeans transaction updates one cluster record: tiny footprints.
	if fp.P90StoreKB > 1 {
		t.Errorf("kmeans P90 store = %.2f KB, want < 1 KB", fp.P90StoreKB)
	}
	if fp.ExceedsLoadCap || fp.ExceedsStoreCap {
		t.Error("kmeans must fit every platform's capacity")
	}
}

func TestCollectLabyrinthExceedsPOWER8(t *testing.T) {
	fp, err := Collect("labyrinth", platform.POWER8, Options{Scale: stamp.ScaleSim})
	if err != nil {
		t.Fatal(err)
	}
	// The routing BFS reads most of the 24 KB grid: far beyond POWER8's
	// 8 KB TMCAM — the Figure 10 point that explains labyrinth on POWER8.
	if !fp.ExceedsLoadCap {
		t.Errorf("labyrinth P90 load %.1f KB does not exceed POWER8's 8 KB capacity", fp.P90LoadKB)
	}
}

func TestCollectYadaStoresPressZEC12(t *testing.T) {
	fp, err := Collect("yada", platform.ZEC12, Options{Scale: stamp.ScaleSim})
	if err != nil {
		t.Fatal(err)
	}
	// Cavity retriangulation writes tens of 256-byte elements: at or above
	// the 8 KB gathering store cache (Figure 11's yada story).
	if fp.MaxStoreKB < 6 {
		t.Errorf("yada max store footprint %.1f KB, want >= 6 (store-capacity pressure)", fp.MaxStoreKB)
	}
}

func TestCollectRejectsUnknownBenchmark(t *testing.T) {
	if _, err := Collect("nope", platform.ZEC12, Options{}); err == nil {
		t.Error("unknown benchmark did not error")
	}
}

// recordingCollector counts dispatched pairs without simulating anything.
type recordingCollector struct {
	calls []string
	opts  []Options
}

func (r *recordingCollector) Collect(bench string, k platform.Kind, opts Options) (Footprint, error) {
	r.calls = append(r.calls, bench+"/"+k.Short())
	r.opts = append(r.opts, opts)
	return Footprint{Benchmark: bench, Platform: k}, nil
}

func TestCollectAllDispatchesThroughExec(t *testing.T) {
	rec := &recordingCollector{}
	fps, err := CollectAll(Options{Exec: rec})
	if err != nil {
		t.Fatal(err)
	}
	want := len(stamp.Names()) * len(platform.Kinds())
	if len(rec.calls) != want || len(fps) != want {
		t.Fatalf("dispatched %d pairs, returned %d, want %d", len(rec.calls), len(fps), want)
	}
	// Options must reach the Collector normalised, so a sweep scheduler
	// derives canonical cache keys from them. (Scale stays as given:
	// ScaleTest is the zero value, not an unset marker.)
	for _, o := range rec.opts {
		if o.Seed == 0 {
			t.Fatalf("Collector saw unnormalised options %+v", o)
		}
	}
	if fps[0].Benchmark != stamp.Names()[0] {
		t.Errorf("results out of order: first is %s", fps[0].Benchmark)
	}
}

// failingCollector errors on the nth dispatched pair.
type failingCollector struct {
	calls  int
	failAt int
}

func (f *failingCollector) Collect(bench string, k platform.Kind, opts Options) (Footprint, error) {
	f.calls++
	if f.calls == f.failAt {
		return Footprint{}, errors.New("cell exploded")
	}
	return Footprint{Benchmark: bench, Platform: k}, nil
}

func TestCollectAllPropagatesExecError(t *testing.T) {
	fc := &failingCollector{failAt: 3}
	fps, err := CollectAll(Options{Exec: fc})
	if err == nil || !strings.Contains(err.Error(), "cell exploded") {
		t.Fatalf("err = %v, want the collector's error", err)
	}
	if fps != nil {
		t.Errorf("got partial results alongside an error: %d entries", len(fps))
	}
	if fc.calls != 3 {
		t.Errorf("dispatched %d pairs after failure, want dispatch to stop at 3", fc.calls)
	}
}

func TestCollectWritesEventTrace(t *testing.T) {
	dir := t.TempDir()
	fp, err := Collect("kmeans-low", platform.ZEC12, Options{Scale: stamp.ScaleTest, TraceDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "kmeans-low-"+platform.ZEC12.Short()+".jsonl")
	n, err := obs.ValidateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Every committed transaction contributes at least a begin and a commit.
	if n < 2*fp.Transactions {
		t.Errorf("trace holds %d events for %d transactions, want >= %d", n, fp.Transactions, 2*fp.Transactions)
	}
}

func TestCollectTraceDirErrorPropagates(t *testing.T) {
	// A file in place of the directory makes the JSONL write fail.
	dir := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(dir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Collect("kmeans-low", platform.ZEC12, Options{Scale: stamp.ScaleTest, TraceDir: dir}); err == nil {
		t.Error("unwritable trace dir did not error")
	}
}
