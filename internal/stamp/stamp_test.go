package stamp

import (
	"strings"
	"testing"

	"htmcmp/internal/htm"
	"htmcmp/internal/platform"
	"htmcmp/internal/tm"
)

// runBench builds a fresh engine, sets up the benchmark, runs it on nThreads
// (sequentially when nThreads == 0), validates, and returns the executors'
// aggregate stats.
func runBench(t *testing.T, name string, cfg Config, k platform.Kind, nThreads int) tm.Stats {
	t.Helper()
	threads := nThreads
	if threads == 0 {
		threads = 1
	}
	e := htm.New(platform.New(k), htm.Config{
		Threads:   threads,
		SpaceSize: 96 << 20,
		Seed:      cfg.Seed + 1,
		CostScale: 0,
	})
	b, err := New(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.Setup(e.Thread(0))
	var agg tm.Stats
	if nThreads == 0 {
		b.Run([]Runner{SeqRunner{T: e.Thread(0)}})
	} else {
		lock := tm.NewGlobalLock(e)
		runners := make([]Runner, nThreads)
		execs := make([]*tm.Executor, nThreads)
		for i := range runners {
			execs[i] = tm.NewExecutor(e.Thread(i), lock, tm.DefaultPolicy(k))
			runners[i] = TMRunner{X: execs[i]}
		}
		b.Run(runners)
		for _, x := range execs {
			agg.Add(&x.Stats)
		}
	}
	if err := b.Validate(e.Thread(0)); err != nil {
		t.Fatalf("%s/%s/%d threads: %v", name, k, nThreads, err)
	}
	if b.Units() <= 0 {
		t.Fatalf("%s: Units() = %d, want > 0", name, b.Units())
	}
	return agg
}

func TestAllBenchmarksSequential(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			runBench(t, name, Config{Scale: ScaleTest, Seed: 11}, platform.IntelCore, 0)
		})
	}
}

func TestAllBenchmarksParallelAllPlatforms(t *testing.T) {
	for _, k := range platform.Kinds() {
		k := k
		for _, name := range Names() {
			name := name
			t.Run(k.Short()+"/"+name, func(t *testing.T) {
				t.Parallel()
				st := runBench(t, name, Config{Scale: ScaleTest, Seed: 13}, k, 4)
				if st.Commits() == 0 {
					t.Error("no committed critical sections")
				}
			})
		}
	}
}

func TestOriginalVariantsSequential(t *testing.T) {
	for _, name := range ModifiedNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			runBench(t, name, Config{Scale: ScaleTest, Variant: Original, Seed: 17}, platform.IntelCore, 0)
		})
	}
}

func TestOriginalVariantsParallel(t *testing.T) {
	for _, name := range ModifiedNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			runBench(t, name, Config{Scale: ScaleTest, Variant: Original, Seed: 19}, platform.POWER8, 4)
		})
	}
}

func TestGenomeChunkStepOverride(t *testing.T) {
	runBench(t, "genome", Config{Scale: ScaleTest, Seed: 23, ChunkStep1: 9}, platform.BlueGeneQ, 2)
}

func TestSimScaleSpotChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("sim scale in -short mode")
	}
	for _, name := range []string{"kmeans-high", "ssca2", "vacation-low"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			runBench(t, name, Config{Scale: ScaleSim, Seed: 29}, platform.ZEC12, 4)
		})
	}
}

func TestNamesOrderAndRegistry(t *testing.T) {
	names := Names()
	if len(names) != 10 {
		t.Fatalf("registry has %d benchmarks, want 10: %v", len(names), names)
	}
	if names[0] != "bayes" || names[len(names)-1] != "yada" {
		t.Errorf("paper order violated: %v", names)
	}
	if _, err := New("nonexistent", Config{}); err == nil {
		t.Error("New of unknown benchmark did not error")
	}
	for _, m := range ModifiedNames() {
		found := false
		for _, n := range names {
			if n == m {
				found = true
			}
		}
		if !found {
			t.Errorf("modified benchmark %s not in registry", m)
		}
	}
}

// TestBarrierVirtualMode checks the scheduler-aware barrier: clocks of all
// parties synchronise to the maximum at each crossing.
func TestBarrierVirtualMode(t *testing.T) {
	const n = 4
	e := htm.New(platform.New(platform.IntelCore), htm.Config{
		Threads: n, SpaceSize: 1 << 20, CostScale: 0,
	})
	bar := e.NewBarrier(n)
	clocks := make([]uint64, n)
	e.Run(n, func(tid int, th *htm.Thread) {
		th.Work((tid + 1) * 100) // unequal work before the barrier
		bar.Wait(th)
		clocks[tid] = th.Clock()
	})
	for i := 1; i < n; i++ {
		if clocks[i] != clocks[0] {
			t.Fatalf("clocks diverge after barrier: %v", clocks)
		}
	}
	if clocks[0] < uint64(n*100) {
		t.Errorf("barrier clock %d below the slowest party's work", clocks[0])
	}
}

// TestHLERunnerOnSTAMP drives a benchmark through the HLE runner (Figure 7's
// execution mode).
func TestHLERunnerOnSTAMP(t *testing.T) {
	e := htm.New(platform.New(platform.IntelCore), htm.Config{
		Threads: 4, SpaceSize: 64 << 20, Seed: 31, CostScale: 0,
	})
	b, err := New("ssca2", Config{Scale: ScaleTest, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	b.Setup(e.Thread(0))
	lock := tm.NewGlobalLock(e)
	runners := make([]Runner, 4)
	for i := range runners {
		runners[i] = HLERunner{X: tm.NewExecutor(e.Thread(i), lock, tm.DefaultPolicy(platform.IntelCore))}
	}
	b.Run(runners)
	if err := b.Validate(e.Thread(0)); err != nil {
		t.Fatal(err)
	}
}

// TestParseScaleInvertsString: every scale parses back from its own name,
// and anything else is an error that lists the names.
func TestParseScaleInvertsString(t *testing.T) {
	for _, s := range []Scale{ScaleTest, ScaleSim, ScaleFull} {
		if got, err := ParseScale(s.String()); err != nil || got != s {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	for _, name := range []string{"", "tiny", "Sim", "?"} {
		if _, err := ParseScale(name); err == nil || !strings.Contains(err.Error(), "test, sim, full") {
			t.Errorf("ParseScale(%q) error = %v, want one listing the names", name, err)
		}
	}
}
