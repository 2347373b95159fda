package stamp

import (
	"math"
	"slices"
	"testing"

	"htmcmp/internal/htm"
	"htmcmp/internal/platform"
	"htmcmp/internal/tm"
)

// Per-benchmark behavioural tests, beyond the registry-wide validation runs
// in stamp_test.go.

func seqRun(t *testing.T, name string, cfg Config, k platform.Kind) (Benchmark, *htm.Engine) {
	t.Helper()
	e := htm.New(platform.New(k), htm.Config{
		Threads: 1, SpaceSize: 96 << 20, Seed: cfg.Seed + 1, CostScale: 0,
	})
	b, err := New(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.Setup(e.Thread(0))
	b.Run([]Runner{SeqRunner{T: e.Thread(0)}})
	if err := b.Validate(e.Thread(0)); err != nil {
		t.Fatal(err)
	}
	return b, e
}

func TestGenomeReconstructionAcrossChunks(t *testing.T) {
	for _, chunk := range []int{1, 2, 9, 24} {
		b, _ := seqRun(t, "genome", Config{Scale: ScaleTest, Seed: 5, ChunkStep1: chunk}, platform.IntelCore)
		g := b.(*genome)
		if string(g.result) != string(g.gene) {
			t.Errorf("chunk %d: reconstruction mismatch", chunk)
		}
	}
}

func TestGenomeOriginalUsesLargerChunk(t *testing.T) {
	orig := newGenome(Config{Scale: ScaleTest, Variant: Original})
	mod := newGenome(Config{Scale: ScaleTest, Variant: Modified})
	if orig.chunk <= mod.chunk {
		t.Errorf("original chunk %d must exceed modified %d (the Section 4 tuning)", orig.chunk, mod.chunk)
	}
}

func TestIntruderCountsInjectedAttacks(t *testing.T) {
	b, _ := seqRun(t, "intruder", Config{Scale: ScaleTest, Seed: 7}, platform.IntelCore)
	in := b.(*intruder)
	if in.nAttacks == 0 {
		t.Fatal("no attacks were injected; the detector is untested")
	}
	if in.found != in.nAttacks {
		t.Errorf("found %d attacks, injected %d", in.found, in.nAttacks)
	}
}

func TestKMeansVariantLayouts(t *testing.T) {
	e := htm.New(platform.New(platform.ZEC12), htm.Config{
		Threads: 1, SpaceSize: 16 << 20, CostScale: 0,
	})
	line := uint64(e.LineSize())
	mod := newKMeans(Config{Scale: ScaleTest, Variant: Modified, Seed: 1}, true)
	mod.Setup(e.Thread(0))
	for c, a := range mod.accum {
		if a%line != 0 {
			t.Errorf("modified: cluster %d at %#x not line-aligned", c, a)
		}
	}
	orig := newKMeans(Config{Scale: ScaleTest, Variant: Original, Seed: 1}, true)
	orig.Setup(e.Thread(0))
	misaligned := 0
	for _, a := range orig.accum {
		if a%line != 0 {
			misaligned++
		}
	}
	if misaligned == 0 {
		t.Error("original: no cluster record is misaligned (Section 4's false-conflict source missing)")
	}
}

func TestLabyrinthPathsAreDisjoint(t *testing.T) {
	b, e := seqRun(t, "labyrinth", Config{Scale: ScaleTest, Seed: 9}, platform.IntelCore)
	l := b.(*labyrinth)
	claimed := map[int]int{}
	for id, path := range l.paths {
		for _, c := range path {
			if prev, dup := claimed[c]; dup {
				t.Fatalf("cell %d claimed by routes %d and %d", c, prev, id)
			}
			claimed[c] = id
		}
	}
	_ = e
}

func TestVacationOriginalUsesTrees(t *testing.T) {
	e := htm.New(platform.New(platform.IntelCore), htm.Config{
		Threads: 1, SpaceSize: 32 << 20, CostScale: 0,
	})
	v := newVacation(Config{Scale: ScaleTest, Variant: Original, Seed: 1}, true)
	v.Setup(e.Thread(0))
	if !v.resources[0].useTree || !v.customers.useTree {
		t.Error("original vacation must use red-black trees for its tables")
	}
	m := newVacation(Config{Scale: ScaleTest, Variant: Modified, Seed: 1}, true)
	m.Setup(e.Thread(0))
	if m.resources[0].useTree {
		t.Error("modified vacation must use hash tables")
	}
}

func TestVacationParameterSets(t *testing.T) {
	hi := newVacation(Config{}, true)
	lo := newVacation(Config{}, false)
	// STAMP: -n4 -q60 -u90 vs -n2 -q90 -u98.
	if hi.numQuery != 4 || hi.queryPct != 60 || hi.userPct != 90 {
		t.Errorf("vacation-high params = %d/%d/%d", hi.numQuery, hi.queryPct, hi.userPct)
	}
	if lo.numQuery != 2 || lo.queryPct != 90 || lo.userPct != 98 {
		t.Errorf("vacation-low params = %d/%d/%d", lo.numQuery, lo.queryPct, lo.userPct)
	}
}

func TestKMeansContentionParameters(t *testing.T) {
	hi := newKMeans(Config{}, true)
	lo := newKMeans(Config{}, false)
	if hi.nClusters != 15 || lo.nClusters != 40 {
		t.Errorf("cluster counts = %d/%d, want 15/40 (STAMP -m15/-m40)", hi.nClusters, lo.nClusters)
	}
}

func TestYadaAccountingSequential(t *testing.T) {
	b, _ := seqRun(t, "yada", Config{Scale: ScaleTest, Seed: 11}, platform.IntelCore)
	y := b.(*yada)
	if y.refinements+y.preempted != y.nBad+y.spawned {
		t.Errorf("work accounting broken: %d+%d != %d+%d",
			y.refinements, y.preempted, y.nBad, y.spawned)
	}
	if y.refinements == 0 {
		t.Error("no refinements")
	}
}

func TestBayesLearnsSomeEdges(t *testing.T) {
	b, _ := seqRun(t, "bayes", Config{Scale: ScaleTest, Seed: 13}, platform.IntelCore)
	by := b.(*bayes)
	if by.inserted == 0 {
		t.Error("hill climbing inserted no edges")
	}
	if by.processed != by.nVars*by.maxRounds {
		t.Errorf("processed %d tasks, want %d", by.processed, by.nVars*by.maxRounds)
	}
}

// worn returns a visited set over [0, n) on the brink of an epoch wrap,
// with stale marks at each epoch its next resets can land on (0, 1, 2).
func worn(n int) visited {
	s := visited{marks: make([]uint32, n), epoch: math.MaxUint32}
	for v := range s.marks {
		s.marks[v] = uint32(v % 3)
	}
	return s
}

// TestScratchEpochWrap: a bayes walk and a labyrinth router whose epoch is
// math.MaxUint32 must answer two queries across the wrap exactly as fresh
// scratch does.
func TestScratchEpochWrap(t *testing.T) {
	b, e := seqRun(t, "bayes", Config{Scale: ScaleTest, Seed: 13}, platform.IntelCore)
	by, th := b.(*bayes), e.Thread(0)
	multiHop := 0
	for src := 0; src < by.nVars; src++ {
		for dst := 0; dst < by.nVars; dst++ {
			want := by.reaches(th, by.newWalk(), src, dst)
			if want && src != dst && !by.hasChild(th, src, dst) {
				multiHop++
			}
			w := &walk{seen: worn(by.nVars)}
			for i := 0; i < 2; i++ {
				if got := by.reaches(th, w, src, dst); got != want {
					t.Fatalf("bayes %d→%d, walk %d after the wrap: reaches %v, fresh walk %v", src, dst, i, got, want)
				}
			}
		}
	}
	if multiHop == 0 {
		t.Fatal("no pair is reachable over two or more edges: the walks never read their marks")
	}

	b, e = seqRun(t, "labyrinth", Config{Scale: ScaleTest, Seed: 9}, platform.IntelCore)
	l, th := b.(*labyrinth), e.Thread(0)
	var free []int
	for i := 0; i < l.cells(); i++ {
		if th.Load64(l.cellAddr(i)) == 0 {
			free = append(free, i)
		}
	}
	routed := 0
	for i := 0; i < len(free); i += 7 {
		src, dst := free[i], free[len(free)-1-i]
		want := slices.Clone(l.route(th, l.newRouter(), src, dst))
		if want != nil {
			routed++
		}
		rt := l.newRouter()
		rt.seen = worn(l.cells())
		for j := 0; j < 2; j++ {
			if got := l.route(th, rt, src, dst); !slices.Equal(got, want) {
				t.Fatalf("labyrinth %d→%d, route %d after the wrap: %v, fresh router %v", src, dst, j, got, want)
			}
		}
	}
	if routed == 0 {
		t.Fatal("no free pair was routable")
	}
}

// TestBenchmarksUnderSTMRunner: the same workloads must validate when every
// critical section runs as a NOrec software transaction.
func TestBenchmarksUnderSTMRunner(t *testing.T) {
	for _, name := range []string{"kmeans-low", "ssca2", "vacation-low", "genome", "yada"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			e := htm.New(platform.New(platform.ZEC12), htm.Config{
				Threads: 4, SpaceSize: 96 << 20, Seed: 15, CostScale: 0,
			})
			b, err := New(name, Config{Scale: ScaleTest, Seed: 15})
			if err != nil {
				t.Fatal(err)
			}
			b.Setup(e.Thread(0))
			lock := tm.NewGlobalLock(e)
			runners := make([]Runner, 4)
			for i := range runners {
				runners[i] = STMRunner{X: tm.NewExecutor(e.Thread(i), lock, tm.DefaultPolicy(platform.ZEC12))}
			}
			b.Run(runners)
			if err := b.Validate(e.Thread(0)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestParallelDeterminismPerBenchmark: identical virtual-time runs must give
// identical speed-relevant outcomes for deterministic benchmarks.
func TestParallelDeterminismPerBenchmark(t *testing.T) {
	run := func(name string) (uint64, htm.Stats) {
		e := htm.New(platform.New(platform.POWER8), htm.Config{
			Threads: 4, SpaceSize: 96 << 20, Seed: 17, CostScale: 1,
		})
		b, err := New(name, Config{Scale: ScaleTest, Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		b.Setup(e.Thread(0))
		lock := tm.NewGlobalLock(e)
		runners := make([]Runner, 4)
		for i := range runners {
			runners[i] = TMRunner{X: tm.NewExecutor(e.Thread(i), lock, tm.DefaultPolicy(platform.POWER8))}
		}
		e.ResetClocks()
		b.Run(runners)
		if err := b.Validate(e.Thread(0)); err != nil {
			t.Fatal(err)
		}
		return e.MaxClock(), e.Stats()
	}
	for _, name := range []string{"kmeans-high", "vacation-low", "intruder"} {
		c1, s1 := run(name)
		c2, s2 := run(name)
		if c1 != c2 || s1 != s2 {
			t.Errorf("%s: runs differ (clock %d vs %d)", name, c1, c2)
		}
	}
}
