package htmcmp

import (
	"strings"
	"testing"
)

// The facade tests double as API-stability checks: downstream users program
// against exactly these names.

func TestFacadeQuickstartFlow(t *testing.T) {
	eng := NewEngine(ZEC12, EngineConfig{Threads: 2, SpaceSize: 4 << 20, CostScale: 0})
	lock := NewGlobalLock(eng)
	counter := eng.Thread(0).Alloc(64)
	eng.Run(2, func(_ int, th *Thread) {
		x := NewExecutor(th, lock, DefaultPolicy(ZEC12))
		for j := 0; j < 200; j++ {
			x.Run(func(th *Thread) {
				th.Store64(counter, th.Load64(counter)+1)
			})
		}
	})
	if got := eng.Thread(0).Load64(counter); got != 400 {
		t.Errorf("counter = %d, want 400", got)
	}
}

func TestFacadePlatforms(t *testing.T) {
	all := AllPlatforms()
	if len(all) != 4 {
		t.Fatalf("AllPlatforms returned %d entries", len(all))
	}
	if NewPlatform(POWER8).LoadCapacity != 8<<10 {
		t.Error("POWER8 capacity wrong through facade")
	}
}

func TestFacadeStampRoundtrip(t *testing.T) {
	names := StampNames()
	if len(names) != 10 {
		t.Fatalf("StampNames returned %d benchmarks", len(names))
	}
	b, err := NewStamp("ssca2", StampConfig{Scale: ScaleTest, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(IntelCore, EngineConfig{Threads: 1, SpaceSize: 16 << 20, CostScale: 0})
	b.Setup(eng.Thread(0))
	b.Run([]Runner{SeqRunner{T: eng.Thread(0)}})
	if err := b.Validate(eng.Thread(0)); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeMeasure(t *testing.T) {
	res, err := Measure(RunSpec{
		Platform: ZEC12, Benchmark: "kmeans-low",
		Threads: 2, Scale: ScaleTest, Repeats: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup <= 0 {
		t.Errorf("speedup = %v", res.Speedup)
	}
}

func TestFacadeTable1(t *testing.T) {
	var sb strings.Builder
	tb := Table1()
	tb.Fprint(&sb)
	if !strings.Contains(sb.String(), "POWER8") {
		t.Error("Table 1 missing POWER8 column")
	}
}

func TestFacadeFootprint(t *testing.T) {
	fp, err := CollectFootprint("kmeans-low", IntelCore, FootprintOptions{Scale: ScaleTest})
	if err != nil {
		t.Fatal(err)
	}
	if fp.Transactions == 0 {
		t.Error("no transactions traced")
	}
}

func TestFacadeSTM(t *testing.T) {
	eng := NewEngine(ZEC12, EngineConfig{Threads: 1, SpaceSize: 2 << 20, CostScale: 0})
	th := eng.Thread(0)
	a := th.Alloc(64)
	ok, _ := th.TrySTM(func() { th.Store64(a, 7) })
	if !ok || th.Load64(a) != 7 {
		t.Error("STM through facade broken")
	}
}
