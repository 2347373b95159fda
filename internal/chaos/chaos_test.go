package chaos

import "testing"

func TestAfflictsDeterministicAndOrderIndependent(t *testing.T) {
	in := New(DefaultConfig(7))
	keys := []string{"cell-a", "cell-b", "cell-c", "cell-d", "cell-e"}
	first := map[string]bool{}
	for _, k := range keys {
		first[k] = in.Afflicts(CacheCorrupt, k)
	}
	// Re-query in reverse order, through a fresh injector: decisions are a
	// pure function of (seed, class, key), never of query order or state.
	in2 := New(DefaultConfig(7))
	for i := len(keys) - 1; i >= 0; i-- {
		k := keys[i]
		if got := in2.Afflicts(CacheCorrupt, k); got != first[k] {
			t.Fatalf("Afflicts(%q) changed across injectors/order: %v vs %v", k, got, first[k])
		}
	}
}

func TestAfflictsSeedSensitivity(t *testing.T) {
	// Across many keys, two seeds must not produce identical afflictions
	// (astronomically unlikely unless the hash ignores the seed).
	a, b := New(DefaultConfig(1)), New(DefaultConfig(2))
	same := true
	for i := 0; i < 256 && same; i++ {
		k := string(rune('a'+i%26)) + string(rune('0'+i%10)) + "key"
		if a.Afflicts(CacheCorrupt, k) != b.Afflicts(CacheCorrupt, k) {
			same = false
		}
	}
	if same {
		t.Fatal("afflictions identical across different seeds")
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.Afflicts(CacheCorrupt, "k") {
		t.Fatal("nil injector afflicted a cell")
	}
	if in.EngineFor("k") != nil {
		t.Fatal("nil injector built an engine child")
	}
	if in.Stream(0).Roll(SpuriousAbort) {
		t.Fatal("nil stream fired")
	}
	if in.TotalFired() != 0 || in.Fired(CacheCorrupt) != 0 {
		t.Fatal("nil injector counted")
	}
	in.Note(CacheCorrupt) // must not panic
}

func TestEngineForOnlyEngineClasses(t *testing.T) {
	cfg := DefaultConfig(11)
	for c := Class(0); c < NumClasses; c++ {
		cfg.Rates[c] = 1
	}
	in := New(cfg)
	child := in.EngineFor("some-cell")
	if child == nil {
		t.Fatal("every class afflicted, expected a child injector")
	}
	ccfg := child.cfg
	for c := SpuriousAbort; c <= ModeThrash; c++ {
		if ccfg.OpRates[c] != cfg.OpRates[c] {
			t.Errorf("engine class %s op-rate = %v, want %v", c, ccfg.OpRates[c], cfg.OpRates[c])
		}
	}
	if ccfg.OpRates[CacheCorrupt] != 0 {
		t.Errorf("harness class %s leaked into engine child", CacheCorrupt)
	}
	// A cell no engine class afflicts gets no child at all.
	for c := SpuriousAbort; c <= ModeThrash; c++ {
		cfg.Rates[c] = 0
	}
	if New(cfg).EngineFor("some-cell") != nil {
		t.Fatal("a cell afflicted by no engine class produced an engine child")
	}
}

func TestStreamDeterministicAndCounted(t *testing.T) {
	cfg := Config{Seed: 5}
	cfg.OpRates[SpuriousAbort] = 0.5
	a, b := New(cfg), New(cfg)
	sa, sb := a.Stream(3), b.Stream(3)
	fired := 0
	for i := 0; i < 1000; i++ {
		ra, rb := sa.Roll(SpuriousAbort), sb.Roll(SpuriousAbort)
		if ra != rb {
			t.Fatalf("roll %d diverged between identical streams", i)
		}
		if ra {
			fired++
		}
	}
	if fired == 0 {
		t.Fatal("p=0.5 over 1000 rolls never fired")
	}
	if got := a.Fired(SpuriousAbort); got != uint64(fired) {
		t.Fatalf("Fired=%d, observed %d", got, fired)
	}
	if a.TotalFired() != uint64(fired) {
		t.Fatalf("TotalFired=%d, observed %d", a.TotalFired(), fired)
	}
	if a.Counts()[SpuriousAbort.String()] != uint64(fired) {
		t.Fatalf("Counts missing %s", SpuriousAbort)
	}
	// Zero-rate classes must not perturb the stream or count.
	if sa.Roll(CapacityFault) {
		t.Fatal("zero-rate class fired")
	}
}

func TestClassStringsAndLevels(t *testing.T) {
	seen := map[string]bool{}
	for c := Class(0); c < NumClasses; c++ {
		s := c.String()
		if s == "" || seen[s] {
			t.Fatalf("class %d has empty or duplicate name %q", c, s)
		}
		seen[s] = true
	}
	if Class(250).String() == "" {
		t.Fatal("out-of-range class has empty name")
	}
}
