package htm

import (
	"testing"

	"htmcmp/internal/chaos"
	"htmcmp/internal/platform"
)

// chaosEngine builds a cost-free engine with the given chaos op-rates (every
// cell-level affliction decision is bypassed: the injector rolls directly).
func chaosEngine(t *testing.T, k platform.Kind, threads int, rates map[chaos.Class]float64) (*Engine, *chaos.Injector) {
	t.Helper()
	cfg := chaos.Config{Seed: 99}
	for c, p := range rates { //htmlint:allow determinism -- keyed copy into OpRates, order-insensitive
		cfg.OpRates[c] = p
	}
	in := chaos.New(cfg)
	e := New(platform.New(k), Config{
		Threads:                 threads,
		SpaceSize:               1 << 20,
		Seed:                    42,
		CostScale:               0,
		DisableCacheFetchAborts: true,
		DisablePrefetch:         true,
		Faults:                  in,
	})
	return e, in
}

func TestChaosSpuriousAbortAtCommit(t *testing.T) {
	// With a certain roll, the first commit attempt dies with the injected
	// interrupt reason, transient, and the stores roll back.
	e, in := chaosEngine(t, platform.IntelCore, 1, map[chaos.Class]float64{chaos.SpuriousAbort: 1})
	th := e.Thread(0)
	a := th.Alloc(64)
	th.Store64(a, 7)
	ok, ab := th.TryTx(TxNormal, func() { th.Store64(a, 99) })
	if ok {
		t.Fatal("transaction committed through a certain spurious abort")
	}
	if ab.Reason != ReasonInterrupt || ab.Persistent {
		t.Fatalf("abort = %+v, want transient interrupt", ab)
	}
	if got := th.Load64(a); got != 7 {
		t.Fatalf("injected abort leaked stores: Load64 = %d, want 7", got)
	}
	if in.Fired(chaos.SpuriousAbort) != 1 {
		t.Fatalf("fired = %d, want 1", in.Fired(chaos.SpuriousAbort))
	}
}

func TestChaosSpuriousAbortRecoversByRetry(t *testing.T) {
	// At p=0.5 a bounded retry loop recovers every execution: injected
	// interrupts are transient, exactly like the platform aborts they model.
	e, in := chaosEngine(t, platform.IntelCore, 1, map[chaos.Class]float64{chaos.SpuriousAbort: 0.5})
	th := e.Thread(0)
	a := th.Alloc(64)
	committed := 0
	for i := 0; i < 50; i++ {
		for attempt := 0; ; attempt++ {
			if attempt > 100 {
				t.Fatal("transient injected abort did not clear after 100 retries")
			}
			ok, ab := th.TryTx(TxNormal, func() { th.Store64(a, th.Load64(a)+1) })
			if ok {
				committed++
				break
			}
			if ab.Reason != ReasonInterrupt {
				t.Fatalf("unexpected abort %+v", ab)
			}
		}
	}
	if got := th.Load64(a); got != uint64(committed) {
		t.Fatalf("counter = %d after %d commits", got, committed)
	}
	if in.Fired(chaos.SpuriousAbort) == 0 {
		t.Fatal("p=0.5 never fired")
	}
	st := e.Stats()
	if st.AbortsByReason[ReasonInterrupt] != in.Fired(chaos.SpuriousAbort) {
		t.Fatalf("engine counted %d interrupt aborts, injector fired %d",
			st.AbortsByReason[ReasonInterrupt], in.Fired(chaos.SpuriousAbort))
	}
}

func TestChaosCapacityFaultIsPersistent(t *testing.T) {
	e, in := chaosEngine(t, platform.POWER8, 1, map[chaos.Class]float64{chaos.CapacityFault: 1})
	th := e.Thread(0)
	a := th.Alloc(64)
	ok, ab := th.TryTx(TxNormal, func() { _ = th.Load64(a) })
	if ok {
		t.Fatal("transaction committed through a certain capacity fault")
	}
	if !ab.Persistent || ab.Reason.Category() != CategoryCapacity {
		t.Fatalf("abort = %+v, want persistent capacity", ab)
	}
	if in.Fired(chaos.CapacityFault) == 0 {
		t.Fatal("capacity fault did not count")
	}
}

func TestChaosSTMContentionForcesRevalidation(t *testing.T) {
	e, in := chaosEngine(t, platform.IntelCore, 1, map[chaos.Class]float64{chaos.STMContention: 1})
	th := e.Thread(0)
	a := th.Alloc(64)
	th.Store64(a, 5)
	before := e.stmSeq
	ok, _ := th.TrySTM(func() {
		if got := th.Load64(a); got != 5 {
			t.Errorf("STM read %d, want 5", got)
		}
		th.Store64(a, 6)
	})
	if !ok {
		t.Fatal("injected seqlock contention aborted the STM transaction (no values changed)")
	}
	if got := th.Load64(a); got != 6 {
		t.Fatalf("STM commit lost: Load64 = %d, want 6", got)
	}
	if in.Fired(chaos.STMContention) == 0 {
		t.Fatal("contention injection never fired")
	}
	after := e.stmSeq
	if after&1 != 0 || after <= before {
		t.Fatalf("sequence lock %d -> %d: want advanced and even", before, after)
	}
}

func TestChaosHardenedConstrainedImmune(t *testing.T) {
	// zEC12 constrained transactions are guaranteed to commit; the injector
	// must respect the arbiter's hardening rather than livelock it.
	e, _ := chaosEngine(t, platform.ZEC12, 1, map[chaos.Class]float64{
		chaos.SpuriousAbort: 1, chaos.CapacityFault: 1,
	})
	th := e.Thread(0)
	a := th.Alloc(64)
	th.RunConstrained(func() { th.Store64(a, 11) })
	if got := th.Load64(a); got != 11 {
		t.Fatalf("constrained tx lost under chaos: Load64 = %d, want 11", got)
	}
}

// TestChaosZeroRateCycleIdentical pins the zero-overhead discipline: an
// attached injector whose rates are all zero yields a run cycle-identical to
// one with no injector at all.
func TestChaosZeroRateCycleIdentical(t *testing.T) {
	run := func(in *chaos.Injector) (uint64, Stats) {
		cfg := Config{
			Threads: 4, SpaceSize: 1 << 20, Seed: 42, CostScale: 1,
			Faults: in,
		}
		e := New(platform.New(platform.ZEC12), cfg)
		base := e.Thread(0).Alloc(64)
		e.ResetClocks()
		e.Run(4, func(_ int, th *Thread) {
			for n := 0; n < 200; n++ {
				for {
					ok, _ := th.TryTx(TxNormal, func() { th.Store64(base, th.Load64(base)+1) })
					if ok {
						break
					}
				}
			}
		})
		return e.MaxClock(), e.Stats()
	}
	clockOff, statsOff := run(nil)
	clockZero, statsZero := run(chaos.New(chaos.Config{Seed: 1}))
	if clockOff != clockZero {
		t.Fatalf("zero-rate injector changed the clock: %d vs %d", clockOff, clockZero)
	}
	if statsOff != statsZero {
		t.Fatalf("zero-rate injector changed stats: %+v vs %+v", statsOff, statsZero)
	}
}
