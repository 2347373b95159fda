package harness

import (
	"reflect"
	"testing"

	"htmcmp/internal/chaos"
	"htmcmp/internal/htm"
	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
	"htmcmp/internal/tm"
	"htmcmp/internal/verify"
)

// spuriousInjector returns an injector whose only effect is interrupt-style
// aborts at commit boundaries, at a rate high enough to fire in a
// test-scale run.
func spuriousInjector(rate float64) *chaos.Injector {
	cfg := chaos.Config{Seed: 1234}
	cfg.OpRates[chaos.SpuriousAbort] = rate
	return chaos.New(cfg)
}

// TestChaosRunRecovers: a measured harness run with engine-level spurious
// aborts completes, validates, and actually saw injections — transient
// interrupt aborts are recovered by the runtime's ordinary retry policy.
func TestChaosRunRecovers(t *testing.T) {
	in := spuriousInjector(0.05)
	spec := RunSpec{
		Platform: platform.ZEC12, Benchmark: "ssca2", Threads: 2,
		Scale: stamp.ScaleTest, Variant: stamp.Modified, Seed: 42,
		Repeats: 1, Faults: in,
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
	if in.Fired(chaos.SpuriousAbort) == 0 {
		t.Fatal("no spurious aborts fired; the run proved nothing")
	}
	if res.Engine.AbortsByReason[htm.ReasonInterrupt] == 0 {
		t.Fatal("engine stats show no interrupt aborts")
	}
	if res.Engine.Commits == 0 {
		t.Fatal("run committed nothing")
	}
}

// TestChaosRegionsServeCleanRetry: a faulted run and then a clean run of one
// spec through one memo share the sequential baselines, which always run
// clean, but no parallel repeat: the injector is part of a parallel
// region's key, so the clean run equals a fresh one.
func TestChaosRegionsServeCleanRetry(t *testing.T) {
	clean := RunSpec{
		Platform: platform.ZEC12, Benchmark: "ssca2", Threads: 2,
		Scale: stamp.ScaleTest, Variant: stamp.Modified, Seed: 42, Repeats: 2,
	}
	want, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegions()
	faulted := clean
	faulted.Faults = spuriousInjector(0.05)
	bad, err := r.Run(faulted)
	if err != nil {
		t.Fatal(err)
	}
	if bad.Engine.AbortsByReason[htm.ReasonInterrupt] == 0 {
		t.Fatal("no injected aborts in the faulted run; the test proves nothing")
	}
	got, err := r.Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("clean run after a faulted one on one memo\n got %+v\nwant %+v", got, want)
	}
	if n := r.Simulated(); n != 6 {
		t.Errorf("%d regions simulated, want 6: two baselines both runs share, two parallel repeats each", n)
	}
}

// TestChaosVerifyDifferential is the satellite check: the differential
// {HTM, STM, lock} cross-verification must agree under injected spurious
// aborts, not only on clean executions.
func TestChaosVerifyDifferential(t *testing.T) {
	in := spuriousInjector(0.05)
	spec := RunSpec{
		Platform: platform.ZEC12, Benchmark: "ssca2", Threads: 2,
		Scale: stamp.ScaleTest, Variant: stamp.Modified, Seed: 42,
		Repeats: 1, Faults: in,
	}
	if err := Verify(spec); err != nil {
		t.Fatalf("differential verification diverged under chaos: %v", err)
	}
	if in.Fired(chaos.SpuriousAbort) == 0 {
		t.Fatal("verification ran without any injected aborts")
	}
}

// TestChaosWitnessReplaySerializable: a witnessed run under injected
// spurious aborts (plus a sprinkle of forced capacity overflows) still
// replays serializably — injected aborts unwind through the ordinary
// rollback path and never leak speculative state.
func TestChaosWitnessReplaySerializable(t *testing.T) {
	cfg := chaos.Config{Seed: 7}
	cfg.OpRates[chaos.SpuriousAbort] = 0.1
	cfg.OpRates[chaos.CapacityFault] = 0.001
	in := chaos.New(cfg)

	wit := htm.NewWitness()
	const threads = 4
	e := htm.New(platform.New(platform.POWER8), htm.Config{
		Threads: threads, SpaceSize: 4 << 20, Seed: 20260808,
		CostScale: 1, Witness: wit, Faults: in,
	})
	lock := tm.NewGlobalLock(e)
	setup := e.Thread(0)
	line := uint64(e.LineSize())
	const lines = 8
	base := setup.Alloc(lines * e.LineSize())
	total := setup.Alloc(8)
	e.ResetClocks()
	wit.Start()

	e.Run(threads, func(_ int, th *htm.Thread) {
		x := tm.NewExecutor(th, lock, tm.DefaultPolicy(platform.POWER8))
		rng := th.Rand()
		for n := 0; n < 150; n++ {
			x.Run(func(t *htm.Thread) {
				off := uint64(rng.Intn(lines))
				for l := uint64(0); l < 3; l++ {
					a := base + ((off+l)%lines)*line
					t.Store64(a, t.Load64(a)+1)
				}
				t.Store64(total, t.Load64(total)+1)
			})
		}
	})

	if in.TotalFired() == 0 {
		t.Fatal("chaos never fired; the replay proves nothing")
	}
	if got := setup.Load64(total); got != threads*150 {
		t.Fatalf("lost updates under chaos: total = %d, want %d", got, threads*150)
	}
	if v := verify.Replay(wit.Log()); v != nil {
		t.Fatalf("chaos run does not replay serializably: %v", v)
	}
}
