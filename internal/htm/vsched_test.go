package htm

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"htmcmp/internal/platform"
	"htmcmp/internal/prng"
)

// runVirtualCounters runs a counter workload under the virtual scheduler and
// returns (maxClock, stats). With shared=false every thread owns a private
// counter line; with shared=true all threads hammer one line.
func runVirtualCounters(t *testing.T, threads, perThread int, shared bool, seed uint64) (uint64, Stats) {
	t.Helper()
	e := New(platform.New(platform.IntelCore), Config{
		Threads: threads, SpaceSize: 4 << 20, Seed: seed, CostScale: 1,
		DisablePrefetch: true,
	})
	base := e.Thread(0).Alloc(threads * 256)
	e.ResetClocks()
	e.Run(threads, func(tid int, th *Thread) {
		addr := base
		if !shared {
			addr += uint64(tid * 256)
		}
		for j := 0; j < perThread; j++ {
			th.Work(50)
			for {
				ok, _ := th.TryTx(TxNormal, func() {
					th.Store64(addr, th.Load64(addr)+1)
				})
				if ok {
					break
				}
			}
		}
	})
	return e.MaxClock(), e.Stats()
}

func TestVirtualDisjointScalesPerfectly(t *testing.T) {
	c1, _ := runVirtualCounters(t, 1, 500, false, 7)
	c4, _ := runVirtualCounters(t, 4, 500, false, 7)
	// Independent threads: the 4-thread region lasts exactly as long as one
	// thread's own work.
	if c4 != c1 {
		t.Errorf("4-thread clock %d != 1-thread clock %d for disjoint work", c4, c1)
	}
}

func TestVirtualSharedCounterConflictsAndStaysExact(t *testing.T) {
	_, st := runVirtualCounters(t, 4, 300, true, 7)
	if st.Commits != 4*300 {
		t.Errorf("commits = %d, want %d", st.Commits, 4*300)
	}
	if st.Aborts == 0 {
		t.Error("shared-counter run produced no conflicts: threads are not overlapping in virtual time")
	}
}

func TestVirtualDeterminism(t *testing.T) {
	cA, sA := runVirtualCounters(t, 4, 300, true, 11)
	cB, sB := runVirtualCounters(t, 4, 300, true, 11)
	if cA != cB {
		t.Errorf("clocks differ across identical runs: %d vs %d", cA, cB)
	}
	if sA != sB {
		t.Errorf("stats differ across identical runs:\n%+v\n%+v", sA, sB)
	}
}

func TestVirtualClockMonotoneWithContention(t *testing.T) {
	cPriv, _ := runVirtualCounters(t, 4, 300, false, 13)
	cShared, _ := runVirtualCounters(t, 4, 300, true, 13)
	if cShared <= cPriv {
		t.Errorf("contended run (%d) not slower than private run (%d)", cShared, cPriv)
	}
}

func TestVirtualBarrierSynchronisesClocks(t *testing.T) {
	e := New(platform.New(platform.IntelCore), Config{
		Threads: 3, SpaceSize: 1 << 20, Seed: 1, CostScale: 0,
	})
	bar := e.NewBarrier(3)
	after := make([]uint64, 3)
	e.Run(3, func(tid int, th *Thread) {
		th.Work(100 * (tid + 1))
		bar.Wait(th)
		after[tid] = th.Clock()
	})
	if after[0] != after[1] || after[1] != after[2] {
		t.Errorf("clocks after barrier diverge: %v", after)
	}
	if after[0] < 300 {
		t.Errorf("barrier clock %d below slowest party's 300", after[0])
	}
}

func TestVirtualDeadlockDetection(t *testing.T) {
	e := New(platform.New(platform.IntelCore), Config{
		Threads: 2, SpaceSize: 1 << 20, Seed: 1,
	})
	// A 3-party barrier with only 2 threads: both block, nobody can wake
	// them. The scheduler must panic rather than hang.
	bar := e.NewBarrier(3)
	r, _ := runPanic(e, 2, func(_ int, th *Thread) { bar.Wait(th) }).(string)
	if !strings.Contains(r, "deadlock: 2 threads blocked") {
		t.Fatalf("expected a deadlock panic from the virtual scheduler, got %q", r)
	}
}

// runPanic returns what e.Run(n, body) panics with, nil if it returns.
func runPanic(e *Engine, n int, body func(tid int, th *Thread)) (r interface{}) {
	defer func() { r = recover() }()
	e.Run(n, body)
	return nil
}

func TestVirtualLivelockDetection(t *testing.T) {
	e := New(platform.New(platform.IntelCore), Config{
		Threads: 2, SpaceSize: 1 << 20, Seed: 1, Quantum: 1,
	})
	// Thread 0 exits holding a Go-side lock thread 1 is spinning on: no
	// baton holder is left to release it. The poll that thread 0's exit runs
	// must panic rather than spin there forever.
	var held atomic.Int32
	r, _ := runPanic(e, 2, func(tid int, th *Thread) {
		if tid == 0 {
			held.Store(1)
			th.Work(10) // thread 1 runs, fails to acquire and parks spinning
		} else {
			th.SpinUntil(4, func() bool { return held.CompareAndSwap(0, 1) })
		}
	}).(string)
	if !strings.Contains(r, "livelock: 1 threads spinning") {
		t.Fatalf("expected a livelock panic from the virtual scheduler, got %q", r)
	}
}

func TestSpinUntilPredicateMustNotReachScheduler(t *testing.T) {
	for _, tc := range []struct {
		name string
		try  func(*Thread, *Barrier, uint64)
	}{
		{"Load64", func(th *Thread, _ *Barrier, a uint64) { th.Load64(a) }},
		{"Work", func(th *Thread, _ *Barrier, _ uint64) { th.Work(1) }},
		{"Pause", func(th *Thread, _ *Barrier, _ uint64) { th.Pause(1) }},
		{"Barrier.Wait", func(th *Thread, b *Barrier, _ uint64) { b.Wait(th) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The default quantum: a memory access must be caught on its
			// first call, not on the one that exhausts the yield budget.
			e := New(platform.New(platform.IntelCore), Config{
				Threads: 1, SpaceSize: 1 << 20, Seed: 1,
			})
			bar := e.NewBarrier(1)
			a := e.Thread(0).Alloc(64)
			r, _ := runPanic(e, 1, func(_ int, th *Thread) {
				th.SpinUntil(4, func() bool { tc.try(th, bar, a); return true })
			}).(string)
			if !strings.Contains(r, "SpinUntil predicate") {
				t.Fatalf("expected a panic naming SpinUntil, got %q", r)
			}
		})
	}
}

// TestSpinUntilOutsideScheduledRegion: outside a region nobody can run to
// change what a predicate reads, so SpinUntil polls once and a wait that can
// never end fails instead of hanging. Barrier.Wait has the scheduler's
// deadlock panic for the same situation.
func TestSpinUntilOutsideScheduledRegion(t *testing.T) {
	e := New(platform.New(platform.IntelCore), Config{
		Threads: 1, SpaceSize: 1 << 20, Seed: 1, CostScale: 1,
	})
	th, calls := e.Thread(0), 0
	th.SpinUntil(4, func() bool { calls++; return true })
	if calls != 1 || th.Clock() != 0 {
		t.Errorf("a true predicate ran %d times and charged %d units, want 1 and 0", calls, th.Clock())
	}
	mustPanic := func(want string, f func()) {
		t.Helper()
		defer func() {
			if r := fmt.Sprint(recover()); !strings.Contains(r, want) {
				t.Errorf("panic = %q, want one containing %q", r, want)
			}
		}()
		f()
	}
	mustPanic("htm: SpinUntil outside a region would wait forever", func() {
		th.SpinUntil(4, func() bool { return false })
	})
	mustPanic("virtual-scheduler deadlock", func() { e.NewBarrier(2).Wait(th) })
}

// spinOutcome is everything the virtual schedule determines in spinScenario.
type spinOutcome struct {
	Clocks   []uint64
	MaxClock uint64
	Stats    Stats
	Handoffs uint64
	Order    []int // lock-acquisition order, by slot
}

// spinScenario runs a seeded workload in which every thread repeatedly
// takes a Go-side lock (the shape of tm.GlobalLock's mirror word), waits on
// it lemming-guard style, bumps a shared counter transactionally, meets the
// others at a barrier after its second round and exits after its own number
// of rounds. Waits go through SpinUntil when inline is set and through the
// loop SpinUntil is defined as otherwise. launch runs the region:
// (*Engine).Run, or the adapter's goroutines (adapter_test.go).
func spinScenario(launch func(*Engine, int, func(int, *Thread)), quantum, threads int, seed uint64, inline bool) (spinOutcome, uint64) {
	e := New(platform.New(platform.IntelCore), Config{
		Threads: threads, SpaceSize: 1 << 20, Seed: seed, CostScale: 1,
		Quantum: quantum, DisablePrefetch: true,
	})
	counter := e.Thread(0).Alloc(64)
	bar := e.NewBarrier(threads)
	var held atomic.Int32
	var order []int
	wait := func(th *Thread, n int, try func() bool) {
		if inline {
			th.SpinUntil(n, try)
			return
		}
		for !try() {
			th.Pause(n)
		}
	}
	launch(e, threads, func(tid int, th *Thread) {
		rng := prng.Derive(seed, tid)
		for round, rounds := 0, 3+rng.Intn(6); round < rounds; round++ {
			if round == 2 {
				bar.Wait(th)
			}
			for k := rng.Intn(4); k >= 0; k-- {
				th.Work(1 + rng.Intn(120))
			}
			for {
				if ok, _ := th.TryTx(TxNormal, func() {
					v := th.Load64(counter)
					th.Work(30)
					th.Store64(counter, v+1)
				}); ok {
					break
				}
			}
			if rng.Intn(3) == 0 {
				wait(th, 1+rng.Intn(8), func() bool { return held.Load() == 0 })
			}
			wait(th, 1+rng.Intn(8), func() bool { return held.CompareAndSwap(0, 1) })
			order = append(order, tid)
			for k := rng.Intn(12); k >= 0; k-- {
				th.Work(1 + rng.Intn(40))
			}
			held.Store(0)
		}
	})
	out := spinOutcome{MaxClock: e.MaxClock(), Stats: e.Stats(), Handoffs: e.SchedHandoffs(), Order: order}
	for i := 0; i < threads; i++ {
		out.Clocks = append(out.Clocks, e.Thread(i).Clock())
	}
	return out, e.SchedSwitches()
}

func TestSpinUntilEquivalentToPauseLoop(t *testing.T) {
	for _, quantum := range []int{1, 2, 8} {
		for _, threads := range []int{2, 4, 16} {
			t.Run(fmt.Sprintf("q%d/t%d", quantum, threads), func(t *testing.T) {
				aborts := uint64(0)
				for seed := uint64(1); seed <= 8; seed++ {
					want, _ := spinScenario((*Engine).Run, quantum, threads, seed, false)
					got, _ := spinScenario((*Engine).Run, quantum, threads, seed, true)
					sameSchedule(t, fmt.Sprintf("seed %d", seed), got, want)
					// A lock convoy: the loop re-polls stuck waiters that
					// SpinUntil charges in one step.
					if threads == 16 && got.Handoffs >= want.Handoffs {
						t.Errorf("seed %d: %d handoffs, want fewer than the Pause loop's %d", seed, got.Handoffs, want.Handoffs)
					}
					aborts += got.Stats.Aborts
				}
				if aborts == 0 {
					t.Error("no transaction aborted in 8 seeds: Stats would not notice a changed schedule")
				}
			})
		}
	}
}

// sameSchedule fails t unless got ran the schedule want did: equal clocks,
// statistics and lock order. Handoffs count heap pops, which SpinUntil saves
// by charging a stuck waiter's polls at once, so got may have fewer.
func sameSchedule(t *testing.T, name string, got, want spinOutcome) {
	t.Helper()
	if got.Handoffs > want.Handoffs {
		t.Errorf("%s: %d handoffs, more than the Pause loop's %d", name, got.Handoffs, want.Handoffs)
	}
	got.Handoffs = want.Handoffs
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: SpinUntil run diverges from the Pause loop:\n got %+v\nwant %+v", name, got, want)
	}
}

// TestSpinUntilSkipArithmetic: three waiters with poll costs 1, 4 and 8
// queue behind a holder. Over a grid of start offsets and hold lengths every
// waiter's skip lands where the Pause loop's last poll does, including the
// equal clocks that (clock, slot) order breaks by slot.
func TestSpinUntilSkipArithmetic(t *testing.T) {
	for _, quantum := range []int{1, 3} {
		for hold := 1; hold <= 12; hold++ {
			for off := 0; off < 9; off++ {
				want := waitersScenario(quantum, hold, off, false)
				got := waitersScenario(quantum, hold, off, true)
				sameSchedule(t, fmt.Sprintf("q%d hold %d offset %d", quantum, hold, off), got, want)
			}
		}
	}
}

// waitersScenario starts slot 0 holding a Go-side lock for hold chunks of 5
// units; slots 1, 2 and 3 arrive off, 2*off and 3*off units late, take the
// lock in turn with poll costs 1, 4 and 8, hold it for 7 units and leave.
// Waits go through SpinUntil when inline is set and through the Pause loop
// otherwise.
func waitersScenario(quantum, hold, off int, inline bool) spinOutcome {
	e := New(platform.New(platform.IntelCore), Config{
		Threads: 4, SpaceSize: 1 << 20, Seed: 1, CostScale: 1, Quantum: quantum,
	})
	held := true
	var order []int
	acquire := func() bool {
		if held {
			return false
		}
		held = true
		return true
	}
	e.Run(4, func(tid int, th *Thread) {
		if tid == 0 {
			for i := 0; i < hold; i++ {
				th.Work(5)
			}
			held = false
			return
		}
		th.Work(off * tid)
		n := []int{1, 4, 8}[tid-1]
		if inline {
			th.SpinUntil(n, acquire)
		} else {
			for !acquire() {
				th.Pause(n)
			}
		}
		order = append(order, tid)
		th.Work(7)
		held = false
	})
	out := spinOutcome{MaxClock: e.MaxClock(), Stats: e.Stats(), Handoffs: e.SchedHandoffs(), Order: order}
	for i := 0; i < 4; i++ {
		out.Clocks = append(out.Clocks, e.Thread(i).Clock())
	}
	return out
}

func TestVirtualSMTDivisorStillApplies(t *testing.T) {
	// A region must preserve the SMT capacity model: two POWER8
	// threads on one core halve the TMCAM.
	e := New(platform.New(platform.POWER8), Config{
		Threads: 12, SpaceSize: 4 << 20, Seed: 1, CostScale: 0,
	})
	t0, t6 := e.Thread(0), e.Thread(6)
	if t0.Core() != t6.Core() {
		t.Fatal("threads 0 and 6 should share a core")
	}
	a := t0.Alloc(64 * e.LineSize())
	results := make([]bool, 2)
	e.Run(7, func(tid int, th *Thread) {
		switch tid {
		case 0:
			ok, _ := th.TryTx(TxNormal, func() {
				for i := 0; i < 40; i++ {
					_ = th.Load64(a + uint64(i*e.LineSize()))
				}
				th.Work(10000) // stay in-tx while the sibling runs
			})
			results[0] = ok
		case 6:
			th.Work(500) // let t0 build its read set first
			ok, _ := th.TryTx(TxNormal, func() {
				for i := 40; i < 80; i++ {
					_ = th.Load64(a + uint64(i*e.LineSize()))
				}
			})
			results[1] = ok
		}
	})
	if results[0] && results[1] {
		t.Error("both 40-line transactions on one SMT core committed; capacity sharing not applied")
	}
}
