package tm

import (
	"testing"

	"htmcmp/internal/htm"
	"htmcmp/internal/platform"
)

// TestLazySubscriptionDefersLockCheck: with lazy subscription (BG/Q
// long-running mode), a transaction that starts while the lock is FREE and
// finishes while it is free must commit even if its body never re-checks;
// and one whose body runs while the lock is held must abort at its end.
func TestLazySubscriptionDefersLockCheck(t *testing.T) {
	e := newEngineQuantum(t, platform.BlueGeneQ, 2, 1)
	lock := NewGlobalLock(e)
	x := NewExecutor(e.Thread(0), lock, Policy{TransientRetry: 3, LazySubscription: true, Adaptation: false})

	// t1 takes the lock at clock 50, while t0 is mid-body (clocks 0–100),
	// and holds it past the end of that attempt: the lazy check at the end
	// must catch it.
	e.Run(2, func(tid int, th *htm.Thread) {
		if tid == 1 {
			th.Work(50)
			lock.Acquire(th)
			th.Work(200)
			lock.Release(th)
			return
		}
		first := true
		x.Run(func(th *htm.Thread) {
			if first {
				first = false
				th.Work(100)
			}
		})
	})
	if x.Stats.Commits() != 1 {
		t.Errorf("critical section completed %d times, want 1", x.Stats.Commits())
	}
	if x.Stats.Aborts == 0 {
		t.Error("lazy subscription failed to abort the straddling transaction")
	}
}

// TestBGQUsesSingleCounter: Blue Gene/Q must ignore the persistent/lock
// counters (its system mechanism has only one), so a persistently aborting
// body falls back after exactly TransientRetry+1 attempts.
func TestBGQUsesSingleCounter(t *testing.T) {
	e := newEngine(t, platform.BlueGeneQ, 1)
	lock := NewGlobalLock(e)
	x := NewExecutor(e.Thread(0), lock, Policy{
		LockRetry: 100, PersistentRetry: 100, TransientRetry: 3, Adaptation: false,
	})
	attempts := 0
	x.Run(func(th *htm.Thread) {
		if th.InTx() {
			attempts++
			th.Abort()
		}
	})
	if attempts != 4 { // initial + 3 retries
		t.Errorf("transactional attempts = %d, want 4 (single counter of 3 retries)", attempts)
	}
	if x.Stats.IrrevocableCommits != 1 {
		t.Errorf("IrrevocableCommits = %d, want 1", x.Stats.IrrevocableCommits)
	}
}

// TestCategoryReclassification: an abort that happens while the global lock
// is held is categorised as a lock conflict even if its engine-level reason
// was something else (Figure 1 line 13 checks the lock first).
func TestCategoryReclassification(t *testing.T) {
	e := newEngineQuantum(t, platform.POWER8, 2, 1)
	lock := NewGlobalLock(e)
	x := NewExecutor(e.Thread(1), lock, Policy{LockRetry: 2, PersistentRetry: 1, TransientRetry: 1})

	// t1 begins a transaction (subscribing to the free lock) and is mid-body
	// (clocks 4–104) when t0 acquires the lock at clock 50, dooming t1 via
	// the lock-word conflict. t0 holds the lock until clock 254, so t1's
	// abort is classified while it is still held (the paper notes a
	// too-early release is misclassified as a data conflict): the retry
	// mechanism sees the lock held and must count a lock conflict.
	e.Run(2, func(tid int, th *htm.Thread) {
		if tid == 0 {
			th.Work(50)
			lock.Acquire(th)
			th.Work(200)
			lock.Release(th)
			return
		}
		first := true
		x.Run(func(th *htm.Thread) {
			if first && th.InTx() {
				first = false
				th.Work(100)
				_ = th.Load64(lock.addr) // observe the doom
			}
		})
	})
	if x.Stats.AbortsByCategory[htm.CategoryLockConflict] == 0 {
		t.Error("no aborts classified as lock conflicts")
	}
}

// TestRunSTMRetriesToCompletion: STM execution has no fallback; contended
// increments must all commit eventually and exactly.
func TestRunSTMRetriesToCompletion(t *testing.T) {
	for _, quantum := range stressQuanta {
		e := newEngineQuantum(t, platform.ZEC12, 4, quantum)
		lock := NewGlobalLock(e)
		counter := e.Thread(0).Alloc(64)
		execs := make([]*Executor, 4)
		e.Run(4, func(tid int, th *htm.Thread) {
			x := NewExecutor(th, lock, DefaultPolicy(platform.ZEC12))
			execs[tid] = x
			for j := 0; j < 250; j++ {
				x.RunSTM(func(th *htm.Thread) {
					th.Store64(counter, th.Load64(counter)+1)
				})
			}
		})
		if got := e.Thread(0).Load64(counter); got != 1000 {
			t.Errorf("quantum %d: counter = %d, want 1000", quantum, got)
		}
		var agg Stats
		for _, x := range execs {
			agg.Add(&x.Stats)
		}
		if agg.IrrevocableCommits != 0 {
			t.Errorf("quantum %d: STM must never take the global lock", quantum)
		}
		if agg.TxCommits != 1000 {
			t.Errorf("quantum %d: TxCommits = %d, want 1000", quantum, agg.TxCommits)
		}
	}
}

// TestPersistentVsTransientCounters: capacity (persistent) aborts must
// consume the persistent budget, not the transient one.
func TestPersistentVsTransientCounters(t *testing.T) {
	e := newEngine(t, platform.POWER8, 1)
	lock := NewGlobalLock(e)
	th := e.Thread(0)
	// 100 store lines always overflows POWER8.
	n := 100
	a := th.Alloc(n * e.LineSize())
	x := NewExecutor(th, lock, Policy{LockRetry: 50, PersistentRetry: 3, TransientRetry: 50})
	x.Run(func(th *htm.Thread) {
		if th.InTx() {
			for i := 0; i < n; i++ {
				th.Store64(a+uint64(i*e.LineSize()), 1)
			}
			return
		}
		// Irrevocable path: cheap.
		th.Store64(a, 1)
	})
	if x.Stats.Aborts != 3 {
		t.Errorf("aborts = %d, want 3 (persistent budget)", x.Stats.Aborts)
	}
	if got := x.Stats.AbortsByCategory[htm.CategoryCapacity]; got != 3 {
		t.Errorf("capacity-category aborts = %d, want 3", got)
	}
}

// TestRetryUse: an executor records the most retries one critical section
// spent of each counter, and Fits answers a differing budget only when that
// use stays below both budgets. Blue Gene/Q counts failed attempts against
// TransientRetry+1 and ignores the two counters it never reads.
func TestRetryUse(t *testing.T) {
	with := func(p Policy, set func(*Policy)) Policy { set(&p); return p }
	abortTwice := func(x *Executor) {
		tries := 0
		x.Run(func(th *htm.Thread) {
			if tries++; tries <= 2 && th.InTx() {
				th.Abort()
			}
		})
	}

	e := newEngine(t, platform.IntelCore, 1)
	pol := Policy{LockRetry: 8, PersistentRetry: 2, TransientRetry: 4}
	x := NewExecutor(e.Thread(0), NewGlobalLock(e), pol)
	abortTwice(x) // two explicit (transient) aborts, then a commit
	u := x.RetryUse()
	for _, tc := range []struct {
		want Policy
		fits bool
	}{
		{with(pol, func(p *Policy) { p.TransientRetry = 3 }), true},
		{with(pol, func(p *Policy) { p.TransientRetry = 2 }), false},
		{with(pol, func(p *Policy) { p.LockRetry, p.PersistentRetry = 1, 1 }), true},
		{with(pol, func(p *Policy) { p.PersistentRetry = 0 }), false},
	} {
		if got := u.Fits(pol, tc.want); got != tc.fits {
			t.Errorf("after 2 transient retries under %+v: Fits(%+v) = %v, want %v", pol, tc.want, got, tc.fits)
		}
	}
	x.Run(func(th *htm.Thread) {
		if th.InTx() {
			th.Abort() // exhausts the transient budget, then falls back
		}
	})
	if u := x.RetryUse(); u.Fits(pol, with(pol, func(p *Policy) { p.TransientRetry = 16 })) {
		t.Error("a section that ran the transient counter out serves a larger budget")
	}

	e = newEngine(t, platform.BlueGeneQ, 1)
	pol = Policy{LockRetry: 8, PersistentRetry: 8, TransientRetry: 4}
	x = NewExecutor(e.Thread(0), NewGlobalLock(e), pol)
	abortTwice(x)
	u = x.RetryUse()
	if !u.Fits(pol, with(pol, func(p *Policy) { p.TransientRetry = 2 })) ||
		u.Fits(pol, with(pol, func(p *Policy) { p.TransientRetry = 1 })) {
		t.Errorf("BG/Q after 2 failed attempts: want TransientRetry 2 (3 attempts) served and 1 not")
	}
	if !u.Fits(pol, with(pol, func(p *Policy) { p.LockRetry, p.PersistentRetry = 0, 0 })) {
		t.Error("BG/Q: the lock and persistent budgets it never reads must not matter")
	}
}
