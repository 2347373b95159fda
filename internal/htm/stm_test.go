package htm

import (
	"testing"

	"htmcmp/internal/platform"
)

func stmEngine(t *testing.T, threads int) *Engine {
	return stmEngineQuantum(t, threads, 0)
}

func stmEngineQuantum(t *testing.T, threads, quantum int) *Engine {
	t.Helper()
	return New(platform.New(platform.ZEC12), Config{
		Threads: threads, SpaceSize: 8 << 20, Seed: 21, CostScale: 0,
		DisableCacheFetchAborts: true, Quantum: quantum,
	})
}

func TestSTMCommitAndRollback(t *testing.T) {
	e := stmEngine(t, 1)
	th := e.Thread(0)
	a := th.Alloc(64)
	th.Store64(a, 5)

	ok, _ := th.TrySTM(func() {
		th.Store64(a, 9)
		if got := th.Load64(a); got != 9 {
			t.Errorf("read-own-write = %d", got)
		}
	})
	if !ok {
		t.Fatal("uncontended STM tx aborted")
	}
	if got := th.Load64(a); got != 9 {
		t.Errorf("after commit = %d", got)
	}

	ok, ab := th.TrySTM(func() {
		th.Store64(a, 77)
		th.Abort()
	})
	if ok {
		t.Fatal("explicitly aborted STM tx committed")
	}
	if ab.Reason != ReasonExplicit {
		t.Errorf("abort reason = %v", ab.Reason)
	}
	if got := th.Load64(a); got != 9 {
		t.Errorf("store leaked from aborted STM tx: %d", got)
	}
}

func TestSTMValidationDetectsConflict(t *testing.T) {
	e := stmEngine(t, 2)
	t0, t1 := e.Thread(0), e.Thread(1)
	a := t0.Alloc(64)
	t0.Store64(a, 1)

	firstAttemptAborted := false
	for attempt := 1; ; attempt++ {
		ok, _ := t0.TrySTM(func() {
			v := t0.Load64(a)
			if attempt == 1 {
				// T1 commits a write to the word T0 just read.
				if ok, _ := t1.TrySTM(func() { t1.Store64(a, 42) }); !ok {
					t.Error("writer aborted unexpectedly")
				}
			}
			// A second load after the writer's commit must trigger
			// NOrec validation and abort attempt 1.
			_ = t0.Load64(a + 8)
			t0.Store64(a+16, v)
		})
		if ok {
			break
		}
		firstAttemptAborted = true
	}
	if !firstAttemptAborted {
		t.Error("stale read survived a concurrent committed write (validation broken)")
	}
	// The retried tx must have seen the new value.
	if got := t0.Load64(a + 16); got != 42 {
		t.Errorf("retried tx stored %d, want 42", got)
	}
}

func TestSTMCounterStress(t *testing.T) {
	for _, quantum := range stressQuanta {
		e := stmEngineQuantum(t, 8, quantum)
		counter := e.Thread(0).Alloc(64)
		const perThread = 400
		e.Run(8, func(_ int, th *Thread) {
			for j := 0; j < perThread; j++ {
				for {
					ok, _ := th.TrySTM(func() {
						th.Store64(counter, th.Load64(counter)+1)
					})
					if ok {
						break
					}
				}
			}
		})
		if got := e.Thread(0).Load64(counter); got != 8*perThread {
			t.Errorf("quantum %d: counter = %d, want %d", quantum, got, 8*perThread)
		}
	}
}

func TestSTMNoCapacityLimit(t *testing.T) {
	// 1000 store lines would overflow every HTM model; NOrec must commit.
	e := stmEngine(t, 1)
	th := e.Thread(0)
	n := 1000
	a := th.Alloc(n * e.LineSize())
	ok, ab := th.TrySTM(func() {
		for i := 0; i < n; i++ {
			th.Store64(a+uint64(i*e.LineSize()), uint64(i))
		}
	})
	if !ok {
		t.Fatalf("large STM tx aborted: %+v", ab)
	}
	for i := 0; i < n; i++ {
		if th.Load64(a+uint64(i*e.LineSize())) != uint64(i) {
			t.Fatalf("write %d lost", i)
		}
	}
}

func TestSTMWordGranularityNoFalseConflicts(t *testing.T) {
	// Two threads write ADJACENT WORDS of one cache line, T1 committing
	// while T0's transaction on the neighbouring word is open: every HTM
	// model conflicts (false sharing); NOrec's value-based validation must
	// commit both.
	e := stmEngine(t, 2)
	t0, t1 := e.Thread(0), e.Thread(1)
	a := t0.Alloc(64)
	for j := 0; j < 300; j++ {
		ok0, _ := t0.TrySTM(func() {
			v := t0.Load64(a)
			ok1, _ := t1.TrySTM(func() { t1.Store64(a+8, t1.Load64(a+8)+1) })
			if !ok1 {
				t.Error("word-disjoint writer aborted")
			}
			t0.Store64(a, v+1)
		})
		if !ok0 {
			t.Fatal("word-disjoint commit on the same line aborted the open transaction")
		}
	}
	if t0.Load64(a) != 300 || t0.Load64(a+8) != 300 {
		t.Errorf("counters = %d,%d want 300,300", t0.Load64(a), t0.Load64(a+8))
	}
}

func TestSTMAllocReclaimOnAbort(t *testing.T) {
	e := stmEngine(t, 1)
	th := e.Thread(0)
	before := e.Space().Used()
	th.TrySTM(func() {
		th.Alloc(256)
		th.Abort()
	})
	if after := e.Space().Used(); after != before {
		t.Errorf("aborted STM tx leaked %d bytes", after-before)
	}
}

func TestSTMNestedPanics(t *testing.T) {
	e := stmEngine(t, 1)
	th := e.Thread(0)
	defer func() {
		if recover() == nil {
			t.Error("nested STM begin did not panic")
		}
	}()
	th.TrySTM(func() {
		th.TrySTM(func() {})
	})
}
