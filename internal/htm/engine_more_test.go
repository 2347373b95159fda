package htm

import (
	"testing"

	"htmcmp/internal/obs"
	"htmcmp/internal/platform"
)

func TestReasonCategories(t *testing.T) {
	want := []struct {
		r Reason
		c Category
	}{
		{ReasonConflict, CategoryDataConflict},
		{ReasonNonTxConflict, CategoryDataConflict},
		{ReasonCommitterConflict, CategoryDataConflict},
		{ReasonCapacityLoad, CategoryCapacity},
		{ReasonCapacityStore, CategoryCapacity},
		{ReasonCapacityWay, CategoryCapacity},
		{ReasonCapacitySMT, CategoryCapacity},
		{ReasonExplicit, CategoryOther},
		{ReasonCacheFetch, CategoryOther},
	}
	for _, tc := range want {
		if tc.r.Category() != tc.c {
			t.Errorf("%v category = %v, want %v", tc.r, tc.r.Category(), tc.c)
		}
	}
	for r := 0; r < NumReasons; r++ {
		if Reason(r).String() == "unknown" {
			t.Errorf("reason %d has no name", r)
		}
	}
}

func TestStatsAggregationAndRatios(t *testing.T) {
	var a, b Stats
	a.Begins, a.Commits, a.Aborts = 10, 7, 3
	a.AbortsByReason[ReasonConflict] = 3
	a.MaxReadLines, a.MaxWriteLines = 5, 2
	b.Begins, b.Commits, b.Aborts = 10, 10, 0
	b.MaxReadLines, b.MaxWriteLines = 9, 1
	a.Add(&b)
	if a.Begins != 20 || a.Commits != 17 || a.Aborts != 3 {
		t.Errorf("aggregate = %+v", a)
	}
	if a.MaxReadLines != 9 || a.MaxWriteLines != 2 {
		t.Error("max footprints must take the maximum")
	}
	if got := a.AbortRatio(); got != 15 {
		t.Errorf("AbortRatio = %v, want 15", got)
	}
	var empty Stats
	if empty.AbortRatio() != 0 {
		t.Error("empty stats AbortRatio should be 0")
	}
}

// TestCommitEventsCarryFootprint: every committed hardware transaction
// emits one commit event carrying its footprint in distinct lines; an
// aborted one emits none (internal/trace's Figures 10/11 read these).
func TestCommitEventsCarryFootprint(t *testing.T) {
	tr := obs.NewTracer()
	e := New(platform.New(platform.IntelCore), Config{
		Threads: 1, SpaceSize: 1 << 20, CostScale: 0, DisablePrefetch: true,
		Tracer: tr,
	})
	th := e.Thread(0)
	a := th.Alloc(8 * e.LineSize())
	th.TryTx(TxNormal, func() {
		for i := 0; i < 3; i++ {
			_ = th.Load64(a + uint64(i*e.LineSize()))
		}
		th.Store64(a+uint64(5*e.LineSize()), 1)
	})
	th.TryTx(TxNormal, func() { th.Abort() }) // aborted: no commit event
	var samples [][2]uint32
	for _, ev := range tr.Events() {
		if ev.Kind == obs.KindCommit {
			samples = append(samples, [2]uint32{ev.ReadLines, ev.WriteLines})
		}
	}
	if len(samples) != 1 {
		t.Fatalf("%d commit events, want 1", len(samples))
	}
	if samples[0] != [2]uint32{3, 1} {
		t.Errorf("commit footprint = %v, want [3 1]", samples[0])
	}
}

func TestUnboundedCapacityDisablesAborts(t *testing.T) {
	e := New(platform.New(platform.POWER8), Config{
		Threads: 1, SpaceSize: 8 << 20, CostScale: 0, UnboundedCapacity: true,
	})
	th := e.Thread(0)
	n := 500 // far beyond the 64-entry TMCAM
	a := th.Alloc(n * e.LineSize())
	ok, ab := th.TryTx(TxNormal, func() {
		for i := 0; i < n; i++ {
			th.Store64(a+uint64(i*e.LineSize()), 1)
		}
	})
	if !ok {
		t.Fatalf("unbounded-capacity tx aborted: %+v", ab)
	}
}

func TestEngineConfigDefaults(t *testing.T) {
	e := New(platform.New(platform.ZEC12), Config{})
	if len(e.threads) != 1 {
		t.Errorf("default threads = %d", len(e.threads))
	}
	if e.Space().Size() != 64<<20 {
		t.Errorf("default space = %d", e.Space().Size())
	}
	if q := e.Thread(0).quantum; q != 8 {
		t.Errorf("default quantum = %d, want 8", q)
	}
}

func TestTooManyThreadsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("engine accepted more threads than the reader bitmap supports")
		}
	}()
	New(platform.New(platform.ZEC12), Config{Threads: 257})
}

func TestROTStoresConflictDetected(t *testing.T) {
	// Rollback-only transactions still buffer and register STORES; a
	// conflicting non-transactional store from another thread must doom
	// the ROT.
	e := newTestEngine(t, platform.POWER8, 2)
	t0, t1 := e.Thread(0), e.Thread(1)
	a := t0.Alloc(256)

	rotOK, _ := t0.TryTx(TxRollbackOnly, func() {
		t0.Store64(a, 1)
		t1.Store64(a, 99)  // non-tx store to the ROT's write line
		t0.Store64(a+8, 2) // must observe the doom
	})
	if rotOK {
		t.Error("ROT survived a conflicting store to its write set")
	}
	if got := t0.Load64(a); got != 99 {
		t.Errorf("memory = %d, want the non-tx store's 99", got)
	}
}

// TestNonTxStoreWaitsForHardenedReader: a hardened constrained transaction
// is doom-immune and guaranteed to commit, so a non-transactional store to a
// line it has read must wait for that commit instead of slipping under it —
// the transaction would otherwise commit a value computed from a stale read
// and the store would be lost.
func TestNonTxStoreWaitsForHardenedReader(t *testing.T) {
	e := newTestEngineQuantum(t, platform.ZEC12, 2, 1)
	a := e.Thread(0).Alloc(256)
	e.Run(2, func(tid int, th *Thread) {
		if tid == 1 {
			th.Work(10) // t0 has read a by now and is mid-body
			th.Store64(a, 100)
			return
		}
		th.hardened = true
		ok, _ := th.TryTx(TxConstrained, func() {
			v := th.Load64(a)
			th.Work(100)
			th.Store64(a, v+1)
		})
		th.hardened = false
		if !ok {
			t.Error("hardened transaction aborted")
		}
	})
	if got := e.Thread(0).Load64(a); got != 100 {
		t.Errorf("memory = %d, want the non-transactional store's 100 on top of the committed increment", got)
	}
}
