package htm

import (
	"testing"

	"htmcmp/internal/platform"
)

// Abort-reason classification: every engine Reason must be reachable on the
// platforms that model it, carry the right Figure 3 category, and carry the
// processor's persistent/transient verdict (capacity overflows persistent,
// everything else transient — Section 2). Outside a region a thread never
// yields, so operations on different Thread structs interleave exactly where
// the test calls them.

func reasonEngine(t *testing.T, k platform.Kind, threads int, cacheFetch bool) *Engine {
	t.Helper()
	return New(platform.New(k), Config{
		Threads: threads, SpaceSize: 16 << 20, Seed: 7, CostScale: 0,
		DisableCacheFetchAborts: !cacheFetch,
		DisablePrefetch:         true,
	})
}

func provokeExplicit(t *testing.T, e *Engine) Abort {
	th := e.Thread(0)
	a := th.Alloc(e.LineSize())
	ok, ab := th.TryTx(TxNormal, func() {
		th.Store64(a, 1)
		th.Abort()
	})
	if ok {
		t.Fatal("explicitly aborted tx committed")
	}
	return ab
}

// provokeConflict dooms a reader from a competing transactional writer
// (requester-wins): the doomed reader observes ReasonConflict at commit.
func provokeConflict(t *testing.T, e *Engine) Abort {
	a, b := e.Thread(0), e.Thread(1)
	x := a.Alloc(e.LineSize())
	ok, ab := a.TryTx(TxNormal, func() {
		_ = a.Load64(x)
		if okB, abB := b.TryTx(TxNormal, func() { b.Store64(x, 1) }); !okB {
			t.Fatalf("winning writer aborted: %+v", abB)
		}
	})
	if ok {
		t.Fatal("doomed reader committed")
	}
	return ab
}

// provokeNonTxConflict dooms a transactional reader from a plain
// (non-transactional) store — strong isolation.
func provokeNonTxConflict(t *testing.T, e *Engine) Abort {
	a, b := e.Thread(0), e.Thread(1)
	x := a.Alloc(e.LineSize())
	ok, ab := a.TryTx(TxNormal, func() {
		_ = a.Load64(x)
		b.Store64(x, 1)
	})
	if ok {
		t.Fatal("doomed reader committed")
	}
	return ab
}

// provokeCommitterConflict makes the line owner doom-immune (the endpoint of
// zEC12's constrained-transaction hardware escalation: hardened under the
// arbiter) so the requesting transaction must abort instead.
func provokeCommitterConflict(t *testing.T, e *Engine) Abort {
	a, b := e.Thread(0), e.Thread(1)
	x := a.Alloc(e.LineSize())
	var abB Abort
	var okB bool
	okA, _ := a.TryTx(TxNormal, func() {
		a.Store64(x, 1)
		a.hardened = true
		okB, abB = b.TryTx(TxNormal, func() { b.Store64(x, 2) })
		a.hardened = false
	})
	if !okA {
		t.Fatal("hardened owner aborted")
	}
	if okB {
		t.Fatal("requester against an immune owner committed")
	}
	return abB
}

// loadBudgetLines/storeBudgetLines are the engine-effective capacities: the
// conflict granularity is mode-dependent on Blue Gene/Q, so Spec's
// line-budget helpers do not apply there.
func loadBudgetLines(e *Engine) int { return e.Platform().LoadCapacity / e.LineSize() }

func storeBudgetLines(e *Engine) int { return e.Platform().StoreCapacity / e.LineSize() }

func provokeCapacityLoad(t *testing.T, e *Engine) Abort {
	th := e.Thread(0)
	n := loadBudgetLines(e) + 1
	base := th.Alloc(n * e.LineSize())
	ok, ab := th.TryTx(TxNormal, func() {
		for i := 0; i < n; i++ {
			_ = th.Load64(base + uint64(i*e.LineSize()))
		}
	})
	if ok {
		t.Fatalf("tx over the %d-line load budget committed", n-1)
	}
	return ab
}

func provokeCapacityStore(t *testing.T, e *Engine) Abort {
	th := e.Thread(0)
	n := storeBudgetLines(e) + 1
	base := th.Alloc(n * e.LineSize())
	ok, ab := th.TryTx(TxNormal, func() {
		for i := 0; i < n; i++ {
			th.Store64(base+uint64(i*e.LineSize()), 1)
		}
	})
	if ok {
		t.Fatalf("tx over the %d-line store budget committed", n-1)
	}
	return ab
}

// provokeCapacityWay stores lines one cache set apart: the 9th line in one
// 8-way set overflows Intel's L1-resident store buffer even though total
// store capacity remains.
func provokeCapacityWay(t *testing.T, e *Engine) Abort {
	th := e.Thread(0)
	p := e.Platform()
	stride := p.StoreSets * e.LineSize()
	n := p.StoreWays + 1
	base := th.Alloc(n * stride)
	ok, ab := th.TryTx(TxNormal, func() {
		for i := 0; i < n; i++ {
			th.Store64(base+uint64(i*stride), 1)
		}
	})
	if ok {
		t.Fatalf("tx with %d lines in one %d-way set committed", n, p.StoreWays)
	}
	return ab
}

// provokeCapacitySMT runs a second hardware thread of the same core inside
// a transaction, halving the core's tracking resources: a footprint within
// the full budget but over the halved one aborts with the SMT reason.
func provokeCapacitySMT(sibling int) func(*testing.T, *Engine) Abort {
	return func(t *testing.T, e *Engine) Abort {
		a, b := e.Thread(0), e.Thread(sibling)
		if a.core != b.core {
			t.Fatalf("threads 0 and %d are not SMT siblings", sibling)
		}
		n := loadBudgetLines(e)/2 + 1
		base := b.Alloc(n * e.LineSize())
		pad := a.Alloc(e.LineSize())
		var abB Abort
		var okB bool
		okA, _ := a.TryTx(TxNormal, func() {
			_ = a.Load64(pad)
			okB, abB = b.TryTx(TxNormal, func() {
				for i := 0; i < n; i++ {
					_ = b.Load64(base + uint64(i*e.LineSize()))
				}
			})
		})
		if !okA {
			t.Fatal("sibling pad tx aborted")
		}
		if okB {
			t.Fatalf("tx over the SMT-divided budget (%d lines) committed", n)
		}
		return abB
	}
}

func TestAbortReasonClassification(t *testing.T) {
	cases := []struct {
		name       string
		kind       platform.Kind
		threads    int
		reason     Reason
		category   Category
		persistent bool
		provoke    func(*testing.T, *Engine) Abort
	}{
		{"explicit/bgq", platform.BlueGeneQ, 1, ReasonExplicit, CategoryOther, false, provokeExplicit},
		{"explicit/zec12", platform.ZEC12, 1, ReasonExplicit, CategoryOther, false, provokeExplicit},
		{"explicit/intel", platform.IntelCore, 1, ReasonExplicit, CategoryOther, false, provokeExplicit},
		{"explicit/p8", platform.POWER8, 1, ReasonExplicit, CategoryOther, false, provokeExplicit},

		{"conflict/bgq", platform.BlueGeneQ, 2, ReasonConflict, CategoryDataConflict, false, provokeConflict},
		{"conflict/zec12", platform.ZEC12, 2, ReasonConflict, CategoryDataConflict, false, provokeConflict},
		{"conflict/intel", platform.IntelCore, 2, ReasonConflict, CategoryDataConflict, false, provokeConflict},
		{"conflict/p8", platform.POWER8, 2, ReasonConflict, CategoryDataConflict, false, provokeConflict},

		{"nontx-conflict/zec12", platform.ZEC12, 2, ReasonNonTxConflict, CategoryDataConflict, false, provokeNonTxConflict},
		{"nontx-conflict/p8", platform.POWER8, 2, ReasonNonTxConflict, CategoryDataConflict, false, provokeNonTxConflict},

		{"committer-conflict/zec12", platform.ZEC12, 2, ReasonCommitterConflict, CategoryDataConflict, false, provokeCommitterConflict},

		{"capacity-load/bgq", platform.BlueGeneQ, 1, ReasonCapacityLoad, CategoryCapacity, true, provokeCapacityLoad},
		{"capacity-load/zec12", platform.ZEC12, 1, ReasonCapacityLoad, CategoryCapacity, true, provokeCapacityLoad},
		{"capacity-load/intel", platform.IntelCore, 1, ReasonCapacityLoad, CategoryCapacity, true, provokeCapacityLoad},
		{"capacity-load/p8", platform.POWER8, 1, ReasonCapacityLoad, CategoryCapacity, true, provokeCapacityLoad},

		{"capacity-store/bgq", platform.BlueGeneQ, 1, ReasonCapacityStore, CategoryCapacity, true, provokeCapacityStore},
		{"capacity-store/zec12", platform.ZEC12, 1, ReasonCapacityStore, CategoryCapacity, true, provokeCapacityStore},
		{"capacity-store/intel", platform.IntelCore, 1, ReasonCapacityStore, CategoryCapacity, true, provokeCapacityStore},
		{"capacity-store/p8", platform.POWER8, 1, ReasonCapacityStore, CategoryCapacity, true, provokeCapacityStore},

		{"capacity-way/intel", platform.IntelCore, 1, ReasonCapacityWay, CategoryCapacity, true, provokeCapacityWay},

		// SMT siblings share a core per Spec.CoreOf (tid % Cores): the first
		// sibling of thread 0 is thread <Cores>.
		{"capacity-smt/bgq", platform.BlueGeneQ, 17, ReasonCapacitySMT, CategoryCapacity, true, provokeCapacitySMT(16)},
		{"capacity-smt/intel", platform.IntelCore, 5, ReasonCapacitySMT, CategoryCapacity, true, provokeCapacitySMT(4)},
		{"capacity-smt/p8", platform.POWER8, 7, ReasonCapacitySMT, CategoryCapacity, true, provokeCapacitySMT(6)},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			e := reasonEngine(t, tc.kind, tc.threads, false)
			ab := tc.provoke(t, e)
			if ab.Reason != tc.reason {
				t.Errorf("abort reason = %v, want %v", ab.Reason, tc.reason)
			}
			if got := ab.Reason.Category(); got != tc.category {
				t.Errorf("category = %v, want %v", got, tc.category)
			}
			if ab.Persistent != tc.persistent {
				t.Errorf("persistent = %v, want %v", ab.Persistent, tc.persistent)
			}
			st := e.Stats()
			if st.AbortsByReason[tc.reason] == 0 {
				t.Errorf("stats did not count the %v abort", tc.reason)
			}
			if st.AbortsByReason[ReasonNone] != 0 {
				t.Errorf("%d aborts counted under ReasonNone", st.AbortsByReason[ReasonNone])
			}
		})
	}
}

// TestCacheFetchAbortReachable: with the stochastic injector enabled, zEC12
// transactions eventually draw a transient cache-fetch abort (the dominant
// "other" bars of Figure 3); the abort must be transient and categorized as
// Other.
func TestCacheFetchAbortReachable(t *testing.T) {
	e := reasonEngine(t, platform.ZEC12, 1, true)
	th := e.Thread(0)
	base := th.Alloc(16 * e.LineSize())
	for i := 0; i < 200000; i++ {
		ok, ab := th.TryTx(TxNormal, func() {
			for l := 0; l < 16; l++ {
				_ = th.Load64(base + uint64(l*e.LineSize()))
			}
		})
		if ok {
			continue
		}
		if ab.Reason != ReasonCacheFetch {
			t.Fatalf("unexpected abort %+v on an uncontended read-only tx", ab)
		}
		if ab.Persistent {
			t.Fatal("cache-fetch abort reported persistent")
		}
		if ab.Reason.Category() != CategoryOther {
			t.Fatalf("cache-fetch category = %v, want Other", ab.Reason.Category())
		}
		if e.Stats().AbortsByReason[ReasonCacheFetch] == 0 {
			t.Fatal("stats did not count the cache-fetch abort")
		}
		return
	}
	t.Fatal("no cache-fetch abort in 200000 transactions")
}

// TestBlueGeneQSpecIDExhaustion: spec-ID exhaustion is not an abort — the
// 129th transaction begin stalls on the empty 128-ID pool and performs a
// reclamation pass, which the engine counts as a SpecIDWait (the ssca2
// serialisation of Section 5.1).
func TestBlueGeneQSpecIDExhaustion(t *testing.T) {
	e := reasonEngine(t, platform.BlueGeneQ, 1, false)
	th := e.Thread(0)
	ids := e.Platform().SpecIDs
	for i := 0; i < ids; i++ {
		if ok, ab := th.TryTx(TxNormal, func() {}); !ok {
			t.Fatalf("tx %d aborted: %+v", i, ab)
		}
	}
	if w := e.Stats().SpecIDWaits; w != 0 {
		t.Fatalf("%d spec-ID waits before the pool was exhausted", w)
	}
	if ok, ab := th.TryTx(TxNormal, func() {}); !ok {
		t.Fatalf("post-exhaustion tx aborted: %+v", ab)
	}
	if w := e.Stats().SpecIDWaits; w == 0 {
		t.Fatal("exhausting the 128-ID pool did not count a spec-ID wait")
	}
}
