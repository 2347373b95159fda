package htm

import (
	"testing"

	"htmcmp/internal/platform"
)

// newTestEngine returns a small, cost-free engine for functional tests.
func newTestEngine(t *testing.T, k platform.Kind, threads int) *Engine {
	return newTestEngineQuantum(t, k, threads, 0)
}

// stressQuanta are the yield quanta the stress tests run their regions at:
// every access a scheduling point, and the engine default.
var stressQuanta = []int{1, 8}

// newTestEngineQuantum is newTestEngine with a yield quantum (0 = default).
func newTestEngineQuantum(t *testing.T, k platform.Kind, threads, quantum int) *Engine {
	t.Helper()
	return New(platform.New(k), Config{
		Threads:   threads,
		SpaceSize: 1 << 20,
		Seed:      42,
		CostScale: 0,
		Quantum:   quantum,
		// Keep functional tests deterministic: no stochastic aborts.
		DisableCacheFetchAborts: true,
		DisablePrefetch:         true,
	})
}

func TestCommitPublishesStores(t *testing.T) {
	e := newTestEngine(t, platform.IntelCore, 1)
	th := e.Thread(0)
	a := th.Alloc(64)
	th.Store64(a, 7)

	ok, _ := th.TryTx(TxNormal, func() {
		th.Store64(a, 99)
		if got := th.Load64(a); got != 99 {
			t.Errorf("in-tx read-own-write = %d, want 99", got)
		}
	})
	if !ok {
		t.Fatal("single-threaded transaction aborted")
	}
	if got := th.Load64(a); got != 99 {
		t.Errorf("after commit Load64 = %d, want 99", got)
	}
}

func TestAbortRollsBackStores(t *testing.T) {
	e := newTestEngine(t, platform.IntelCore, 1)
	th := e.Thread(0)
	a := th.Alloc(64)
	th.Store64(a, 7)

	ok, ab := th.TryTx(TxNormal, func() {
		th.Store64(a, 99)
		th.Abort()
	})
	if ok {
		t.Fatal("transaction with explicit abort committed")
	}
	if ab.Reason != ReasonExplicit {
		t.Errorf("abort reason = %v, want explicit", ab.Reason)
	}
	if got := th.Load64(a); got != 7 {
		t.Errorf("after abort Load64 = %d, want 7 (rolled back)", got)
	}
}

func TestAbortReclaimsTxAllocations(t *testing.T) {
	e := newTestEngine(t, platform.IntelCore, 1)
	th := e.Thread(0)
	before := e.Space().Used()
	th.TryTx(TxNormal, func() {
		th.Alloc(128)
		th.Alloc(64)
		th.Abort()
	})
	if after := e.Space().Used(); after != before {
		t.Errorf("aborted tx leaked memory: used %d -> %d", before, after)
	}
}

func TestTxFreeDeferredToCommit(t *testing.T) {
	e := newTestEngine(t, platform.IntelCore, 1)
	th := e.Thread(0)
	a := th.Alloc(64)
	used := e.Space().Used()
	th.TryTx(TxNormal, func() {
		th.Free(a)
		th.Abort()
	})
	// The free must not have happened: a is still a live allocation.
	if e.Space().Used() != used {
		t.Fatal("transactional Free applied despite abort")
	}
	ok, _ := th.TryTx(TxNormal, func() { th.Free(a) })
	if !ok {
		t.Fatal("tx aborted unexpectedly")
	}
	if got := e.Space().Used(); got != used-64 {
		t.Fatalf("transactional Free not applied at commit: %d bytes in use, want %d", got, used-64)
	}
}

// TestConflictRequesterWins drives two threads into a read-write conflict:
// T0 reads line L in a transaction, then T1 writes L in its own transaction.
// Outside a region a thread never yields, so running T1's transaction inside
// T0's body is the interleaving. Requester-wins means T0 (the reader) is
// doomed and T1 commits.
func TestConflictRequesterWins(t *testing.T) {
	e := newTestEngine(t, platform.IntelCore, 2)
	t0, t1 := e.Thread(0), e.Thread(1)
	a := t0.Alloc(64)

	var t1OK bool
	t0OK, t0Abort := t0.TryTx(TxNormal, func() {
		_ = t0.Load64(a)
		t1OK, _ = t1.TryTx(TxNormal, func() { t1.Store64(a, 5) })
		_ = t0.Load64(a) // the transaction is still open across T1's write
	})

	if !t1OK {
		t.Error("writer (requester) should have committed")
	}
	if t0OK {
		t.Error("reader should have been doomed by the conflicting writer")
	}
	if t0OK == false && t0Abort.Reason != ReasonConflict {
		t.Errorf("reader abort reason = %v, want conflict", t0Abort.Reason)
	}
	if got := t1.Load64(a); got != 5 {
		t.Errorf("committed value = %d, want 5", got)
	}
}

// TestWriterDoomedByReader: T0 writes L transactionally, T1 then reads L
// transactionally; requester-wins dooms the writer, and the reader must see
// the pre-transactional value (store buffering).
func TestWriterDoomedByReader(t *testing.T) {
	e := newTestEngine(t, platform.IntelCore, 2)
	t0, t1 := e.Thread(0), e.Thread(1)
	a := t0.Alloc(64)
	t0.Store64(a, 1)

	var t1OK bool
	var seen uint64
	t0OK, _ := t0.TryTx(TxNormal, func() {
		t0.Store64(a, 99)
		t1OK, _ = t1.TryTx(TxNormal, func() { seen = t1.Load64(a) })
		t0.Store64(a, 100)
	})

	if !t1OK {
		t.Error("reader (requester) should have committed")
	}
	if t0OK {
		t.Error("writer should have been doomed")
	}
	if seen != 1 {
		t.Errorf("reader saw %d, want pre-transactional 1 (speculative state leaked)", seen)
	}
	if got := t1.Load64(a); got != 1 {
		t.Errorf("memory = %d, want 1 after writer rollback", got)
	}
}

func TestResponderWinsAblation(t *testing.T) {
	e := New(platform.New(platform.IntelCore), Config{
		Threads: 2, SpaceSize: 1 << 20, Seed: 1, CostScale: 0,
		DisablePrefetch: true, ResponderWins: true,
	})
	t0, t1 := e.Thread(0), e.Thread(1)
	a := t0.Alloc(64)

	var t1OK bool
	var ab Abort
	t0OK, _ := t0.TryTx(TxNormal, func() {
		_ = t0.Load64(a)
		t1OK, ab = t1.TryTx(TxNormal, func() { t1.Store64(a, 5) })
	})

	if t1OK {
		t.Error("responder-wins: requesting writer should abort")
	}
	if ab.Reason != ReasonConflict {
		t.Errorf("abort reason = %v, want conflict", ab.Reason)
	}
	if !t0OK {
		t.Error("responder-wins: holder should survive and commit")
	}
}

func TestNonTxStoreDoomsTransaction(t *testing.T) {
	e := newTestEngine(t, platform.POWER8, 2)
	t0, t1 := e.Thread(0), e.Thread(1)
	a := t0.Alloc(256)

	t0OK, ab := t0.TryTx(TxNormal, func() {
		_ = t0.Load64(a)
		t1.Store64(a, 77) // non-transactional conflicting store
		_ = t0.Load64(a)
	})

	if t0OK {
		t.Fatal("transaction should be doomed by non-transactional store")
	}
	// POWER8 distinguishes non-transactional conflicts (Section 2).
	if ab.Reason != ReasonNonTxConflict {
		t.Errorf("abort reason = %v, want nontx-conflict", ab.Reason)
	}
}

func TestCapacityStoreOverflowZEC12(t *testing.T) {
	e := newTestEngine(t, platform.ZEC12, 1)
	th := e.Thread(0)
	// zEC12: 8 KB gathering store cache / 256 B lines = 32 store lines.
	n := e.Platform().StoreCapacity/e.LineSize() + 1
	a := th.Alloc(n * e.LineSize())
	ok, ab := th.TryTx(TxNormal, func() {
		for i := 0; i < n; i++ {
			th.Store64(a+uint64(i*e.LineSize()), 1)
		}
	})
	if ok {
		t.Fatal("store-capacity overflow did not abort")
	}
	if ab.Reason != ReasonCapacityStore {
		t.Errorf("reason = %v, want capacity-store", ab.Reason)
	}
	if !ab.Persistent {
		t.Error("capacity abort should be reported persistent")
	}
}

func TestCapacityCombinedPOWER8(t *testing.T) {
	e := newTestEngine(t, platform.POWER8, 1)
	th := e.Thread(0)
	// POWER8: 64 TMCAM entries of 128 B, loads and stores combined.
	lines := e.Platform().LoadCapacityLines()
	if lines != 64 {
		t.Fatalf("POWER8 capacity = %d lines, want 64", lines)
	}
	a := th.Alloc((lines + 1) * e.LineSize())
	ok, ab := th.TryTx(TxNormal, func() {
		for i := 0; i <= lines; i++ {
			_ = th.Load64(a + uint64(i*e.LineSize()))
		}
	})
	if ok {
		t.Fatal("combined-capacity overflow did not abort")
	}
	if ab.Reason != ReasonCapacityLoad || !ab.Persistent {
		t.Errorf("abort = %+v, want persistent capacity-load", ab)
	}

	// Mixed loads+stores share the budget: 32 loads + 33 stores must abort.
	ok, _ = th.TryTx(TxNormal, func() {
		for i := 0; i < 32; i++ {
			_ = th.Load64(a + uint64(i*e.LineSize()))
		}
		for i := 32; i <= 64; i++ {
			th.Store64(a+uint64(i*e.LineSize()), 1)
		}
	})
	if ok {
		t.Fatal("combined load+store overflow did not abort")
	}

	// Exactly 64 distinct lines, read then written, must fit (no double
	// counting of read-then-written lines).
	ok, ab = th.TryTx(TxNormal, func() {
		for i := 0; i < 64; i++ {
			addr := a + uint64(i*e.LineSize())
			v := th.Load64(addr)
			th.Store64(addr, v+1)
		}
	})
	if !ok {
		t.Fatalf("64-line read+write tx aborted (%v): read->write transition double-counted", ab.Reason)
	}
}

func TestCapacityWayConflictIntel(t *testing.T) {
	e := newTestEngine(t, platform.IntelCore, 1)
	th := e.Thread(0)
	spec := e.Platform()
	// Write 9 lines that map to the same L1 set (stride = sets * lineSize).
	stride := spec.StoreSets * e.LineSize()
	a := th.Alloc((spec.StoreWays + 1) * stride)
	ok, ab := th.TryTx(TxNormal, func() {
		for i := 0; i <= spec.StoreWays; i++ {
			th.Store64(a+uint64(i*stride), 1)
		}
	})
	if ok {
		t.Fatal("same-set store overflow did not abort")
	}
	if ab.Reason != ReasonCapacityWay {
		t.Errorf("reason = %v, want capacity-way", ab.Reason)
	}
}

func TestLargeReadSetFitsIntel(t *testing.T) {
	e := newTestEngine(t, platform.IntelCore, 1)
	th := e.Thread(0)
	// 1000 load lines is far below Intel's 4 MB load capacity and must
	// commit (loads are tracked beyond the L1; no way constraint).
	n := 1000
	a := th.Alloc(n * e.LineSize())
	ok, ab := th.TryTx(TxNormal, func() {
		for i := 0; i < n; i++ {
			_ = th.Load64(a + uint64(i*e.LineSize()))
		}
	})
	if !ok {
		t.Fatalf("large read set aborted: %+v", ab)
	}
}

func TestSMTSharingHalvesCapacity(t *testing.T) {
	e := New(platform.New(platform.POWER8), Config{
		Threads: 12, SpaceSize: 1 << 20, Seed: 1, CostScale: 0, DisablePrefetch: true,
	})
	t0, t6 := e.Thread(0), e.Thread(6) // same core (6 % 6 == 0)
	if t0.core != t6.core {
		t.Fatalf("threads 0 and 6 should share core: %d vs %d", t0.core, t6.core)
	}
	a := t0.Alloc(128 * e.LineSize())

	var ok bool
	var ab Abort
	t6.TryTx(TxNormal, func() {
		_ = t6.Load64(a)
		// With an SMT sibling in-tx, the 64-entry TMCAM halves to 32.
		ok, ab = t0.TryTx(TxNormal, func() {
			for i := 0; i < 40; i++ {
				_ = t0.Load64(a + uint64((i+8)*e.LineSize()))
			}
		})
	})
	if ok {
		t.Fatal("40-line tx should overflow the SMT-halved 32-entry TMCAM")
	}
	if ab.Reason != ReasonCapacitySMT {
		t.Errorf("reason = %v, want capacity-smt", ab.Reason)
	}
}

// TestCapacityNeed: CapacityNeed is the smallest capacity, in lines, under
// which every capacity check passed. A one-line transaction needs nothing,
// 64 lines fill the TMCAM exactly, and with an SMT sibling in a transaction
// each line counts twice: 40 lines overflow the halved TMCAM at the 33rd,
// which needed 66 entries.
func TestCapacityNeed(t *testing.T) {
	e := New(platform.New(platform.POWER8), Config{
		Threads: 12, SpaceSize: 1 << 20, Seed: 1, CostScale: 0, DisablePrefetch: true,
	})
	t0, t6 := e.Thread(0), e.Thread(6) // same core
	a := t0.Alloc(128 * e.LineSize())
	read := func(n int) bool {
		ok, _ := t0.TryTx(TxNormal, func() {
			for i := 0; i < n; i++ {
				_ = t0.Load64(a + uint64(i*e.LineSize()))
			}
		})
		return ok
	}
	if !read(1) || e.CapacityNeed() != 0 {
		t.Fatalf("one-line tx: need %d, want 0", e.CapacityNeed())
	}
	if !read(64) || e.CapacityNeed() != 64 {
		t.Fatalf("64-line tx: need %d, want 64", e.CapacityNeed())
	}
	var ok bool
	t6.TryTx(TxNormal, func() {
		_ = t6.Load64(a + uint64(100*e.LineSize()))
		ok = read(40)
	})
	if ok || e.CapacityNeed() != 66 {
		t.Errorf("40 lines beside an SMT sibling: committed %v, need %d; want an abort and 66", ok, e.CapacityNeed())
	}
}

func TestSpecIDExhaustionBGQ(t *testing.T) {
	e := newTestEngine(t, platform.BlueGeneQ, 1)
	th := e.Thread(0)
	a := th.Alloc(64)
	// Run more transactions than there are speculation IDs; the pool must
	// reclaim (recording waits) rather than deadlock.
	for i := 0; i < 300; i++ {
		ok, _ := th.TryTx(TxNormal, func() { th.Store64(a, uint64(i)) })
		if !ok {
			t.Fatalf("tx %d aborted unexpectedly", i)
		}
	}
	if e.Stats().SpecIDWaits == 0 {
		t.Error("expected speculation-ID reclamation waits after exhausting the 128-ID pool")
	}
}

func TestSuspendResumePOWER8(t *testing.T) {
	e := newTestEngine(t, platform.POWER8, 2)
	t0, t1 := e.Thread(0), e.Thread(1)
	shared := t0.Alloc(128)
	txData := t0.Alloc(256)

	var observed uint64
	t0OK, _ := t0.TryTx(TxNormal, func() {
		t0.Store64(txData, 1)
		t0.Suspend()
		// A non-tx store to the line T0 reads while suspended must NOT doom T0.
		t1.Store64(shared, 42)
		observed = t0.Load64(shared) // non-transactional: no tracking
		t0.Resume()
		t0.Store64(txData+8, observed)
	})

	if !t0OK {
		t.Fatal("suspended access must not make the transaction conflict-doomable on that line")
	}
	if observed != 42 {
		t.Errorf("suspended load observed %d, want 42", observed)
	}
}

func TestRollbackOnlyIgnoresLoadConflicts(t *testing.T) {
	e := newTestEngine(t, platform.POWER8, 2)
	t0, t1 := e.Thread(0), e.Thread(1)
	shared := t0.Alloc(128)
	out := t0.Alloc(128)

	t0OK, _ := t0.TryTx(TxRollbackOnly, func() {
		_ = t0.Load64(shared)
		t1.Store64(shared, 9) // would doom a normal transaction
		t0.Store64(out, 1)
	})
	if !t0OK {
		t.Fatal("rollback-only transaction must not track loads")
	}

	// But ROT stores are still buffered and rolled back on explicit abort.
	ok, _ := t0.TryTx(TxRollbackOnly, func() {
		t0.Store64(out, 55)
		t0.Abort()
	})
	if ok {
		t.Fatal("explicit abort in ROT committed")
	}
	if got := t0.Load64(out); got != 1 {
		t.Errorf("ROT abort left out = %d, want 1", got)
	}
}

func TestConstrainedTxCommitsUnderContention(t *testing.T) {
	for _, quantum := range stressQuanta {
		e := newTestEngineQuantum(t, platform.ZEC12, 4, quantum)
		counter := e.Thread(0).Alloc(256)
		const perThread = 200
		e.Run(4, func(_ int, th *Thread) {
			for j := 0; j < perThread; j++ {
				th.RunConstrained(func() {
					th.Store64(counter, th.Load64(counter)+1)
				})
			}
		})
		if got := e.Thread(0).Load64(counter); got != 4*perThread {
			t.Errorf("quantum %d: constrained counter = %d, want %d", quantum, got, 4*perThread)
		}
	}
}

func TestConstrainedTxEnforcesLimits(t *testing.T) {
	e := newTestEngine(t, platform.ZEC12, 1)
	th := e.Thread(0)
	a := th.Alloc(16 * e.LineSize())
	defer func() {
		r := recover()
		if err, ok := r.(*ErrConstrained); !ok || err.Error() != "htm: constrained transaction: footprint exceeds 4 lines / 256 bytes" {
			t.Errorf("recover() = %v, want the 4-line *ErrConstrained", r)
		}
	}()
	th.RunConstrained(func() {
		for i := 0; i < 8; i++ { // 8 lines > the 4-line constraint
			th.Store64(a+uint64(i*e.LineSize()), 1)
		}
	})
	t.Fatal("constraint violation did not panic")
}

func TestPrefetchCausesNeighborConflicts(t *testing.T) {
	// With the prefetcher on, a transaction touching line L sometimes pulls
	// L+1 into its read set, so a writer of L+1 dooms it — the kmeans
	// effect of Section 5.1. Statistically: run many rounds and require at
	// least one such abort with prefetch on, and none with it off.
	run := func(disable bool) int {
		e := New(platform.New(platform.IntelCore), Config{
			Threads: 2, SpaceSize: 1 << 20, Seed: 7, CostScale: 0,
			DisablePrefetch:         disable,
			DisableCacheFetchAborts: true,
		})
		t0, t1 := e.Thread(0), e.Thread(1)
		a := t0.Alloc(2 * e.LineSize()) // two adjacent lines
		aborts := 0
		for i := 0; i < 200; i++ {
			ok, _ := t0.TryTx(TxNormal, func() {
				_ = t0.Load64(a) // line 0; prefetch may grab line 1
				t1.TryTx(TxNormal, func() {
					t1.Store64(a+uint64(e.LineSize()), 1) // line 1 only
				})
				_ = t0.Load64(a)
			})
			if !ok {
				aborts++
			}
		}
		return aborts
	}
	if got := run(false); got == 0 {
		t.Error("prefetcher on: expected some neighbour-line conflict aborts")
	}
	if got := run(true); got != 0 {
		t.Errorf("prefetcher off: got %d neighbour-line aborts, want 0", got)
	}
}

func TestCacheFetchAbortsZEC12(t *testing.T) {
	e := New(platform.New(platform.ZEC12), Config{
		Threads: 1, SpaceSize: 1 << 20, Seed: 3, CostScale: 0,
	})
	th := e.Thread(0)
	a := th.Alloc(16 * e.LineSize())
	sawAbort := false
	for i := 0; i < 2000 && !sawAbort; i++ {
		ok, ab := th.TryTx(TxNormal, func() {
			for j := 0; j < 16; j++ {
				th.Store64(a+uint64(j*e.LineSize()), uint64(j))
			}
		})
		if !ok && ab.Reason == ReasonCacheFetch {
			sawAbort = true
		}
	}
	if !sawAbort {
		t.Error("zEC12 model produced no cache-fetch-related aborts in 2000 txs")
	}
}

// TestConcurrentCounterStress hammers one counter from many threads with a
// naive retry loop; the committed total must be exact on every platform.
func TestConcurrentCounterStress(t *testing.T) {
	for _, k := range platform.Kinds() {
		t.Run(k.String(), func(t *testing.T) {
			for _, quantum := range stressQuanta {
				e := newTestEngineQuantum(t, k, 8, quantum)
				counter := e.Thread(0).Alloc(512)
				const perThread = 500
				e.Run(8, func(_ int, th *Thread) {
					for j := 0; j < perThread; j++ {
						for {
							ok, _ := th.TryTx(TxNormal, func() {
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
				s := e.Stats()
				if s.Commits != 8*perThread {
					t.Errorf("quantum %d: commits = %d, want %d", quantum, s.Commits, 8*perThread)
				}
				if s.Begins != s.Commits+s.Aborts {
					t.Errorf("quantum %d: begins=%d != commits+aborts=%d", quantum, s.Begins, s.Commits+s.Aborts)
				}
			}
		})
	}
}

// TestBankInvariantStress moves money among accounts under contention; total
// balance is invariant if isolation holds.
func TestBankInvariantStress(t *testing.T) {
	for _, k := range platform.Kinds() {
		t.Run(k.String(), func(t *testing.T) {
			for _, quantum := range stressQuanta {
				e := newTestEngineQuantum(t, k, 4, quantum)
				const nAcct = 32
				const initial = 1000
				base := e.Thread(0).Alloc(nAcct * 8)
				for i := 0; i < nAcct; i++ {
					e.Thread(0).Store64(base+uint64(i*8), initial)
				}
				e.Run(4, func(_ int, th *Thread) {
					rng := th.Rand()
					for j := 0; j < 1000; j++ {
						from := uint64(rng.Intn(nAcct))
						to := uint64(rng.Intn(nAcct))
						amt := uint64(rng.Intn(10))
						// Random back-off on abort: in deterministic time
						// transfers that doom each other otherwise retry in
						// lockstep for ever (requester-wins livelock).
						for try := 1; ; try++ {
							ok, _ := th.TryTx(TxNormal, func() {
								f := th.Load64(base + from*8)
								if f < amt {
									return
								}
								th.Store64(base+from*8, f-amt)
								th.Store64(base+to*8, th.Load64(base+to*8)+amt)
							})
							if ok {
								break
							}
							th.Pause(1 + rng.Intn(8<<min(try, 10)))
						}
					}
				})
				var total uint64
				for i := 0; i < nAcct; i++ {
					total += e.Thread(0).Load64(base + uint64(i*8))
				}
				if total != nAcct*initial {
					t.Errorf("quantum %d: total balance = %d, want %d (isolation violated)", quantum, total, nAcct*initial)
				}
			}
		})
	}
}

func TestStatsFootprintTracking(t *testing.T) {
	e := newTestEngine(t, platform.ZEC12, 1)
	th := e.Thread(0)
	a := th.Alloc(20 * e.LineSize())
	th.TryTx(TxNormal, func() {
		for i := 0; i < 10; i++ {
			_ = th.Load64(a + uint64(i*e.LineSize()))
		}
		for i := 10; i < 15; i++ {
			th.Store64(a+uint64(i*e.LineSize()), 1)
		}
	})
	s := e.Stats()
	if s.MaxReadLines < 10 {
		t.Errorf("MaxReadLines = %d, want >= 10", s.MaxReadLines)
	}
	if s.MaxWriteLines != 5 {
		t.Errorf("MaxWriteLines = %d, want 5", s.MaxWriteLines)
	}
	if s.TxLoads != 10 || s.TxStores != 5 {
		t.Errorf("TxLoads/TxStores = %d/%d, want 10/5", s.TxLoads, s.TxStores)
	}
}

func TestNestedBeginPanics(t *testing.T) {
	e := newTestEngine(t, platform.IntelCore, 1)
	th := e.Thread(0)
	defer func() {
		if recover() == nil {
			t.Error("nested TryTx did not panic")
		}
		// The outer transaction's bookkeeping must have been rolled back.
		if th.InTx() {
			t.Error("thread left in-tx after panic")
		}
	}()
	th.TryTx(TxNormal, func() {
		th.TryTx(TxNormal, func() {})
	})
}

func TestCompareAndSwapNonTx(t *testing.T) {
	e := newTestEngine(t, platform.ZEC12, 1)
	th := e.Thread(0)
	a := th.Alloc(64)
	th.Store64(a, 10)
	if !th.CompareAndSwap64(a, 10, 20) {
		t.Error("CAS with matching old failed")
	}
	if th.CompareAndSwap64(a, 10, 30) {
		t.Error("CAS with stale old succeeded")
	}
	if got := th.Load64(a); got != 20 {
		t.Errorf("value = %d, want 20", got)
	}
}

func TestEngineLineSizeBGQModes(t *testing.T) {
	short := New(platform.New(platform.BlueGeneQ), Config{Threads: 1, Mode: platform.ShortRunning, CostScale: 0})
	long := New(platform.New(platform.BlueGeneQ), Config{Threads: 1, Mode: platform.LongRunning, CostScale: 0})
	if short.LineSize() != 64 {
		t.Errorf("short-running granularity = %d, want 64", short.LineSize())
	}
	if long.LineSize() != 128 {
		t.Errorf("long-running granularity = %d, want 128", long.LineSize())
	}
}

func TestTable1Parameters(t *testing.T) {
	// Guard the Table 1 numbers against accidental edits.
	cases := []struct {
		kind       platform.Kind
		line       int
		loadCap    int
		storeCap   int
		cores, smt int
	}{
		{platform.BlueGeneQ, 128, 20 << 20 / 16, 20 << 20 / 16, 16, 4},
		{platform.ZEC12, 256, 1 << 20, 8 << 10, 16, 1},
		{platform.IntelCore, 64, 4 << 20, 22 << 10, 4, 2},
		{platform.POWER8, 128, 8 << 10, 8 << 10, 6, 8},
	}
	for _, c := range cases {
		s := platform.New(c.kind)
		if s.LineSize != c.line || s.LoadCapacity != c.loadCap || s.StoreCapacity != c.storeCap ||
			s.Cores != c.cores || s.SMT != c.smt {
			t.Errorf("%v: got line=%d load=%d store=%d cores=%d smt=%d, want %+v",
				c.kind, s.LineSize, s.LoadCapacity, s.StoreCapacity, s.Cores, s.SMT, c)
		}
	}
}

func TestStrongIsolationSequentialFastPath(t *testing.T) {
	e := newTestEngine(t, platform.IntelCore, 1)
	th := e.Thread(0)
	a := th.Alloc(64)
	th.Store64(a, 5)
	if got := th.Load64(a); got != 5 {
		t.Errorf("non-tx roundtrip = %d, want 5", got)
	}
	th.StorePtr(a+8, a)
	if got := th.LoadPtr(a + 8); got != a {
		t.Errorf("pointer roundtrip = %#x, want %#x", got, a)
	}
	th.StoreFloat64(a+16, 3.25)
	if got := th.LoadFloat64(a + 16); got != 3.25 {
		t.Errorf("float roundtrip = %v, want 3.25", got)
	}
	// Each store wrote its own word and nothing else: the untracked view of
	// the arena agrees, and the word after them is still zero.
	sp := e.Space()
	if sp.Load64(a) != 5 || sp.Load64(a+8) != a || sp.Load64(a+24) != 0 {
		t.Errorf("arena words = %#x %#x %#x, want 5 %#x 0", sp.Load64(a), sp.Load64(a+8), sp.Load64(a+24), a)
	}
}

// TestUnalignedWordAccess pins the one access width: a tracked access is an
// aligned 8-byte word. A word access at an address that is 4 mod 8 (here the
// last four bytes of one conflict-detection line and the first four of the
// next) aborts an HTM or STM attempt with ReasonConflict, as a nil address
// does, and leaves both neighbouring words as they were; outside a
// transaction it panics. The last aligned word of a line is one line of
// footprint.
func TestUnalignedWordAccess(t *testing.T) {
	const lo, hi, v = 0x1111111111111111, 0x2222222222222222, 0x3333333333333333
	attempts := []struct {
		name string
		new  func(*testing.T) *Engine
		try  func(th *Thread, fn func()) (bool, Abort)
	}{
		{"htm", func(t *testing.T) *Engine { return newTestEngine(t, platform.IntelCore, 1) },
			func(th *Thread, fn func()) (bool, Abort) { return th.TryTx(TxNormal, fn) }},
		{"stm", func(t *testing.T) *Engine { return stmEngine(t, 1) }, (*Thread).TrySTM},
	}
	for _, at := range attempts {
		e := at.new(t)
		th := e.Thread(0)
		line := th.lineSize
		a := th.AllocAligned(int(2*line), int(line)) + line - 8 // a line's last word
		th.Store64(a, lo)
		th.Store64(a+8, hi)
		var read uint64
		accesses := []struct {
			op string
			do func()
		}{
			{"Load64", func() { read = th.Load64(a + 4) }},
			{"Store64", func() { th.Store64(a+4, v) }},
		}
		for _, acc := range accesses {
			read = 0
			if ok, ab := at.try(th, acc.do); ok || ab.Reason != ReasonConflict {
				t.Errorf("%s %s(a+4): committed=%v reason=%v read=%#x, want a ReasonConflict abort",
					at.name, acc.op, ok, ab.Reason, read)
			}
			if w0, w1 := th.Load64(a), th.Load64(a+8); w0 != lo || w1 != hi {
				t.Errorf("%s %s(a+4): words = %#x %#x, want %#x %#x", at.name, acc.op, w0, w1, uint64(lo), uint64(hi))
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: non-transactional %s(a+4) did not panic", at.name, acc.op)
					}
				}()
				acc.do()
			}()
		}
	}

	e := newTestEngine(t, platform.IntelCore, 1)
	th := e.Thread(0)
	a := th.AllocAligned(128, 64) + 56
	ok, _ := th.TryTx(TxNormal, func() {
		th.Load64(a)
		if n := th.rs.size(); n != 1 {
			t.Errorf("read set after a load at line offset 56 = %d lines, want 1", n)
		}
	})
	if !ok {
		t.Error("load of a line's last aligned word aborted")
	}
}
