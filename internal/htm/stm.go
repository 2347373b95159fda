package htm

import (
	"htmcmp/internal/chaos"
	"htmcmp/internal/mem"
)

// Software transactional memory: a NOrec-style runtime (Dalessandro, Spear,
// Scott, PPoPP 2010 — reference [15] of the paper) over the same simulated
// memory and the same Thread access API as the HTM models.
//
// The paper's premise (Sections 1 and 8) is that HTM exists because STM's
// per-access instrumentation is too expensive, while STM has no capacity
// limits and is portable. Running the same STAMP ports under NOrec makes
// that trade-off measurable: TrySTM has value-based word-granularity
// conflict detection (no false sharing, no capacity aborts, no cache-fetch
// weirdness) but pays instrumentation on every load and store and validates
// its whole read log whenever the global sequence lock moves.
//
// NOrec in brief: one global sequence lock (even = free). A transaction
// snapshots it at begin; every transactional load is logged (address,
// value); whenever the lock is observed to have moved, the read log is
// re-validated by value and the snapshot advances (abort on any change).
// Stores go to a write buffer. Commit acquires the lock by CAS, making the
// writer exclusive, re-validates if needed, writes back, and releases with
// snapshot+2. Read-only transactions commit without touching the lock.

// STM instrumentation costs in cycles, on top of the base access cost.
// Scaled by Config.CostScale like the platform costs.
const (
	stmLoadCost     = 9  // read-log append + lock check
	stmStoreCost    = 5  // write-buffer insert
	stmValidateCost = 2  // per read-log entry re-read and compare
	stmBeginCost    = 6  // snapshot
	stmCommitCost   = 25 // lock CAS + release
	stmAbortCost    = 30 // log reset + restart
)

// stmEntry is one read-log record.
type stmEntry struct {
	addr mem.Addr
	val  uint64
}

// stmState is the per-thread NOrec context (embedded in Thread). The write
// buffer is an accessTab (word-aligned address -> value) so clearing it at
// begin is an O(1) epoch bump rather than a map sweep; write-back order is
// kept in the explicit order log, never taken from the table.
type stmState struct {
	active   bool
	snapshot uint64
	readLog  []stmEntry
	writes   accessTab[mem.Addr, uint64]
	order    []mem.Addr // write-back order
}

// InSTM reports whether a software transaction is active on this thread.
func (t *Thread) InSTM() bool { return t.stm.active }

// TrySTM runs fn as one NOrec software transaction attempt. Like TryTx it
// returns (false, abort) on a validation failure with all stores discarded;
// unlike best-effort HTM there are no capacity or implementation aborts —
// the only reason is ReasonConflict. RunSTM in internal/tm retries until
// commit (NOrec guarantees progress for writers once the lock is held).
func (t *Thread) TrySTM(fn func()) (committed bool, abort Abort) {
	if t.inTx || t.stm.active {
		panic("htm: nested transaction begin")
	}
	t.stmBegin()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortSignal); !ok {
				t.stmRollback()
				panic(r)
			}
			t.stmRollback()
			committed, abort = false, t.pendingAbort
		}
	}()
	fn()
	t.stmCommit()
	return true, Abort{}
}

func (t *Thread) stmBegin() {
	t.stm.active = true
	t.stm.readLog = t.stm.readLog[:0]
	t.stm.order = t.stm.order[:0]
	t.stm.writes.reset()
	t.pendingAbort = Abort{}
	t.stats.Begins++
	t.work(t.eng.scaledCost(stmBeginCost))
	t.stm.snapshot = t.seqAwaitEven()
}

// seqAwaitEven returns the NOrec sequence lock once it is even (no writer
// mid-commit), spinning while it is odd.
func (t *Thread) seqAwaitEven() uint64 {
	e := t.eng
	if e.stmSeq&1 != 0 {
		t.SpinUntil(4, func() bool { return e.stmSeq&1 == 0 })
	}
	return e.stmSeq
}

func (t *Thread) stmRollback() {
	t.stm.active = false
	t.stats.Aborts++
	t.stats.AbortsByReason[t.pendingAbort.Reason]++
	for _, a := range t.allocs {
		t.eng.space.FreeArena(a, t.slot)
	}
	t.allocs = t.allocs[:0]
	t.frees = t.frees[:0]
	t.work(t.eng.scaledCost(stmAbortCost))
}

// stmValidate re-reads the whole read log after the sequence lock moved; a
// changed value aborts, otherwise the snapshot advances (NOrec's value-based
// validation).
func (t *Thread) stmValidate() {
	for {
		s := t.seqAwaitEven()
		t.work(t.eng.scaledCost(stmValidateCost) * (len(t.stm.readLog) + 1))
		data := t.data
		for _, ent := range t.stm.readLog {
			if le64(data[ent.addr:]) != ent.val {
				t.abortNow(ReasonConflict, false)
			}
		}
		if t.eng.stmSeq == s {
			t.stm.snapshot = s
			return
		}
	}
}

// injectSTMContention models a concurrent NOrec writer commit: the global
// sequence lock advances by 2 (even to even; a real writer holding the odd
// lock is left alone), publishing nothing. Every in-flight
// software transaction observes the moved clock and revalidates its read
// log — the cost NOrec pays under write contention — and, values being
// unchanged, continues.
func (t *Thread) injectSTMContention() {
	if t.eng.stmSeq&1 == 0 { // else a real writer holds the lock: contention already exists
		t.eng.stmSeq += 2
	}
}

// stmLoadWord performs a NOrec transactional load of the aligned word at a.
func (t *Thread) stmLoadWord(a mem.Addr) uint64 {
	if v, ok := t.stm.writes.get(a); ok {
		return v
	}
	if t.faults != nil && t.faults.Roll(chaos.STMContention) {
		t.injectSTMContention()
	}
	t.work(t.eng.scaledCost(stmLoadCost))
	t.maybeYield()
	t.stats.TxLoads++
	for {
		v := le64(t.data[a:])
		if t.eng.stmSeq == t.stm.snapshot {
			t.stm.readLog = append(t.stm.readLog, stmEntry{addr: a, val: v})
			return v
		}
		t.stmValidate()
	}
}

// stmStoreWord buffers a NOrec transactional store of the aligned word at a.
func (t *Thread) stmStoreWord(a mem.Addr, v uint64) {
	t.work(t.eng.scaledCost(stmStoreCost))
	t.maybeYield()
	t.stats.TxStores++
	if !t.stm.writes.has(a) {
		t.stm.order = append(t.stm.order, a)
	}
	t.stm.writes.put(a, v)
}

func (t *Thread) stmCommit() {
	st := &t.stm
	if len(st.order) == 0 {
		// Read-only: NOrec commits without the lock.
		st.active = false
		t.stats.Commits++
		t.work(t.eng.scaledCost(stmCommitCost) / 2)
		t.allocs = t.allocs[:0]
		t.frees = t.frees[:0]
		return
	}
	// Acquire the sequence lock from our snapshot; if the clock has moved,
	// validate (advancing the snapshot) and try again.
	for t.eng.stmSeq != st.snapshot {
		t.stmValidate()
	}
	t.eng.stmSeq = st.snapshot + 1
	// Exclusive: write back in order. No yields while the lock is odd so
	// the critical section stays short (as a real NOrec's would).
	data := t.data
	for _, a := range st.order {
		v, _ := st.writes.get(a)
		putLE64(data[a:], v)
	}
	if t.wit != nil {
		// While the sequence lock is held: writer commits are totally
		// ordered by it, so the witness sequence matches visibility order.
		t.witnessSTM()
	}
	if t.eng.hybrid {
		// Hybrid mode (hybrid.go): the write-back above bypassed the line
		// table, so hardware transactions reading those lines were never
		// doomed. Every adaptive hardware transaction subscribes to the gate
		// line; doom them all before releasing the sequence lock.
		t.doomHybridGateReaders()
	}
	t.work(t.eng.scaledCost(stmCommitCost) + len(st.order))
	t.eng.stmSeq = st.snapshot + 2
	st.active = false
	t.stats.Commits++
	for _, a := range t.frees {
		t.eng.space.FreeArena(a, t.slot)
	}
	t.frees = t.frees[:0]
	t.allocs = t.allocs[:0]
	t.maybeYield()
}
