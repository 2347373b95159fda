package htm

import (
	"fmt"
	"math"
	"math/bits"

	"htmcmp/internal/chaos"
	"htmcmp/internal/mem"
	"htmcmp/internal/obs"
	"htmcmp/internal/platform"
	"htmcmp/internal/prng"
)

// TxKind selects the transaction flavour at begin.
type TxKind int

const (
	// TxNormal is an ordinary best-effort transaction.
	TxNormal TxKind = iota
	// TxRollbackOnly is POWER8's rollback-only transaction: stores are
	// buffered and rolled back, but loads are not tracked and detect no
	// conflicts (Section 2.4).
	TxRollbackOnly
	// TxConstrained is a zEC12 constrained transaction: at most 32
	// accesses touching at most 4 lines, but guaranteed to eventually
	// commit (Section 2.2). Run through Thread.RunConstrained.
	TxConstrained
)

// abortSignal is the panic payload that unwinds a transaction to its begin
// point, mirroring the hardware register rollback.
type abortSignal struct{}

// ErrConstrained reports a constrained-transaction constraint violation.
// Unlike an abort, this is a programming error (real hardware would raise a
// constraint interrupt), so it surfaces as a regular panic value.
type ErrConstrained struct{ Msg string }

func (e *ErrConstrained) Error() string { return "htm: constrained transaction: " + e.Msg }

// Thread is one hardware-thread context. All transactional and
// strongly-isolated non-transactional memory accesses of a simulated thread
// go through its Thread. The Threads of one engine share its line table and
// arena without locks: run them with Engine.Run, or one at a time from a
// single goroutine.
type Thread struct {
	eng  *Engine
	slot int
	core int
	rng  *prng.Rand

	status     int32
	doomReason Reason

	// Virtual-time scheduling state. Exactly one thread runs at a time (the
	// baton holder inside a region, the caller's pick outside one), and every
	// scheduling point (maybeYield/Pause) sits outside the line-table
	// critical sections: that single-runner invariant is what makes the line
	// table and the arena race-free with no lock. yieldBudget counts accesses
	// down to the next voluntary yield so the per-access check is one
	// decrement and one branch. park gives the processor back to the region's
	// driver until re-election (false: the region was stopped).
	vclock      uint64
	park        func() bool
	entered     bool
	yieldBudget int
	quantum     int

	inTx        bool
	stm         stmState // NOrec software-transaction context (stm.go)
	kind        TxKind
	hardened    bool // constrained tx under the arbiter: immune to dooming
	suspendCnt  int  // POWER8 suspend/resume depth
	accessCount int  // constrained-tx instruction budget

	// rs maps line -> counted; counted=false means the line entered the
	// read set via the hardware prefetcher (conflict-detectable but not
	// charged against capacity). ws maps line -> buffered line copy. Both
	// are open-addressed epoch-reset tables (accessset.go); iteration goes
	// through readOrder/writeOrder, never the tables.
	rs           accessTab[uint32, bool]
	ws           accessTab[uint32, []byte]
	readOrder    []uint32
	writeOrder   []uint32
	readsCounted int
	waysets      wayCounter
	bufPool      [][]byte
	specID       int
	pendingAbort Abort
	allocs       []mem.Addr
	frees        []mem.Addr
	stats        Stats

	// Event-tracing state (internal/obs). trace caches cfg.Tracer, nil
	// when tracing is off — the only thing the disabled path ever checks.
	// Events are recorded at transaction boundaries exclusively; none of
	// this is touched on the per-access path. beginClock/retryDepth are
	// owner-only. doomLine/doomBy are the abort-attribution tags an aborter
	// writes (doomTagged) before dooming this thread.
	// pendingLine/pendingBy ride alongside pendingAbort from the abort site
	// to rollback's event record.
	trace      *obs.Tracer
	beginClock uint64
	retryDepth uint16
	// faults caches this thread's chaos roll stream (cfg.Faults): nil means
	// fault injection is off and every hook is one nil check, exactly like
	// trace/wit. The stream is derived per slot, so injection under
	// the virtual-time scheduler is deterministic.
	faults *chaos.Stream

	// Witness-log state (witness.go). wit caches cfg.Witness: nil means
	// recording is off and every hook is one nil check. witSeen dedupes
	// first-reads per transaction (rs cannot serve: its counted flag is
	// capacity bookkeeping — prefetches and read→write demotions would be
	// missed); witReads/witWrites accumulate the current transaction's
	// record. All owner-only.
	wit         *Witness
	witSeen     accessTab[uint32, bool]
	witReads    []WitnessRead
	witWrites   []WitnessWrite
	doomLine    uint32
	doomBy      int16
	pendingLine uint32
	pendingBy   int16

	// hybridSeq is the sequence-lock value held across a hybrid writer
	// commit's publication (hybrid.go).
	hybridSeq uint64

	loadCostPerOp  int
	storeCostPerOp int
	beginCost      int
	commitCost     int
	abortCost      int
	prefetchProb   float64
	cacheFetchProb float64

	// Hot-path caches of engine-invariant state: the line-index shift and
	// size, the flat line-ownership table with its epoch (read through
	// rec), and the raw arena bytes. They turn every per-access lookup into
	// one pointer chase instead of two (t.lines[i] vs going through t.eng)
	// and stay valid for the engine's lifetime — mem.Space.Reset never
	// reallocates the backing array, and Engine.Release nils them out along
	// with the engine's own references.
	lineShift uint
	lineSize  uint64
	lines     []lineRec
	epoch     uint32
	data      []byte

	// A pending SpinUntil: predicate and per-poll cost (vsched.poll, skip).
	// spinTry is non-nil only between polls. resume is park's counterpart,
	// the driver's call into this thread. Kept last so the per-access fields
	// above sit where they did without them.
	spinTry func() bool
	spinN   int
	resume  func()

	// capNeed is the smallest capacity, in lines, under which every
	// capacity check of this thread would have passed (Engine.CapacityNeed).
	capNeed int
}

func newThread(e *Engine, slot int) *Thread {
	t := &Thread{
		eng:    e,
		slot:   slot,
		core:   e.plat.CoreOf(slot),
		rng:    e.rngFor(slot),
		specID: -1,
		trace:  e.cfg.Tracer,

		quantum:     e.sched.quantum,
		yieldBudget: e.sched.quantum,

		lineShift: e.lineShift,
		lineSize:  uint64(e.lineSize),
		lines:     e.table.recs,
		epoch:     e.table.epoch,
		data:      e.space.Data(),
	}
	if e.cfg.Faults != nil {
		t.faults = e.cfg.Faults.Stream(slot)
	}
	if e.cfg.Witness != nil {
		t.wit = e.cfg.Witness
		t.witSeen.init()
	}
	t.rs.init()
	t.ws.init()
	t.stm.writes.init()
	if e.plat.StoreSets > 0 {
		t.waysets.init(e.plat.StoreSets)
	}
	c := e.plat.Costs
	t.beginCost = e.scaledCost(c.Begin)
	t.commitCost = e.scaledCost(c.Commit)
	t.abortCost = e.scaledCost(c.Abort)
	t.loadCostPerOp = e.scaledCost(c.TxLoad)
	t.storeCostPerOp = e.scaledCost(c.TxStore)
	if e.plat.Kind == platform.BlueGeneQ && e.cfg.Mode == platform.LongRunning {
		t.beginCost = e.scaledCost(e.plat.BeginLong)
		t.loadCostPerOp = 0 // L1 serves transactional loads in long mode
	}
	if !e.cfg.DisablePrefetch {
		t.prefetchProb = e.plat.PrefetchProb
	}
	if !e.cfg.DisableCacheFetchAborts {
		t.cacheFetchProb = e.plat.CacheFetchAbortProb
	}
	return t
}

// Engine returns the owning engine.
func (t *Thread) Engine() *Engine { return t.eng }

// Rand returns the thread's deterministic PRNG (for workload use).
func (t *Thread) Rand() *prng.Rand { return t.rng }

// InTx reports whether a transaction is active on this thread.
func (t *Thread) InTx() bool { return t.inTx }

// Clock returns the thread's virtual clock in cost units.
func (t *Thread) Clock() uint64 { return t.vclock }

// ---------------------------------------------------------------------------
// Virtual-time participation

// work charges n cost units of virtual time without a yield point.
func (t *Thread) work(n int) {
	if n > 0 {
		t.vclock += uint64(n)
	}
}

// maybeYield is a voluntary scheduling point (no Go locks may be held). The
// between-yield cost is one decrement and one branch; the scheduler is only
// consulted when the budget runs out.
func (t *Thread) maybeYield() {
	if !t.entered {
		return
	}
	t.yieldBudget--
	if t.yieldBudget <= 0 {
		t.yieldBudget = t.quantum
		t.eng.sched.yield(t)
	}
}

// baseAccessCost is the cost of one memory access in cycles (an L1 hit).
const baseAccessCost = 4

// roAccessCost is the cost of a read-only cached access (LoadRO*): hot
// shared lines that hardware serves without coherence traffic.
const roAccessCost = 2

// tickOp charges one memory access (base cost plus extra) and counts it
// toward the yield quantum.
func (t *Thread) tickOp(extra int) {
	t.work(baseAccessCost + extra)
	t.maybeYield()
}

// tickRO charges a read-only cached access.
func (t *Thread) tickRO() {
	t.work(roAccessCost)
	t.maybeYield()
}

// Work charges n cost units of workload computation (the benchmark's
// non-memory arithmetic) and allows a reschedule. Benchmarks use it so the
// compute between memory accesses occupies virtual time.
func (t *Thread) Work(n int) {
	t.work(n)
	t.maybeYield()
}

// Pause charges n cost units and always offers the processor to another
// thread — the spin-wait primitive for lock waits and TLS ordering waits.
func (t *Thread) Pause(n int) {
	t.work(n)
	if t.entered {
		t.yieldBudget = t.quantum
		t.eng.sched.yield(t)
	}
}

// SpinUntil is the one way to wait on Go-side state (a lock mirror, the
// NOrec sequence lock). Inside a region it is exactly
// `for !try() { t.Pause(n) }`, except that the polls of a parked waiter run
// on whichever thread is electing, so try must only read or update state that
// baton holders write: no simulated-memory access, Pause or Barrier.Wait, on
// pain of a panic. A poll that fails is not repeated until another thread has
// held the baton: the repeats it stands for are charged n units each at once,
// so n must be at least 1. Outside a region no other thread can run to make a
// false predicate true, so try gets one call and a false result panics.
func (t *Thread) SpinUntil(n int, try func() bool) {
	if t.entered {
		t.eng.sched.spin(t, n, try)
		return
	}
	if !try() {
		panic("htm: SpinUntil outside a region would wait forever")
	}
}

// ---------------------------------------------------------------------------
// Transaction lifecycle

// TryTx runs fn as one transaction attempt of the given kind. It returns
// (true, zero Abort) on commit, or (false, abort info) if the transaction
// aborted — in which case all its stores have been rolled back, exactly like
// a hardware abort returning to the instruction after tbegin. Retry policy
// is the caller's job (internal/tm implements the paper's Figure 1).
func (t *Thread) TryTx(kind TxKind, fn func()) (committed bool, abort Abort) {
	if t.inTx {
		panic("htm: nested transaction begin (STAMP uses flat transactions)")
	}
	t.begin(kind)
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortSignal); !ok {
				// A real panic (workload bug): roll back bookkeeping so
				// the engine stays consistent, then re-panic.
				t.rollback()
				panic(r)
			}
			t.rollback()
			committed, abort = false, t.pendingAbort
		}
	}()
	fn()
	if !t.commit() {
		t.rollback()
		return false, t.pendingAbort
	}
	return true, Abort{}
}

// RunConstrained runs fn as a zEC12 constrained transaction, retrying until
// it commits — the hardware guarantee of Section 2.2. fn must respect the
// constraints (≤32 accesses, ≤4 lines) or the call panics with
// *ErrConstrained. It returns the number of aborts endured before success.
func (t *Thread) RunConstrained(fn func()) int {
	if !t.eng.plat.HasConstrainedTx {
		panic("htm: constrained transactions are a zEC12 feature")
	}
	aborts := 0
	for attempt := 0; ; attempt++ {
		if attempt == 4 {
			// Hardware escalates progressively (disabling superscalar
			// execution, fetching lines exclusively, finally quiescing
			// other CPUs). We model the endpoint: one arbitrated,
			// doom-immune attempt at a time.
			t.eng.lockArbiter(t)
			t.hardened = true
		}
		ok, _ := t.TryTx(TxConstrained, fn)
		if t.hardened {
			t.hardened = false
			t.eng.unlockArbiter()
		}
		if ok {
			return aborts
		}
		aborts++
		t.Pause(1 << uint(min(attempt, 10))) // exponential backoff
	}
}

func (t *Thread) begin(kind TxKind) {
	if t.eng.specPool != nil {
		waited := t.eng.specPool.acquire(t)
		if waited {
			t.stats.SpecIDWaits++
		}
	}
	t.inTx = true
	t.kind = kind
	t.accessCount = 0
	t.pendingAbort = Abort{}
	t.doomReason = ReasonNone
	if t.trace != nil {
		// Clear stale attribution tags before becoming doomable, record the
		// begin, and remember the clock for the commit/abort Dur. Recording
		// charges no virtual time: tracing must not perturb the simulation.
		t.doomLine, t.doomBy = obs.NoLine, obs.NoThread
		t.beginClock = t.vclock
		t.trace.Record(obs.Event{
			Kind: obs.KindBegin, Thread: uint8(t.slot), Retry: t.retryDepth,
			Aborter: obs.NoThread, Line: obs.NoLine, VClock: t.vclock,
		})
	}
	t.status = statusActive
	t.eng.cores[t.core].activeTx++
	t.eng.activeTx++
	t.stats.Begins++
	t.work(t.beginCost)
}

// commit publishes buffered stores and releases ownership. A committing
// transaction is immune to dooming: conflicting requesters abort instead.
// An abort found here, after the body has returned, is recorded with pend
// and reported by returning false: there is no body left to unwind, so the
// caller rolls back directly.
func (t *Thread) commit() bool {
	// Injected interrupt: the transaction dies at the commit boundary the
	// way BG/Q and zEC12 transactions die when an external interrupt lands.
	// Raised before the commit sequence number is drawn and before the
	// transaction turns visibly committing, so the ordinary transient-abort
	// path (rollback, retry) handles it. Hardened (constrained) transactions
	// are immune, as on real zEC12.
	if t.faults != nil && !t.hardened && t.faults.Roll(chaos.SpuriousAbort) {
		t.pend(ReasonInterrupt, false, obs.NoLine, obs.NoThread)
		return false
	}
	// The commit sequence number is taken before the transaction becomes
	// visibly committing: any access that observes the committing status
	// (and therefore orders itself after this commit) is guaranteed to draw
	// a later number. A doomed transaction wastes its number — Replay
	// tolerates gaps.
	var witSeq uint64
	if t.wit != nil {
		t.wit.seq++
		witSeq = t.wit.seq
	}
	// Hybrid-NOrec writer fence (hybrid.go): acquire the STM sequence lock
	// around publication so software transactions revalidate against it.
	// Acquired while still doomable — an STM writer holding the lock aborts
	// this transaction through the gate instead of letting it spin into a
	// commit of stale reads.
	fenced := t.eng.hybrid && len(t.writeOrder) > 0
	if fenced {
		t.hybridSeqAcquire()
	}
	if t.status != statusActive {
		// Doomed between the last access and commit.
		if fenced {
			t.hybridSeqRelease()
		}
		t.pendDoomed(t.doomReason)
		return false
	}
	t.status = statusCommitting
	// Publish the written lines. Eager dooming guarantees no live
	// transaction still holds any of them, and nothing between here and the
	// idle status below is a scheduling point, so the publication is atomic.
	data := t.data
	for _, line := range t.writeOrder {
		buf, _ := t.ws.get(line)
		base := uint64(line) << t.lineShift
		end := base + t.lineSize
		if end > uint64(len(data)) {
			end = uint64(len(data))
		}
		copy(data[base:end], buf)
		rec := t.rec(line)
		rec.writer = -1
		rec.clearReader(t.slot)
		if t.wit != nil {
			t.wit.ver[line]++
			t.witWrites = append(t.witWrites, WitnessWrite{
				Addr: base, Line: line,
				Data: append([]byte(nil), buf[:end-base]...),
			})
		}
		// The buffer's contents are published; recycle it.
		t.bufPool = append(t.bufPool, buf)
	}
	if fenced {
		t.hybridSeqRelease()
	}
	for _, line := range t.readOrder {
		if t.ws.has(line) {
			continue // released above
		}
		t.rec(line).clearReader(t.slot)
	}
	if t.trace != nil {
		// Before finishTx resets the access sets: footprints are still live.
		t.trace.Record(obs.Event{
			Kind: obs.KindCommit, Thread: uint8(t.slot), Retry: t.retryDepth,
			Aborter: obs.NoThread, Line: obs.NoLine,
			ReadLines: uint32(t.readsCounted), WriteLines: uint32(t.ws.size()),
			VClock: t.vclock, Dur: t.vclock - t.beginClock,
		})
		t.retryDepth = 0
	}
	if t.wit != nil {
		t.witnessCommitRecord(witSeq)
	}
	t.finishTx()
	t.stats.Commits++
	// Deferred frees become visible only now that the transaction is
	// durable (STAMP's TM_FREE semantics).
	for _, a := range t.frees {
		t.eng.space.FreeArena(a, t.slot)
	}
	t.frees = t.frees[:0]
	t.allocs = t.allocs[:0]
	t.status = statusIdle
	t.work(t.commitCost)
	return true
}

// rollback discards buffered state after an abort.
func (t *Thread) rollback() {
	if t.trace != nil {
		t.trace.Record(obs.Event{
			Kind: obs.KindAbort, Thread: uint8(t.slot),
			Reason: uint8(t.pendingAbort.Reason), Retry: t.retryDepth,
			Aborter: t.pendingBy, Line: t.pendingLine,
			ReadLines: uint32(t.readsCounted), WriteLines: uint32(t.ws.size()),
			VClock: t.vclock, Dur: t.vclock - t.beginClock,
		})
		if t.retryDepth < ^uint16(0) {
			t.retryDepth++
		}
	}
	for _, line := range t.writeOrder {
		buf, _ := t.ws.get(line)
		rec := t.rec(line)
		if rec.writer == int32(t.slot) {
			rec.writer = -1
		}
		rec.clearReader(t.slot)
		t.bufPool = append(t.bufPool, buf)
	}
	for _, line := range t.readOrder {
		if t.ws.has(line) {
			continue
		}
		t.rec(line).clearReader(t.slot)
	}
	t.finishTx()
	t.stats.Aborts++
	t.stats.AbortsByReason[t.pendingAbort.Reason]++
	// Transactionally allocated blocks never became visible; reclaim them.
	for _, a := range t.allocs {
		t.eng.space.FreeArena(a, t.slot)
	}
	t.allocs = t.allocs[:0]
	t.frees = t.frees[:0]
	t.status = statusIdle
	t.work(t.abortCost)
}

// finishTx clears the per-transaction tracking state common to commit and
// rollback and releases SMT/spec-ID resources.
func (t *Thread) finishTx() {
	if n := t.rs.size(); n > t.stats.MaxReadLines {
		t.stats.MaxReadLines = n
	}
	if n := t.ws.size(); n > t.stats.MaxWriteLines {
		t.stats.MaxWriteLines = n
	}
	if t.wit != nil {
		t.witSeen.reset()
		t.witReads = t.witReads[:0]
		t.witWrites = nil // non-nil only if an abort interrupted publication (impossible)
	}
	t.rs.reset()
	t.ws.reset()
	t.waysets.reset()
	t.readOrder = t.readOrder[:0]
	t.writeOrder = t.writeOrder[:0]
	t.readsCounted = 0
	t.suspendCnt = 0
	t.inTx = false
	t.eng.cores[t.core].activeTx--
	t.eng.activeTx--
	if t.eng.specPool != nil && t.specID >= 0 {
		t.eng.specPool.release(t.specID)
		t.specID = -1
	}
}

// TraceEvent records a runtime-level event (the adaptive runtime's mode
// switches) into the engine's event log, filling in the Thread and VClock
// fields. Recording charges no virtual time; a no-op when tracing is off.
func (t *Thread) TraceEvent(ev obs.Event) {
	if t.trace == nil {
		return
	}
	ev.Thread = uint8(t.slot)
	ev.VClock = t.vclock
	t.trace.Record(ev)
}

// abortNow records the abort and unwinds to the begin point.
func (t *Thread) abortNow(reason Reason, persistent bool) {
	t.abortAt(reason, persistent, obs.NoLine, obs.NoThread)
}

// abortAt is abortNow carrying the conflicting line and the dooming thread
// for abort attribution (obs.NoLine / obs.NoThread when inapplicable).
func (t *Thread) abortAt(reason Reason, persistent bool, line uint32, by int16) {
	t.pend(reason, persistent, line, by)
	panic(abortSignal{})
}

// pend records the abort rollback reports, without unwinding.
func (t *Thread) pend(reason Reason, persistent bool, line uint32, by int16) {
	t.pendingAbort = Abort{Reason: reason, Persistent: persistent}
	t.pendingLine, t.pendingBy = line, by
}

// pendDoomed records the abort of a transaction another thread doomed,
// picking up the attribution tags that thread left via doomTagged.
func (t *Thread) pendDoomed(reason Reason) {
	if t.trace != nil {
		t.pend(reason, false, t.doomLine, t.doomBy)
		return
	}
	t.pend(reason, false, obs.NoLine, obs.NoThread)
}

// Abort explicitly aborts the current transaction — the tabort instruction
// for hardware transactions, a programmatic restart for software ones.
func (t *Thread) Abort() {
	if !t.inTx && !t.stm.active {
		panic("htm: Abort outside a transaction")
	}
	t.abortNow(ReasonExplicit, false)
}

// checkDoomed aborts if another thread has doomed this transaction. It is
// the first step of every transactional operation so that a doomed
// transaction cannot act on inconsistent data.
func (t *Thread) checkDoomed() {
	if t.status == statusDoomed {
		r := t.doomReason
		if r == ReasonNone {
			r = ReasonConflict
		}
		t.pendDoomed(r)
		panic(abortSignal{})
	}
}

// doomTagged is doom with the conflicting line and this (aborting) thread
// recorded on the victim for abort attribution. The tags are written before
// the doom so the victim cannot observe the doomed status without them; a
// tag left on a victim that turned out to be immune is overwritten or
// cleared at its next begin.
func (t *Thread) doomTagged(line uint32, victim int32, reason Reason) bool {
	if t.eng.traced {
		v := t.eng.threads[victim]
		v.doomLine, v.doomBy = line, int16(t.slot)
	}
	return t.doom(victim, reason)
}

// doom attempts to abort the transaction on thread victim with the given
// reason, as a coherence invalidation would. It fails (returns false) when
// the victim is already committing (immune) or the victim is hardened.
func (t *Thread) doom(victim int32, reason Reason) bool {
	v := t.eng.threads[victim]
	if v.hardened {
		return false
	}
	v.doomReason = reason
	if v.status == statusActive {
		v.status = statusDoomed
	}
	return v.status == statusDoomed
}

// Suspend suspends transactional execution (POWER8's tsuspend, Section 2.4):
// until Resume, memory accesses on this thread are non-transactional and are
// neither tracked nor buffered. Suspend nests.
func (t *Thread) Suspend() {
	if !t.eng.plat.HasSuspendResume {
		panic("htm: suspend/resume is a POWER8 feature")
	}
	if !t.inTx {
		panic("htm: Suspend outside a transaction")
	}
	t.suspendCnt++
}

// Resume resumes transactional execution. If the transaction was doomed
// while suspended, the abort is taken here (as hardware does at tresume).
func (t *Thread) Resume() {
	if t.suspendCnt == 0 {
		panic("htm: Resume without Suspend")
	}
	t.suspendCnt--
	if t.suspendCnt == 0 {
		t.checkDoomed()
	}
}

// ---------------------------------------------------------------------------
// Line registration and conflict resolution

// rec returns line's ownership record, the only way to reach one: a record
// last written under another engine's epoch (or never — a fresh table is
// all zeroes) is reset to quiescent first, which is what lets getLineTable
// recycle tables without wiping them.
func (t *Thread) rec(line uint32) *lineRec {
	r := &t.lines[line]
	if r.epoch != t.epoch {
		*r = lineRec{writer: -1, epoch: t.epoch}
	}
	return r
}

// resolveAsReader registers the line for reading, resolving conflicts with a
// current writer. Requester-wins: the writer is doomed; if it is committing
// (immune) the requester aborts instead.
func (t *Thread) resolveAsReader(line uint32, counted bool) {
	rec := t.rec(line)
	if w := rec.writer; w >= 0 && w != int32(t.slot) {
		if t.eng.cfg.ResponderWins && !t.hardened {
			t.abortAt(ReasonConflict, false, line, int16(w))
		}
		if !t.doomTagged(line, w, ReasonConflict) {
			t.abortAt(ReasonCommitterConflict, false, line, int16(w))
		}
		rec.writer = -1
	}
	rec.setReader(t.slot)
	t.rs.put(line, counted)
	t.readOrder = append(t.readOrder, line)
	if counted {
		t.readsCounted++
	}
}

// resolveAsWriter registers the line for writing, dooming conflicting
// readers and any conflicting writer, and returns with the line buffered in
// buf.
func (t *Thread) resolveAsWriter(line uint32, buf []byte) {
	rec := t.rec(line)
	if w := rec.writer; w >= 0 && w != int32(t.slot) {
		if t.eng.cfg.ResponderWins && !t.hardened {
			t.abortAt(ReasonConflict, false, line, int16(w))
		}
		if !t.doomTagged(line, w, ReasonConflict) {
			t.abortAt(ReasonCommitterConflict, false, line, int16(w))
		}
		rec.writer = -1
	}
	for w, word := range rec.readers {
		for word != 0 {
			bit := word & (-word)
			word &^= bit
			slot := int32(w)*64 + trailingZeros(bit)
			if slot == int32(t.slot) {
				continue
			}
			if t.eng.cfg.ResponderWins && !t.hardened {
				t.abortAt(ReasonConflict, false, line, int16(slot))
			}
			if !t.doomTagged(line, slot, ReasonConflict) {
				t.abortAt(ReasonCommitterConflict, false, line, int16(slot))
			}
			rec.readers[w] &^= bit
		}
	}
	rec.writer = int32(t.slot)
	base := uint64(line) << t.lineShift
	data := t.data
	end := base + t.lineSize
	if end > uint64(len(data)) {
		end = uint64(len(data))
	}
	copy(buf, data[base:end])
}

func trailingZeros(x uint64) int32 { return int32(bits.TrailingZeros64(x)) }

// ---------------------------------------------------------------------------
// Capacity accounting

func (t *Thread) capacityCheckLoad() {
	if t.eng.cfg.UnboundedCapacity {
		return
	}
	// Injected capacity overflow: the footprint fits, but the effective
	// budget did not (an SMT neighbour's transaction, a way conflict the
	// model's set mapping missed). Persistent, like real capacity aborts, so
	// the runtime's irrevocable fallback — not blind retry — must recover it.
	if t.faults != nil && !t.hardened && t.faults.Roll(chaos.CapacityFault) {
		t.abortNow(ReasonCapacityLoad, true)
	}
	div := t.eng.smtDivisor(t.core)
	cap := t.eng.loadCapLines / div
	if cap < 1 {
		cap = 1
	}
	var occupied int
	if t.eng.plat.CombinedCapacity {
		occupied = t.readsCounted + t.ws.size()
	} else {
		occupied = t.readsCounted
	}
	t.noteCapNeed(occupied, div)
	if occupied+1 > cap {
		reason := ReasonCapacityLoad
		if div > 1 && occupied+1 <= t.eng.loadCapLines {
			reason = ReasonCapacitySMT
		}
		t.abortNow(reason, true)
	}
}

// noteCapNeed records what a capacity check with occupied lines in use
// under SMT divisor div needs to pass: (occupied+1)·div lines, since the
// check passes exactly when occupied+1 <= capacity/div. A check with nothing
// occupied passes under any capacity (the per-thread share is at least one).
func (t *Thread) noteCapNeed(occupied, div int) {
	if need := (occupied + 1) * div; occupied > 0 && need > t.capNeed {
		t.capNeed = need
	}
}

func (t *Thread) capacityCheckStore(line uint32) {
	if t.eng.cfg.UnboundedCapacity {
		return
	}
	if t.faults != nil && !t.hardened && t.faults.Roll(chaos.CapacityFault) {
		t.abortNow(ReasonCapacityStore, true)
	}
	div := t.eng.smtDivisor(t.core)
	cap := t.eng.storeCapLines / div
	if cap < 1 {
		cap = 1
	}
	var occupied int
	if t.eng.plat.CombinedCapacity {
		occupied = t.readsCounted + t.ws.size()
		if counted, wasRead := t.rs.get(line); wasRead && counted {
			// A read line becoming written reuses its tracking entry
			// (the TMCAM/L2 entry just gains the write bit).
			occupied--
		}
	} else {
		occupied = t.ws.size()
	}
	t.noteCapNeed(occupied, div)
	if occupied+1 > cap {
		reason := ReasonCapacityStore
		if div > 1 && occupied+1 <= t.eng.storeCapLines {
			reason = ReasonCapacitySMT
		}
		t.abortNow(reason, true)
	}
	// Set-associativity overflow for L1-resident store buffers (Intel).
	if sets := t.eng.plat.StoreSets; sets > 0 {
		set := line % uint32(sets)
		ways := t.eng.plat.StoreWays / div
		if ways < 1 {
			ways = 1
		}
		if t.waysets.get(set)+1 > ways {
			t.abortNow(ReasonCapacityWay, true)
		}
		t.waysets.incr(set)
	}
}

// ---------------------------------------------------------------------------
// Access paths

func (t *Thread) lineOf(a mem.Addr) uint32 { return uint32(a >> t.lineShift) }

// maybePrefetch models Intel's hardware prefetcher pulling the adjacent line
// into the transactional read set (Section 5.1): the prefetched line becomes
// conflict-detectable — dooming a concurrent writer of that line exactly as
// the paper observed in kmeans — but is not charged against capacity, and a
// prefetch that cannot be satisfied (committing owner) is silently dropped
// rather than aborting the requester.
func (t *Thread) maybePrefetch(line uint32) {
	if t.prefetchProb == 0 {
		return
	}
	if !t.rng.Bernoulli(t.prefetchProb) {
		return
	}
	// The streamer runs several lines ahead of the access stream.
	const prefetchDepth = 3
	for d := uint32(1); d <= prefetchDepth; d++ {
		next := line + d
		if int(next) >= len(t.lines) {
			return
		}
		if t.rs.has(next) || t.ws.has(next) {
			continue
		}
		rec := t.rec(next)
		if rec.writer >= 0 && rec.writer != int32(t.slot) {
			if !t.doomTagged(next, rec.writer, ReasonConflict) {
				return // drop the prefetch; the owner is committing
			}
			rec.writer = -1
		}
		rec.setReader(t.slot)
		t.rs.put(next, false)
		t.readOrder = append(t.readOrder, next)
	}
}

// maybeCacheFetchAbort injects zEC12's spurious transient aborts.
func (t *Thread) maybeCacheFetchAbort() {
	if t.cacheFetchProb != 0 && t.rng.Bernoulli(t.cacheFetchProb) {
		t.abortNow(ReasonCacheFetch, false)
	}
}

func (t *Thread) constrainedCheck(line uint32) {
	if t.kind != TxConstrained {
		return
	}
	t.accessCount++
	if t.accessCount > 32 {
		panic(&ErrConstrained{Msg: "more than 32 accesses"})
	}
	if !t.rs.has(line) && !t.ws.has(line) && t.rs.size()+t.ws.size() >= 4 {
		panic(&ErrConstrained{Msg: "footprint exceeds 4 lines / 256 bytes"})
	}
}

// txLoad performs a transactional load of the word at a, from the write
// buffer if its line is buffered, else from the arena.
func (t *Thread) txLoad(a mem.Addr) uint64 {
	t.checkDoomed()
	t.wordCheck(a)
	line := t.lineOf(a)
	t.constrainedCheck(line)
	t.maybeCacheFetchAbort()
	t.stats.TxLoads++
	t.tickOp(t.loadCostPerOp)
	if buf, ok := t.ws.get(line); ok {
		return le64(buf[a&(t.lineSize-1):])
	}
	if counted, ok := t.rs.get(line); ok {
		if !counted && t.kind != TxRollbackOnly {
			// Promote a prefetched line to a real read: charge capacity.
			t.capacityCheckLoad()
			t.rs.put(line, true)
			t.readsCounted++
		}
	} else if t.kind != TxRollbackOnly {
		t.capacityCheckLoad()
		t.resolveAsReader(line, true)
		t.maybePrefetch(line)
	}
	if t.wit != nil && t.kind != TxRollbackOnly {
		// Rollback-only loads are untracked (no conflict detection), so
		// their reads carry no consistency guarantee to witness.
		t.witnessRead(line)
	}
	return le64(t.data[a:])
}

// txStore performs a transactional store of the word v at a into its line's
// private buffer.
func (t *Thread) txStore(a mem.Addr, v uint64) {
	t.checkDoomed()
	t.wordCheck(a)
	line := t.lineOf(a)
	t.constrainedCheck(line)
	t.maybeCacheFetchAbort()
	t.stats.TxStores++
	t.tickOp(t.storeCostPerOp)
	buf, ok := t.ws.get(line)
	if !ok {
		t.capacityCheckStore(line)
		buf = t.getLineBuf()
		t.resolveAsWriter(line, buf)
		t.ws.put(line, buf)
		t.writeOrder = append(t.writeOrder, line)
		if counted, wasRead := t.rs.get(line); wasRead && counted {
			// The line's tracking entry transitions from read to
			// read+write; on combined-capacity platforms it must not be
			// charged twice.
			t.rs.put(line, false)
			t.readsCounted--
		}
		t.maybePrefetch(line)
	}
	if mutateWriteThrough {
		// Seeded write-set-isolation bug (build tag mutate_isolation, see
		// mutate_off.go): write the shared arena instead of the private
		// buffer, leaking speculative stores to other threads and reverting
		// them at commit when the stale buffer is published.
		putLE64(t.data[a:], v)
		return
	}
	putLE64(buf[a&(t.lineSize-1):], v)
}

func (t *Thread) getLineBuf() []byte {
	if n := len(t.bufPool); n > 0 {
		b := t.bufPool[n-1]
		t.bufPool = t.bufPool[:n-1]
		return b
	}
	return make([]byte, t.lineSize)
}

// wordCheck admits the aligned 8-byte word at a, the one width a tracked
// access has: an aligned word never straddles a conflict-detection line
// (every modelled line is a multiple of 8 bytes) or two entries of NOrec's
// word log.
func (t *Thread) wordCheck(a mem.Addr) {
	if a == mem.Nil || a&7 != 0 || a+8 > uint64(len(t.data)) {
		t.badAccess(a)
	}
}

// badAccess is the out-of-line slow path of wordCheck and LoadRO8: a nil,
// misaligned or out-of-range address. Inside a transaction (hardware or
// software) it is almost always computed from torn or doomed state, so it
// aborts as a conflict rather than crashing, as hardware would simply have
// aborted before the dependent access. Outside one it is a workload bug.
func (t *Thread) badAccess(a mem.Addr) {
	if t.transactional() || t.stm.active {
		t.abortNow(ReasonConflict, false)
	}
	if a == mem.Nil {
		panic("htm: access through nil simulated pointer")
	}
	panic(fmt.Sprintf("htm: access at %#x is misaligned or out of arena bounds %d", a, len(t.data)))
}

// nonTxLoad is a strongly-isolated non-transactional load: it dooms a
// conflicting transactional writer (requester always wins for
// non-transactional accesses) and reads committed memory. A hardened
// constrained writer is immune, so the access waits for it to commit.
func (t *Thread) nonTxLoad(a mem.Addr) uint64 {
	t.tickOp(0)
	t.wordCheck(a)
	if t.eng.activeTx == 0 {
		return le64(t.data[a:])
	}
	line := t.lineOf(a)
	for {
		rec := t.rec(line)
		if rec.writer >= 0 && rec.writer != int32(t.slot) {
			if !t.doomTagged(line, rec.writer, ReasonNonTxConflict) {
				t.Pause(2) // the owner is immune; wait it out
				continue
			}
			rec.writer = -1
		}
		return le64(t.data[a:])
	}
}

// nonTxStore is a strongly-isolated non-transactional store: it dooms all
// conflicting transactional owners of the line and writes memory directly.
func (t *Thread) nonTxStore(a mem.Addr, v uint64) {
	t.tickOp(0)
	t.wordCheck(a)
	if t.eng.activeTx != 0 {
		line := t.lineOf(a)
		for !t.evictOwners(line) {
			t.Pause(2) // an owner is immune; wait it out
		}
	}
	putLE64(t.data[a:], v)
	if t.wit != nil {
		t.witnessNonTx(a)
	}
}

// evictOwners dooms the transactional writer and readers of line on behalf
// of a strongly-isolated non-transactional write. It reports false, with the
// line still owned, when an owner is immune (a hardened constrained
// transaction): the caller must wait for it to commit, or its write would
// slip under a transaction that is guaranteed to commit what it has read.
func (t *Thread) evictOwners(line uint32) bool {
	rec := t.rec(line)
	if w := rec.writer; w >= 0 && w != int32(t.slot) {
		if !t.doomTagged(line, w, ReasonNonTxConflict) {
			return false
		}
		rec.writer = -1
	}
	for w, word := range rec.readers {
		for word != 0 {
			bit := word & (-word)
			word &^= bit
			slot := int32(w)*64 + trailingZeros(bit)
			if slot == int32(t.slot) {
				continue
			}
			if !t.doomTagged(line, slot, ReasonNonTxConflict) {
				return false
			}
			rec.readers[w] &^= bit
		}
	}
	return true
}

// transactional reports whether accesses should take the transactional path.
func (t *Thread) transactional() bool { return t.inTx && t.suspendCnt == 0 }

// ---------------------------------------------------------------------------
// Typed accessors (the workload-facing API)

// le64/putLE64 decode and encode little-endian words with direct byte
// arithmetic: the explicit re-slice gives the compiler a single bounds check
// and lets it collapse the combine into one load/store on little-endian
// hosts, without an encoding/binary call in the hot path.

func le64(b []byte) uint64 {
	b = b[:8]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLE64(b []byte, v uint64) {
	b = b[:8]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

// Load64 reads the aligned 8-byte word at a, transactionally when in a
// transaction (hardware or software).
func (t *Thread) Load64(a mem.Addr) uint64 {
	if t.stm.active {
		t.wordCheck(a)
		return t.stmLoadWord(a)
	}
	if t.transactional() {
		return t.txLoad(a)
	}
	return t.nonTxLoad(a)
}

// Store64 writes the aligned 8-byte word v at a, transactionally when in a
// transaction (hardware or software).
func (t *Thread) Store64(a mem.Addr, v uint64) {
	if t.stm.active {
		t.wordCheck(a)
		t.stmStoreWord(a, v)
		return
	}
	if t.transactional() {
		t.txStore(a, v)
		return
	}
	t.nonTxStore(a, v)
}

// LoadRO64 reads the word at a without any conflict tracking. It is only
// correct for data that is never written during concurrent phases (inputs
// written at setup time): on real hardware such lines sit in the shared
// cache state and cost no coherence traffic and no tracking resources, and
// several STAMP benchmarks (kmeans points, genome nucleotides, intruder
// payloads) rely on exactly that. Using it on mutable shared data breaks
// isolation.
func (t *Thread) LoadRO64(a mem.Addr) uint64 {
	t.tickRO()
	t.wordCheck(a)
	return le64(t.data[a:])
}

// LoadRO8 is LoadRO64 for a single byte, at any address.
func (t *Thread) LoadRO8(a mem.Addr) byte {
	t.tickRO()
	if a == mem.Nil || a >= uint64(len(t.data)) {
		t.badAccess(a)
	}
	return t.data[a]
}

// LoadFloat64 reads the float64 at a.
func (t *Thread) LoadFloat64(a mem.Addr) float64 {
	return math.Float64frombits(t.Load64(a))
}

// StoreFloat64 writes the float64 v at a.
func (t *Thread) StoreFloat64(a mem.Addr, v float64) {
	t.Store64(a, math.Float64bits(v))
}

// LoadPtr reads a simulated pointer (an 8-byte word) at a.
func (t *Thread) LoadPtr(a mem.Addr) mem.Addr { return t.Load64(a) }

// StorePtr writes the simulated pointer p at a.
func (t *Thread) StorePtr(a mem.Addr, p mem.Addr) { t.Store64(a, p) }

// CompareAndSwap64 performs an atomic compare-and-swap on the word at a when
// outside a transaction (the lock-free baseline of the Figure 6 queue uses
// it). Inside a transaction it degenerates to a plain read-modify-write,
// which the transaction makes atomic anyway.
func (t *Thread) CompareAndSwap64(a mem.Addr, old, new uint64) bool {
	if t.transactional() {
		if t.Load64(a) != old {
			return false
		}
		t.Store64(a, new)
		return true
	}
	// A CAS is a serialising instruction, far more expensive than a plain
	// load — the path-length cost the paper's Figure 6 transactions elide.
	t.tickOp(t.eng.scaledCost(t.eng.plat.Costs.CAS))
	t.wordCheck(a)
	line := t.lineOf(a)
	for !t.evictOwners(line) {
		t.Pause(2) // an owner is immune; wait it out
	}
	data := t.data
	ok := le64(data[a:]) == old
	if ok {
		putLE64(data[a:], new)
		if t.wit != nil {
			t.witnessNonTx(a)
		}
	}
	return ok
}

// ---------------------------------------------------------------------------
// Transactional allocation (STAMP's TM_MALLOC / TM_FREE)

// Alloc allocates size bytes of simulated memory. Inside a transaction the
// allocation is logged and automatically reclaimed if the transaction
// aborts.
func (t *Thread) Alloc(size int) mem.Addr {
	a := t.eng.space.AllocArena(size, 8, t.slot)
	if t.inTx || t.stm.active {
		t.allocs = append(t.allocs, a)
	}
	return a
}

// AllocAligned is Alloc with an alignment constraint.
func (t *Thread) AllocAligned(size, align int) mem.Addr {
	a := t.eng.space.AllocArena(size, align, t.slot)
	if t.inTx || t.stm.active {
		t.allocs = append(t.allocs, a)
	}
	return a
}

// Free releases the block at a. Inside a transaction the free is deferred
// until commit so that an abort does not lose live data.
func (t *Thread) Free(a mem.Addr) {
	if a == mem.Nil {
		return
	}
	if t.inTx || t.stm.active {
		t.frees = append(t.frees, a)
		return
	}
	t.eng.space.FreeArena(a, t.slot)
}
