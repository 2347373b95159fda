package htm

import (
	"fmt"
	"runtime"
	"sync"
)

// vsched is the virtual-time cooperative scheduler. When an Engine is
// created with Config.Virtual, exactly one benchmark thread executes at any
// moment; every memory access and modelled overhead advances the running
// thread's virtual clock, and at yield points the scheduler hands the baton
// to the runnable thread with the smallest clock. Transactions therefore
// overlap in *virtual* time regardless of how many physical CPUs the host
// has, conflict patterns match a genuinely parallel execution, and every
// run is fully deterministic: the parallel region's duration is simply the
// maximum virtual clock across its threads.
//
// This is the measurement backbone of the reproduction: the paper's
// speed-up ratios are virtual-cycle ratios here, so results are identical
// on a laptop and a 64-core server.
//
// Scheduling state is O(1) per handoff: thread status lives in a
// slot-indexed slice and electable threads sit in a binary min-heap keyed
// by (vclock, slot). A parked thread's clock never changes while it is in
// the heap — clocks only advance on the baton holder or on a spinner the
// elector has popped (pollLocked), and unblock raises a clock *before*
// re-inserting — so heap keys are immutable and the usual
// decrease-key machinery is unnecessary. The common yield fast path (the
// caller is still the minimum) is a single peek at the heap root.
type vsched struct {
	mu      sync.Mutex
	quantum int

	// status per thread slot, indexed by Thread.slot.
	status []schedStatus
	// ready is a binary min-heap of electable threads ordered by
	// (vclock, slot). The running thread is never in the heap.
	ready []*Thread
	// running is the slot currently holding the baton, or -1.
	running int
	// pending counts registered threads whose goroutines have not reached
	// begin yet. No thread runs until it drops to zero: a startup barrier
	// that makes the schedule independent of goroutine launch order (and
	// therefore deterministic).
	pending int
	// handoffs counts baton elections (Engine.SchedHandoffs); switches counts
	// the elections that really woke another goroutine (Engine.SchedSwitches).
	handoffs, switches uint64
	// epoch numbers real elections from 1, stuck counts the spinners whose
	// predicate has failed in the current epoch (Thread.spinEpoch is the
	// per-thread stamp), and polling is set while a predicate runs: see
	// pollLocked.
	epoch   uint64
	stuck   int
	polling bool
}

type schedStatus int

const (
	schedNone    schedStatus = iota // slot never registered
	schedPending                    // registered; goroutine not started yet
	schedRunning
	schedReady   // parked, electable (in the ready heap)
	schedBlocked // parked, waiting for an Unblock (barrier)
	schedDone
)

func newVsched(quantum, nThreads int) *vsched {
	if quantum <= 0 {
		quantum = 8
	}
	return &vsched{
		quantum: quantum,
		status:  make([]schedStatus, nThreads),
		running: -1,
		epoch:   1,
	}
}

// lock takes s.mu on behalf of a baton holder. A SpinUntil predicate runs
// under s.mu, so one that gets here would otherwise deadlock on itself.
func (s *vsched) lock() {
	if s.polling {
		panic("htm: SpinUntil predicate reached the virtual scheduler (it may only read or CAS Go-side state)")
	}
	s.mu.Lock()
}

// ensureSlot grows the status slice to cover slot. Caller holds s.mu.
func (s *vsched) ensureSlot(slot int) {
	for slot >= len(s.status) {
		s.status = append(s.status, schedNone)
	}
}

// schedLess orders threads by (vclock, slot): the deterministic election
// order of the scheduler.
func schedLess(a, b *Thread) bool {
	return a.vclock < b.vclock || (a.vclock == b.vclock && a.slot < b.slot)
}

// pushReady inserts t into the ready heap. Caller holds s.mu.
func (s *vsched) pushReady(t *Thread) {
	s.ready = append(s.ready, t)
	i := len(s.ready) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !schedLess(s.ready[i], s.ready[p]) {
			break
		}
		s.ready[i], s.ready[p] = s.ready[p], s.ready[i]
		i = p
	}
}

// popReady removes and returns the minimum-(clock, slot) ready thread, or
// nil when none is electable. Caller holds s.mu.
func (s *vsched) popReady() *Thread {
	n := len(s.ready)
	if n == 0 {
		return nil
	}
	min := s.ready[0]
	last := s.ready[n-1]
	s.ready[n-1] = nil // release the reference for GC
	s.ready = s.ready[:n-1]
	if n > 1 {
		s.ready[0] = last
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < n-1 && schedLess(s.ready[l], s.ready[small]) {
				small = l
			}
			if r < n-1 && schedLess(s.ready[r], s.ready[small]) {
				small = r
			}
			if small == i {
				break
			}
			s.ready[i], s.ready[small] = s.ready[small], s.ready[i]
			i = small
		}
	}
	return min
}

// register adds a thread before its worker goroutine starts, so the
// scheduler never mistakes a not-yet-started thread for a deadlock.
// Must be called from outside the scheduled region (e.g. the spawning
// goroutine).
func (s *vsched) register(t *Thread) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ensureSlot(t.slot)
	if st := s.status[t.slot]; st != schedNone && st != schedDone {
		panic(fmt.Sprintf("htm: thread %d registered twice", t.slot))
	}
	s.status[t.slot] = schedPending
	s.pending++
}

// begin is a worker goroutine's first scheduler call. Threads park here
// until every registered thread has arrived (the startup barrier); the last
// arrival elects the minimum-clock thread to run first, so the schedule does
// not depend on goroutine launch order.
func (s *vsched) begin(t *Thread) {
	s.mu.Lock()
	if s.status[t.slot] != schedPending {
		s.mu.Unlock()
		panic(fmt.Sprintf("htm: thread %d begins without registration", t.slot))
	}
	s.status[t.slot] = schedReady
	s.pushReady(t)
	s.pending--
	if s.pending > 0 || s.running != -1 {
		// Not everyone is here yet, or a schedule is already in flight
		// (a thread registered into a running region): park until elected.
		s.mu.Unlock()
		<-t.gate
		return
	}
	s.handoverLocked(t, s.electLocked(), true)
}

// electLocked pops ready threads in (clock, slot) order until one can take
// the baton, marks it running and returns it; nil when no thread is
// electable. A thread parked in SpinUntil is polled where it would have
// resumed: a failed poll re-inserts it at its advanced clock, which is the
// yield its own goroutine would have made. Every pop counts as one handoff,
// as every resumption did. Caller holds s.mu.
func (s *vsched) electLocked() *Thread {
	for {
		best := s.popReady()
		if best == nil {
			return nil
		}
		s.handoffs++
		if best.spinTry == nil || s.pollLocked(best) {
			s.status[best.slot] = schedRunning
			s.running = best.slot
			s.epoch++
			s.stuck = 0
			return best
		}
		s.pushReady(best)
	}
}

// pollLocked runs `for !try() { t.Pause(n) }` for t, which is outside the
// ready heap, up to the first Pause that would give the baton away: it
// reports true once the predicate holds (t.spinTry is then cleared, so a
// side-effecting predicate succeeds exactly once) and false when t has to
// be parked. The yield budget is zero while the predicate runs so that a
// memory access on t reaches lock() at once. Caller holds s.mu.
func (s *vsched) pollLocked(t *Thread) bool {
	for {
		budget := t.yieldBudget
		t.yieldBudget, s.polling = 0, true
		ok := t.spinTry()
		t.yieldBudget, s.polling = budget, false
		if ok {
			t.spinTry = nil
			return true
		}
		t.work(t.spinN)
		t.yieldBudget = t.quantum
		// Predicates read only what baton holders write, so once every
		// electable thread has failed one in this epoch none ever succeeds.
		if t.spinEpoch != s.epoch {
			t.spinEpoch = s.epoch
			s.stuck++
		}
		if s.stuck > len(s.ready) {
			if s.pending == 0 {
				panic(fmt.Sprintf("htm: virtual-scheduler livelock: %d threads spinning, none runnable", s.stuck))
			}
			// Only a registered thread still on its way to begin can help.
			s.mu.Unlock()
			runtime.Gosched()
			s.mu.Lock()
		}
		if len(s.ready) > 0 && schedLess(s.ready[0], t) {
			return false
		}
	}
}

// handoverLocked gives the baton to next, the result of electLocked, and
// with park set waits until t is elected again. next == t (the elector
// popped itself) costs no channel operation. Caller holds s.mu, which is
// released here.
func (s *vsched) handoverLocked(t, next *Thread, park bool) {
	if next == nil {
		s.running = -1
		if park {
			s.checkDeadlockLocked()
		}
	} else if next != t {
		s.switches++
	}
	s.mu.Unlock()
	if next == t {
		return
	}
	if next != nil {
		next.gate <- struct{}{}
	}
	if park {
		<-t.gate
	}
}

// checkDeadlockLocked panics when no thread can ever run again yet some are
// blocked. Caller holds s.mu.
func (s *vsched) checkDeadlockLocked() {
	blocked := 0
	for _, st := range s.status {
		switch st {
		case schedPending, schedReady, schedRunning:
			return // progress is still possible
		case schedBlocked:
			blocked++
		}
	}
	if blocked > 0 {
		panic(fmt.Sprintf("htm: virtual-scheduler deadlock: %d threads blocked, none runnable", blocked))
	}
}

// yield hands the baton to the minimum-clock ready thread if that is not the
// caller. The caller must be the running thread.
func (s *vsched) yield(t *Thread) {
	s.lock()
	// Fast path: caller remains the minimum — one peek at the heap root.
	if len(s.ready) == 0 || !schedLess(s.ready[0], t) {
		s.mu.Unlock()
		return
	}
	s.status[t.slot] = schedReady
	s.pushReady(t)
	s.handoverLocked(t, s.electLocked(), true)
}

// spin is Thread.SpinUntil for the running thread t: t polls itself while
// it remains the minimum and otherwise parks with its predicate, to be
// polled by whoever elects next.
func (s *vsched) spin(t *Thread, n int, try func() bool) {
	s.lock()
	t.spinN, t.spinTry = n, try
	if s.pollLocked(t) {
		s.mu.Unlock()
		return
	}
	s.status[t.slot] = schedReady
	s.pushReady(t)
	s.handoverLocked(t, s.electLocked(), true)
}

// unblockLocked marks a blocked thread ready and advances its clock to at
// least atClock (time spent blocked passes for everyone). The clock is
// raised before the heap insert, keeping heap keys immutable. Caller holds
// s.mu.
func (s *vsched) unblockLocked(t *Thread, atClock uint64) {
	if s.status[t.slot] != schedBlocked {
		panic(fmt.Sprintf("htm: unblock of non-blocked thread %d", t.slot))
	}
	if t.vclock < atClock {
		t.vclock = atClock
	}
	s.status[t.slot] = schedReady
	s.pushReady(t)
}

// exit removes the finishing thread from scheduling and passes the baton on.
func (s *vsched) exit(t *Thread) {
	s.lock()
	s.status[t.slot] = schedDone
	if s.running != t.slot {
		s.mu.Unlock()
		return
	}
	s.handoverLocked(t, s.electLocked(), false)
}

// Barrier is a scheduler-aware cyclic barrier. In virtual mode all parties
// resume with their clocks advanced to the latest arrival's clock — the
// virtual-time semantics of a barrier. In real-concurrency mode it is an
// ordinary condition-variable barrier. Create with Engine.NewBarrier.
type Barrier struct {
	eng *Engine
	n   int

	mu      sync.Mutex
	cond    *sync.Cond
	count   int
	gen     int
	waiters []*Thread
}

// NewBarrier returns a barrier for n parties on this engine.
func (e *Engine) NewBarrier(n int) *Barrier {
	b := &Barrier{eng: e, n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait blocks t until all n parties have arrived.
func (b *Barrier) Wait(t *Thread) {
	if b.eng.sched == nil {
		b.mu.Lock()
		gen := b.gen
		b.count++
		if b.count == b.n {
			b.count = 0
			b.gen++
			b.cond.Broadcast()
			b.mu.Unlock()
			return
		}
		for gen == b.gen {
			b.cond.Wait()
		}
		b.mu.Unlock()
		return
	}
	s := b.eng.sched
	s.lock()
	b.count++
	if b.count < b.n {
		b.waiters = append(b.waiters, t)
		s.status[t.slot] = schedBlocked
		s.handoverLocked(t, s.electLocked(), true)
		return
	}
	// Last arriver: everyone resumes at the maximum clock.
	maxClock := t.vclock
	for _, w := range b.waiters {
		if w.vclock > maxClock {
			maxClock = w.vclock
		}
	}
	t.vclock = maxClock
	for _, w := range b.waiters {
		s.unblockLocked(w, maxClock)
	}
	b.waiters = b.waiters[:0]
	b.count = 0
	s.mu.Unlock()
}
