package htm

import "fmt"

// vsched is the virtual-time cooperative scheduler. Exactly one thread of an
// Engine executes at any moment; every memory access and modelled overhead
// advances the running thread's virtual clock, and at yield points the
// scheduler hands the baton to the runnable thread with the smallest clock.
// Transactions therefore overlap in *virtual* time regardless of how many
// physical CPUs the host has, conflict patterns match a genuinely parallel
// execution, and every run is fully deterministic: the parallel region's
// duration is simply the maximum virtual clock across its threads.
//
// This is the measurement backbone of the reproduction: the paper's
// speed-up ratios are virtual-cycle ratios here, so results are identical
// on a laptop and a 64-core server.
//
// A region's threads are coroutines on one goroutine (Engine.Run): a thread
// that gives the baton away elects on its own stack, records the winner in
// next and parks; the driver loop (run) resumes next. So the scheduler needs
// no lock, and a region has no launch order to be independent of.
//
// Scheduling state is O(1) per handoff: thread status lives in a
// slot-indexed slice and electable threads sit in a binary min-heap keyed
// by (vclock, slot). A parked thread's clock never changes while it is in
// the heap — clocks only advance on the baton holder or on a spinner the
// elector holds outside it (skip), and unblock raises a clock *before*
// re-inserting — so heap keys are immutable and the usual
// decrease-key machinery is unnecessary. The common yield fast path (the
// caller is still the minimum) is a single peek at the heap root.
type vsched struct {
	quantum int

	// status per thread slot, indexed by Thread.slot.
	status []schedStatus
	// ready is a binary min-heap of electable threads ordered by
	// (vclock, slot). The running thread is never in the heap.
	ready []*Thread
	// running is the slot currently holding the baton, or -1 between regions.
	running int
	// next is the thread the last election gave the baton to, for the driver
	// loop to resume once the elector has parked or returned.
	next *Thread
	// handoffs counts ready-heap pops (Engine.SchedHandoffs); switches
	// counts the elections that resumed a different thread
	// (Engine.SchedSwitches).
	handoffs, switches uint64
	// stuck holds the spinners whose predicate has failed since the last
	// election, outside the ready heap until the next one is decided (skip);
	// polling is set while a predicate runs (poll).
	stuck   []*Thread
	polling bool
}

type schedStatus int

const (
	schedNone schedStatus = iota // slot not in the region
	schedRunning
	schedReady   // parked, electable (in the ready heap)
	schedBlocked // parked, waiting for an Unblock (barrier)
)

func newVsched(quantum, nThreads int) *vsched {
	if quantum <= 0 {
		quantum = 8
	}
	return &vsched{
		quantum: quantum,
		status:  make([]schedStatus, nThreads),
		running: -1,
	}
}

// enter opens a scheduling point of the baton holder. A SpinUntil predicate
// runs inside an election, so one that gets here would re-enter it.
func (s *vsched) enter() {
	if s.polling {
		panic("htm: SpinUntil predicate reached the virtual scheduler (it may only read or CAS Go-side state)")
	}
}

// schedLess orders threads by (vclock, slot): the deterministic election
// order of the scheduler.
func schedLess(a, b *Thread) bool {
	return a.vclock < b.vclock || (a.vclock == b.vclock && a.slot < b.slot)
}

// pushReady inserts t into the ready heap.
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
// nil when none is electable.
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

// run is one region: threads become electable at the clocks they arrive
// with, the first election picks who runs, and each election's winner is
// resumed in turn until the last thread has exited (or a body panic cleared
// next: see Engine.Run).
func (s *vsched) run(threads []*Thread) {
	for _, t := range threads {
		s.status[t.slot] = schedReady
		s.pushReady(t)
	}
	s.handover(nil, s.elect(), false)
	for s.next != nil {
		t := s.next
		s.next = nil
		t.resume()
	}
}

// elect pops ready threads in (clock, slot) order until one can take the
// baton, marks it running and returns it; nil when no thread is electable. A
// thread parked in SpinUntil is polled where it would have resumed; one whose
// predicate fails joins stuck instead of going back into the heap, and skip
// charges it its further polls once the winner is known. Every pop counts as
// one handoff.
func (s *vsched) elect() *Thread {
	for {
		best := s.popReady()
		if best == nil {
			if len(s.stuck) > 0 {
				panic(fmt.Sprintf("htm: virtual-scheduler livelock: %d threads spinning, none runnable", len(s.stuck)))
			}
			return nil
		}
		s.handoffs++
		if best.spinTry != nil && !s.poll(best) {
			s.stuck = append(s.stuck, best)
			continue
		}
		s.skip(best)
		s.status[best.slot] = schedRunning
		s.running = best.slot
		return best
	}
}

// poll runs t's SpinUntil predicate once for t, which is outside the ready
// heap: it reports true once the predicate holds (t.spinTry is then cleared,
// so a side-effecting predicate succeeds exactly once). The yield budget is
// zero while the predicate runs so that a memory access on t reaches enter()
// at once.
func (s *vsched) poll(t *Thread) bool {
	budget := t.yieldBudget
	t.yieldBudget, s.polling = 0, true
	ok := t.spinTry()
	t.yieldBudget, s.polling = budget, false
	if ok {
		t.spinTry = nil
	}
	return ok
}

// skip puts every stuck spinner back into the ready heap at the clock the
// literal `for !try() { t.Pause(n) }` loop would have reached by the time w
// is elected. Predicates read only what baton holders write, so a predicate
// that failed fails again until someone takes the baton: that loop re-polls
// each stuck spinner, n units at a time, whenever it is the minimum, until it
// orders after w. Its clock therefore ends at the first c + k*n, k >= 1, that
// orders after w, which skip charges at once.
func (s *vsched) skip(w *Thread) {
	for i, t := range s.stuck {
		n := uint64(t.spinN)
		target := w.vclock // the least clock ordering after w ...
		if t.slot < w.slot {
			target++ // ... a tie goes to the lower slot
		}
		k := uint64(1)
		if t.vclock+n < target {
			k = (target - t.vclock + n - 1) / n
		}
		t.vclock += k * n
		t.yieldBudget = t.quantum
		s.pushReady(t)
		s.stuck[i] = nil
	}
	s.stuck = s.stuck[:0]
}

// handover gives the baton to next, the result of elect, and with park set
// waits until t is elected again. next == t (the elector popped itself)
// costs no switch; otherwise the driver resumes next once t has parked or
// returned.
func (s *vsched) handover(t, next *Thread, park bool) {
	if next == t {
		return
	}
	if next == nil {
		s.running = -1
		if park { // one goroutine: nobody is left to make t electable again
			s.deadlock()
		}
	} else {
		s.switches++
	}
	s.next = next
	if park && !t.park() {
		panic(regionStopped{})
	}
}

// regionStopped unwinds a parked thread whose region a body panic on another
// thread has ended; Engine.Run swallows it.
type regionStopped struct{}

// deadlock panics for handover: every thread still in the region is blocked.
func (s *vsched) deadlock() {
	blocked := 0
	for _, st := range s.status {
		if st == schedBlocked {
			blocked++
		}
	}
	panic(fmt.Sprintf("htm: virtual-scheduler deadlock: %d threads blocked, none runnable", blocked))
}

// yield hands the baton to the minimum-clock ready thread if that is not the
// caller. The caller must be the running thread.
func (s *vsched) yield(t *Thread) {
	s.enter()
	// Fast path: caller remains the minimum — one peek at the heap root.
	if len(s.ready) == 0 || !schedLess(s.ready[0], t) {
		return
	}
	s.status[t.slot] = schedReady
	s.pushReady(t)
	s.handover(t, s.elect(), true)
}

// spin is Thread.SpinUntil for the running thread t: t polls itself once
// and, if the predicate fails, parks stuck with it, to be charged its polls
// by the election it starts and polled again by whoever elects after that.
func (s *vsched) spin(t *Thread, n int, try func() bool) {
	s.enter()
	if n < 1 {
		panic(fmt.Sprintf("htm: SpinUntil poll cost %d, want at least 1", n))
	}
	t.spinN, t.spinTry = n, try
	if s.poll(t) {
		return
	}
	s.status[t.slot] = schedReady
	s.stuck = append(s.stuck, t)
	s.handover(t, s.elect(), true)
}

// unblock marks a blocked thread ready and advances its clock to at least
// atClock (time spent blocked passes for everyone). The clock is raised
// before the heap insert, keeping heap keys immutable.
func (s *vsched) unblock(t *Thread, atClock uint64) {
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
	s.status[t.slot] = schedNone
	s.handover(t, s.elect(), false)
}

// Barrier is a scheduler-aware cyclic barrier: all parties resume with their
// clocks advanced to the latest arrival's clock — the virtual-time semantics
// of a barrier. Create with Engine.NewBarrier.
type Barrier struct {
	eng     *Engine
	n       int
	count   int
	waiters []*Thread
}

// NewBarrier returns a barrier for n parties on this engine.
func (e *Engine) NewBarrier(n int) *Barrier { return &Barrier{eng: e, n: n} }

// Wait blocks t until all n parties have arrived. Outside a region nobody
// else can arrive, so a Wait that is not the last arrival is the scheduler's
// deadlock panic.
func (b *Barrier) Wait(t *Thread) {
	s := b.eng.sched
	s.enter()
	b.count++
	if b.count < b.n {
		b.waiters = append(b.waiters, t)
		s.status[t.slot] = schedBlocked
		s.handover(t, s.elect(), true)
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
		s.unblock(w, maxClock)
	}
	b.waiters = b.waiters[:0]
	b.count = 0
}
