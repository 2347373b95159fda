// Package tm is the software transactional-memory runtime layered over the
// HTM engine: the transaction-retry mechanism of the paper's Section 3
// (Figure 1), the single-global-lock fallback that guarantees forward
// progress on best-effort HTM, Blue Gene/Q's system-provided retry mechanism
// with its adaptation heuristic, and Intel's hardware lock elision (HLE)
// execution mode.
package tm

import (
	"htmcmp/internal/adapt"
	"htmcmp/internal/htm"
	"htmcmp/internal/mem"
	"htmcmp/internal/platform"
)

// GlobalLock is the single global lock used as the irrevocable fallback
// ("a single memory word and spin waiting", Section 3). The lock word lives
// in simulated memory so that transactions subscribe to it with an ordinary
// transactional load and are aborted by the cache-coherence conflict when a
// falling-back thread writes it — exactly the hardware mechanism the paper
// relies on.
type GlobalLock struct {
	addr mem.Addr
	held bool // mirrors the simulated word for cheap spinning
	// SpinUntil predicates over held, built once.
	tryAcquire, isFree func() bool
}

// NewGlobalLock allocates the lock word in the engine's simulated memory.
func NewGlobalLock(e *htm.Engine) *GlobalLock {
	// The lock word owns a full conflict-detection line so that lock
	// subscription never falsely conflicts with program data.
	a := e.Space().AllocAligned(e.LineSize(), e.LineSize())
	e.Space().Label(a, e.LineSize(), "tm/global-lock")
	l := &GlobalLock{addr: a}
	l.tryAcquire = func() bool {
		if l.held {
			return false
		}
		l.held = true
		return true
	}
	l.isFree = func() bool { return !l.held }
	return l
}

// Held reports whether the lock is currently held (Go-side fast check, used
// by the retry mechanism's post-abort classification, Figure 1 line 13).
func (l *GlobalLock) Held() bool { return l.held }

// SubscribedHeld reads the lock word transactionally, putting it into the
// transaction's read set (Figure 1 line 26: "the global lock is first
// checked, so that the HTM system can keep track of the lock word").
func (l *GlobalLock) SubscribedHeld(t *htm.Thread) bool {
	return t.Load64(l.addr) != 0
}

// Acquire takes the lock, spinning until free, then writes the simulated
// lock word non-transactionally — which dooms every subscribed transaction.
func (l *GlobalLock) Acquire(t *htm.Thread) {
	if !l.tryAcquire() { // a free lock never enters the scheduler
		t.SpinUntil(4, l.tryAcquire)
	}
	t.Store64(l.addr, 1)
}

// Release frees the lock.
func (l *GlobalLock) Release(t *htm.Thread) {
	t.Store64(l.addr, 0)
	l.held = false
}

// WaitUntilFree spins until the lock is released (Figure 1 line 9, avoiding
// the lemming effect: do not start a transaction that is doomed to abort on
// the held lock).
func (l *GlobalLock) WaitUntilFree(t *htm.Thread) {
	if l.held {
		t.SpinUntil(4, l.isFree)
	}
}

// Policy holds the maximum retry counts of the paper's three-counter
// mechanism (Figure 1 lines 1–5) plus the Blue Gene/Q mode options. The
// paper tunes these per (HTM system, benchmark) pair; internal/harness
// implements that search.
type Policy struct {
	// LockRetry bounds retries of aborts caused by conflicts on the global
	// lock word.
	LockRetry int
	// PersistentRetry bounds retries of aborts the processor reports as
	// persistent (on zEC12: capacity overflows, per Section 3).
	PersistentRetry int
	// TransientRetry bounds retries of all other aborts. For Blue Gene/Q's
	// single-counter system mechanism this is the only counter used.
	TransientRetry int
	// LazySubscription checks the global lock at transaction end instead
	// of begin (Blue Gene/Q's long-running mode behaviour, Section 3).
	LazySubscription bool
	// Adaptation enables Blue Gene/Q's heuristic: transactions that fell
	// back to the lock too frequently are not allowed to retry on the next
	// abort (Section 3).
	Adaptation bool
}

// DefaultPolicy returns a reasonable untuned policy for a platform.
func DefaultPolicy(k platform.Kind) Policy {
	switch k {
	case platform.BlueGeneQ:
		return Policy{LockRetry: 8, PersistentRetry: 8, TransientRetry: 8, Adaptation: true}
	default:
		return Policy{LockRetry: 8, PersistentRetry: 2, TransientRetry: 8}
	}
}

// Stats are the runtime-level counters layered on the engine's: committed
// transactions split into transactional and irrevocable (lock-protected)
// executions, and the Figure 3 abort categorisation with lock conflicts
// identified.
type Stats struct {
	TxCommits          uint64
	IrrevocableCommits uint64
	Aborts             uint64
	AbortsByCategory   [htm.NumCategories]uint64
	// Adaptive-runtime counters (zero in static-policy runs): transactional
	// commits split by execution mode, and steady-mode site transitions in
	// total and by target mode (the sweep publishes the split as
	// tm_mode_switches_total{to=…}). A cache record written before the
	// split existed decodes with it zero, which only a cache hit sees — and
	// cache hits publish nothing.
	HTMCommits     uint64 `json:",omitempty"`
	STMCommits     uint64 `json:",omitempty"`
	ModeSwitches   uint64 `json:",omitempty"`
	ModeSwitchesTo [adapt.NumModes]uint64
}

// Add accumulates o into s.
func (s *Stats) Add(o *Stats) {
	s.TxCommits += o.TxCommits
	s.IrrevocableCommits += o.IrrevocableCommits
	s.Aborts += o.Aborts
	for i := range s.AbortsByCategory {
		s.AbortsByCategory[i] += o.AbortsByCategory[i]
	}
	s.HTMCommits += o.HTMCommits
	s.STMCommits += o.STMCommits
	s.ModeSwitches += o.ModeSwitches
	for i := range s.ModeSwitchesTo {
		s.ModeSwitchesTo[i] += o.ModeSwitchesTo[i]
	}
}

// Commits returns all committed critical sections.
func (s *Stats) Commits() uint64 { return s.TxCommits + s.IrrevocableCommits }

// SerializationRatio is the percentage of committed transactions that ran
// irrevocably under the global lock (Section 5.1).
func (s *Stats) SerializationRatio() float64 {
	c := s.Commits()
	if c == 0 {
		return 0
	}
	return 100 * float64(s.IrrevocableCommits) / float64(c)
}

// AbortRatio is the percentage of transaction attempts that aborted
// (irrevocable executions are not transactions and are excluded, matching
// the paper's definition in Section 5).
func (s *Stats) AbortRatio() float64 {
	attempts := s.TxCommits + s.Aborts
	if attempts == 0 {
		return 0
	}
	return 100 * float64(s.Aborts) / float64(attempts)
}

// CategoryBreakdown returns per-category abort percentages of all
// transaction attempts, the quantity plotted in Figure 3.
func (s *Stats) CategoryBreakdown() [htm.NumCategories]float64 {
	var out [htm.NumCategories]float64
	attempts := s.TxCommits + s.Aborts
	if attempts == 0 {
		return out
	}
	for i, n := range s.AbortsByCategory {
		out[i] = 100 * float64(n) / float64(attempts)
	}
	return out
}

// bgqAdaptState implements Blue Gene/Q's adaptation heuristic over a sliding
// window of recent critical-section executions.
type bgqAdaptState struct {
	window    uint32 // bitmask of the last 16 executions; 1 = fell back
	fallbacks int
	size      int
}

func (b *bgqAdaptState) record(fellBack bool) {
	const width = 16
	if b.size == width {
		if b.window&(1<<(width-1)) != 0 {
			b.fallbacks--
		}
		b.window <<= 1
		b.window &= (1 << width) - 1
	} else {
		b.window <<= 1
		b.size++
	}
	if fellBack {
		b.window |= 1
		b.fallbacks++
	}
}

// suppressed reports whether retrying should be disabled: at least half the
// recent window fell back to the lock.
func (b *bgqAdaptState) suppressed() bool {
	return b.size >= 8 && b.fallbacks*2 >= b.size
}

// Executor runs critical sections for one thread: transactionally with the
// platform's retry mechanism, falling back to the global lock. Create one
// per simulated thread with NewExecutor.
type Executor struct {
	T      *htm.Thread
	Lock   *GlobalLock
	Policy Policy
	Stats  Stats

	// Adapt, when non-nil, replaces the static retry mechanism with the
	// online mode controller (adaptive.go). Set through NewExecutorConfig.
	Adapt *adapt.Controller

	isBGQ    bool
	bgqState bgqAdaptState
	use      RetryUse
}

// RetryUse is the most retries of each counter that any one critical
// section spent under the static mechanism. Off Blue Gene/Q a counter's use
// is its budget minus what remained when the section committed or fell
// back (Figure 1); on Blue Gene/Q it is the most failed attempts of one
// section against the system counter's TransientRetry+1 attempts. A use
// below its budget means the counter never ran out, so any other budget
// above that use runs the same sections the same way. The adaptive, STM
// and HLE paths read no budget and record nothing.
type RetryUse struct {
	lock, persistent, transient int
	bgq                         bool // only transient is read, in attempts
}

// Merge folds o, another executor's use in the same run, into u.
func (u *RetryUse) Merge(o RetryUse) {
	u.lock = max(u.lock, o.lock)
	u.persistent = max(u.persistent, o.persistent)
	u.transient = max(u.transient, o.transient)
	u.bgq = u.bgq || o.bgq
}

// Fits reports whether a run under policy have that spent u runs the same
// under want, which differs from have at most in its retry budgets: every
// counter whose budget differs stayed below both budgets.
func (u RetryUse) Fits(have, want Policy) bool {
	fits := func(used, a, b int) bool { return a == b || used < a && used < b }
	if u.bgq {
		return fits(u.transient, have.TransientRetry+1, want.TransientRetry+1)
	}
	return fits(u.lock, have.LockRetry, want.LockRetry) &&
		fits(u.persistent, have.PersistentRetry, want.PersistentRetry) &&
		fits(u.transient, have.TransientRetry, want.TransientRetry)
}

// RetryUse returns what the executor's critical sections have spent of its
// policy's retry budgets.
func (x *Executor) RetryUse() RetryUse {
	u := x.use
	u.bgq = x.isBGQ
	return u
}

// noteUse records one critical section's spending of the three counters.
func (x *Executor) noteUse(lock, persistent, transient int) {
	x.use.lock = max(x.use.lock, x.Policy.LockRetry-lock)
	x.use.persistent = max(x.use.persistent, x.Policy.PersistentRetry-persistent)
	x.use.transient = max(x.use.transient, x.Policy.TransientRetry-transient)
}

// NewExecutor pairs a hardware thread with the global lock and policy.
func NewExecutor(t *htm.Thread, lock *GlobalLock, pol Policy) *Executor {
	return &Executor{
		T:      t,
		Lock:   lock,
		Policy: pol,
		isBGQ:  t.Engine().Platform().Kind == platform.BlueGeneQ,
	}
}

// Run executes body as an atomic critical section: Figure 1 for zEC12,
// Intel Core and POWER8; the system-provided single-counter mechanism with
// adaptation for Blue Gene/Q. body observes memory through the executor's
// Thread and may run either transactionally or irrevocably under the global
// lock; both provide atomicity and isolation.
func (x *Executor) Run(body func(t *htm.Thread)) {
	if x.Adapt != nil {
		x.runAdaptive(body)
		return
	}
	if x.isBGQ {
		x.runBGQ(body)
		return
	}
	lockRetry := x.Policy.LockRetry
	persistentRetry := x.Policy.PersistentRetry
	transientRetry := x.Policy.TransientRetry

	for {
		x.Lock.WaitUntilFree(x.T) // line 9: avoid the lemming effect
		committed, ab := x.T.TryTx(htm.TxNormal, func() {
			if x.Lock.SubscribedHeld(x.T) { // lines 26–27
				x.T.Abort()
			}
			body(x.T)
		})
		if committed {
			x.Stats.TxCommits++
			x.noteUse(lockRetry, persistentRetry, transientRetry)
			return
		}
		x.Stats.Aborts++
		// Lines 11–24: classify and decide whether to retry.
		switch {
		case x.Lock.Held(): // line 13: conflict on the lock word
			x.Stats.AbortsByCategory[htm.CategoryLockConflict]++
			lockRetry--
			if lockRetry > 0 {
				continue
			}
		case ab.Persistent: // line 17
			x.Stats.AbortsByCategory[ab.Reason.Category()]++
			persistentRetry--
			if persistentRetry > 0 {
				continue
			}
		default: // line 21
			x.Stats.AbortsByCategory[ab.Reason.Category()]++
			transientRetry--
			if transientRetry > 0 {
				continue
			}
		}
		break
	}
	x.noteUse(lockRetry, persistentRetry, transientRetry)
	x.runIrrevocable(body) // line 25
}

// runBGQ is Blue Gene/Q's system-provided mechanism: one retry counter, no
// abort-reason discrimination, optional lazy lock subscription (long-running
// mode), and the adaptation heuristic (Section 3).
func (x *Executor) runBGQ(body func(t *htm.Thread)) {
	retries := x.Policy.TransientRetry
	if x.Policy.Adaptation && x.bgqState.suppressed() {
		retries = 0
	}
	for attempt := 0; attempt <= retries; attempt++ {
		x.Lock.WaitUntilFree(x.T)
		committed, _ := x.T.TryTx(htm.TxNormal, func() {
			if !x.Policy.LazySubscription && x.Lock.SubscribedHeld(x.T) {
				x.T.Abort()
			}
			body(x.T)
			if x.Policy.LazySubscription && x.Lock.SubscribedHeld(x.T) {
				x.T.Abort()
			}
		})
		if committed {
			x.Stats.TxCommits++
			if x.Policy.Adaptation {
				x.bgqState.record(false)
			}
			return
		}
		x.Stats.Aborts++
		x.Stats.AbortsByCategory[htm.CategoryOther]++ // BG/Q exposes no reason
		x.use.transient = max(x.use.transient, attempt+1)
	}
	x.runIrrevocable(body)
	if x.Policy.Adaptation {
		x.bgqState.record(true)
	}
}

// RunIrrevocable executes body directly under the global lock with no
// speculation at all — the degenerate single-lock baseline the differential
// checker (internal/verify) compares transactional executions against.
func (x *Executor) RunIrrevocable(body func(t *htm.Thread)) {
	x.runIrrevocable(body)
}

func (x *Executor) runIrrevocable(body func(t *htm.Thread)) {
	x.Lock.Acquire(x.T)
	body(x.T)
	x.Lock.Release(x.T)
	x.Stats.IrrevocableCommits++
}

// RunSTM executes body as a NOrec software transaction, retrying until it
// commits. STM needs no global-lock fallback: it has no capacity limits and
// every abort is a genuine value-validation conflict. The comparison of
// RunSTM against Run on the same workload measures the HTM-vs-STM overhead
// trade-off the paper's introduction describes.
func (x *Executor) RunSTM(body func(t *htm.Thread)) {
	for {
		committed, _ := x.T.TrySTM(func() { body(x.T) })
		if committed {
			x.Stats.TxCommits++
			return
		}
		x.Stats.Aborts++
		x.Stats.AbortsByCategory[htm.CategoryDataConflict]++
	}
}

// RunHLE executes body with hardware lock elision (Intel, Section 2.3): one
// transactional attempt eliding the lock, and on abort a non-speculative
// re-execution holding the lock. There is no software retry mechanism to
// tune — the performance gap to RTM that Figure 7 measures.
func (x *Executor) RunHLE(body func(t *htm.Thread)) {
	if !x.T.Engine().Platform().HasHLE {
		panic("tm: HLE is an Intel Core feature")
	}
	x.Lock.WaitUntilFree(x.T)
	committed, _ := x.T.TryTx(htm.TxNormal, func() {
		if x.Lock.SubscribedHeld(x.T) {
			x.T.Abort()
		}
		body(x.T)
	})
	if committed {
		x.Stats.TxCommits++
		return
	}
	x.Stats.Aborts++
	x.runIrrevocable(body)
}
