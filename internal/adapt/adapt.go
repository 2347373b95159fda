// Package adapt is the online policy controller of the hybrid-TM runtime:
// per transaction site, it selects the execution mode (best-effort hardware
// TM, NOrec software TM, or the irrevocable global lock) and the retry and
// backoff budgets, from a sliding window of recent abort reasons.
//
// The paper tunes retry parameters offline "for each test case" (Section
// 5.1) and finds that the winning mechanism differs per platform and per
// workload; hybrid NOrec argues the decision belongs at runtime. This
// controller makes that decision per transaction site, under one fixed
// policy whose thresholds are the package constants below:
//
//   - Capacity and way aborts are self-inflicted and mostly persistent, so
//     retrying them burns cycles: a site whose window shows repeated
//     capacity aborts demotes to STM (no capacity limits) — or straight to
//     the lock when conflicts dominate its window as well.
//   - Conflict aborts are transient: they retry in HTM under exponential
//     backoff with jitter, falling back to the lock only for the one
//     offending execution (not the whole site).
//   - Demoted sites re-enter HTM through a probation window: only after
//     `probation` commits in the demoted mode does the site probe HTM
//     again, and only `probeWins` consecutive probe commits promote it
//     back (hysteresis). A failed probe multiplies the probation length,
//     so a site that keeps failing probes stops flapping — the lemming
//     effect the paper's Figure 1 line 9 guards against, applied to mode
//     switching.
//
// The controller is a pure state machine: decisions depend only on the
// per-site windowed history, never on wall-clock time or global shared
// randomness, so virtual-time runs with the controller attached remain
// deterministic. Jitter is delegated to the caller's (deterministic,
// per-thread) PRNG through Txn.Backoff.
//
// This package deliberately knows nothing about the engine: internal/tm
// maps htm abort reasons onto the Class vocabulary, applies the decisions,
// counts them in tm.Stats and emits each transition as an internal/obs
// event.
package adapt

import (
	"fmt"

	"htmcmp/internal/chaos"
)

// Mode is an execution mode the controller can select for a site.
type Mode uint8

const (
	// ModeHTM runs the site's critical sections as best-effort hardware
	// transactions with the global-lock fallback (the paper's Figure 1).
	ModeHTM Mode = iota
	// ModeSTM runs them as NOrec software transactions.
	ModeSTM
	// ModeLock runs them irrevocably under the global lock.
	ModeLock

	numModes
)

// NumModes is the size of the Mode vocabulary (for stats arrays).
const NumModes = int(numModes)

// String returns the short identifier used in events and tables.
func (m Mode) String() string {
	switch m {
	case ModeHTM:
		return "htm"
	case ModeSTM:
		return "stm"
	case ModeLock:
		return "lock"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Class is the controller's abort vocabulary: the Figure 3 categories plus
// the STM validation conflict. internal/tm maps htm.Abort onto it.
type Class uint8

const (
	// ClassConflict is a hardware data conflict (including non-transactional
	// and committer conflicts).
	ClassConflict Class = iota
	// ClassCapacity is any flavour of capacity overflow (load, store, way,
	// SMT sharing).
	ClassCapacity
	// ClassLockConflict is an abort caused by the global lock word.
	ClassLockConflict
	// ClassOther is everything else (cache-fetch, explicit, unknown).
	ClassOther
	// ClassSTMConflict is a NOrec value-validation failure.
	ClassSTMConflict

	numClasses
)

// The controller's thresholds: one fixed policy, all counts per
// transaction site.
const (
	// window is the per-site history length in recorded outcomes.
	window = 64
	// capacityDemote demotes an HTM site to STM once this many capacity
	// aborts sit in its window. Capacity aborts are mostly persistent: the
	// footprint will not shrink on retry.
	capacityDemote = 4
	// lockDemote (a quarter of the window) demotes an HTM site to the lock
	// once this many of its windowed executions committed under the lock:
	// the site is effectively serialising anyway, so stop paying for the
	// failed speculation first. A capacity demotion also picks the lock over
	// STM once this many conflict aborts sit in the window.
	lockDemote = 16
	// stmDemote (half the window) demotes an STM site to the lock once this
	// many NOrec validation conflicts sit in its window: value validation
	// that keeps failing means the site is serialisation-bound.
	stmDemote = 32
	// htmRetry bounds hardware attempts per execution before the one-shot
	// lock fallback (the paper's untuned transient budget).
	htmRetry = 8
	// capacityRetry bounds hardware attempts after a capacity abort within
	// one execution (the paper finds a small persistent budget wins).
	capacityRetry = 1
	// probeRetry bounds hardware attempts of a probe execution; a probe
	// that cannot commit within it fails the probe.
	probeRetry = 2
	// backoffBase is the first conflict backoff in cost cycles;
	// backoffMaxShift caps the exponential doubling at backoffBase<<6.
	backoffBase     = 16
	backoffMaxShift = 6
	// probation is how many commits a demoted site must complete in its
	// demoted mode before probing HTM again. A failed probe multiplies the
	// site's probation by probationGrowth, up to probationMax.
	probation       = 64
	probationGrowth = 2
	probationMax    = 4096
	// probeWins is how many consecutive probe commits promote the site
	// back: the hysteresis that prevents flapping.
	probeWins = 4
)

// entry is one window slot: the outcome of an attempt, reduced to what the
// demotion rules count.
type entry uint8

const (
	entryOther         entry = iota // a commit in HTM or STM, a lock or other abort
	entryCommitLock                 // a commit under the lock
	entryAbortConflict              // hardware data conflict
	entryAbortCapacity              // hardware capacity overflow
	entryAbortSTM                   // NOrec validation conflict

	numEntries
)

// Transition reports a steady-mode change of one site. The zero value means
// "no transition" (Changed is false).
type Transition struct {
	Site     uint32
	From, To Mode
	Changed  bool
}

// Controller owns the per-site state. One controller serves all executors of
// a run, which the virtual-time scheduler runs one at a time on one
// goroutine, so decisions are deterministic for a fixed seed.
type Controller struct {
	sites  map[uintptr]*Site
	faults *chaos.Injector
}

// NewController builds a controller. faults, when non-nil, injects
// controller mode thrash (internal/chaos): on a committing execution the
// site's deterministic per-site stream may force a spurious steady-mode
// rotation, modelling a flapping or mis-tuned controller. Nil costs one
// pointer check per commit; the forced transitions flow through the
// ordinary transition path, so every mode the site lands in remains
// correct — thrash costs performance, never consistency.
func NewController(faults *chaos.Injector) *Controller {
	return &Controller{sites: map[uintptr]*Site{}, faults: faults}
}

// SiteFor returns the site state for a transaction-site key, creating it in
// ModeHTM on first use. Keys are opaque; internal/tm uses the body's code
// pointer, which identifies the static call site.
func (c *Controller) SiteFor(key uintptr) *Site {
	if s := c.sites[key]; s != nil {
		return s
	}
	s := &Site{id: uint32(len(c.sites))}
	if c.faults != nil {
		s.faults = c.faults.Stream(int(s.id))
	}
	c.sites[key] = s
	return s
}

// Site is the controller state of one transaction site.
type Site struct {
	id uint32 // dense, in first-use order
	// faults is the site's chaos roll stream (nil = injection off);
	// deterministic per site id, so virtual-time runs with thrash
	// injection stay reproducible.
	faults *chaos.Stream

	mode Mode // steady mode

	// win is the ring of recent outcomes, counts its per-kind totals.
	win    [window]entry
	winLen int
	winPos int
	counts [numEntries]int

	// probation / probe state (meaningful while mode != ModeHTM).
	commitsSinceDemote int
	probation          int // commits required before the next probe; 0 = base
	probing            bool
	probeTarget        Mode
	probeWins          int
}

func (s *Site) record(e entry) {
	if s.winLen == window {
		s.counts[s.win[s.winPos]]--
	} else {
		s.winLen++
	}
	s.win[s.winPos] = e
	s.counts[e]++
	s.winPos++
	if s.winPos == window {
		s.winPos = 0
	}
}

// resetWindow clears the history — used after a promotion so the demoted
// mode's record does not immediately re-demote the site.
func (s *Site) resetWindow() {
	s.winLen, s.winPos = 0, 0
	s.counts = [numEntries]int{}
}

// transition switches the steady mode.
func (s *Site) transition(to Mode) Transition {
	from := s.mode
	if from == to {
		return Transition{}
	}
	s.mode = to
	if to == ModeHTM {
		// Promotion: fresh history and base probation for the next demotion.
		s.resetWindow()
		s.probation = 0
	} else {
		s.commitsSinceDemote = 0
	}
	s.probing = false
	s.probeWins = 0
	return Transition{Site: s.id, From: from, To: to, Changed: true}
}

// Begin starts one critical-section execution: it decides the starting mode
// (entering a probe when the site's probation has elapsed) and returns the
// per-execution cursor.
func (s *Site) Begin() Txn {
	if s.mode != ModeHTM && !s.probing {
		due := s.probation
		if due == 0 {
			due = probation
		}
		if s.commitsSinceDemote >= due {
			s.probing = true
			s.probeTarget = s.probeMode()
			s.probeWins = 0
		}
	}
	if s.probing {
		return Txn{site: s, mode: s.probeTarget, probe: true}
	}
	return Txn{site: s, mode: s.mode}
}

// probeMode picks where a demoted site probes: normally HTM, but a
// lock-mode site whose window holds more capacity than conflict aborts
// probes STM instead — hardware will just overflow again, software has no
// capacity limit. A lock-mode site records only lock commits, so those
// aborts come from hardware attempts that began before the demotion and
// aborted after it.
func (s *Site) probeMode() Mode {
	if s.mode == ModeLock && s.counts[entryAbortCapacity] > s.counts[entryAbortConflict] {
		return ModeSTM
	}
	return ModeHTM
}

// Txn is the per-execution cursor: internal/tm drives it with the outcome of
// every attempt and follows the mode it dictates.
type Txn struct {
	site *Site
	mode Mode
	// probe marks an execution probing a faster mode during probation.
	probe bool
	// attempts and capAborts count hardware attempts of this execution.
	attempts  int
	capAborts int
	// conflicts counts consecutive conflict aborts (the backoff exponent).
	conflicts int
	// backoff is the pending pre-attempt backoff in cycles (pre-jitter).
	backoff int
}

// Mode returns the mode the next attempt must run in.
func (t *Txn) Mode() Mode { return t.mode }

// Backoff returns the jittered pre-attempt pause in cost cycles (0 when no
// backoff is pending). intn must return a uniform value in [0,n); callers
// pass their deterministic per-thread PRNG so virtual-time runs stay
// reproducible.
func (t *Txn) Backoff(intn func(n int) int) int {
	if t.backoff <= 0 {
		return 0
	}
	// Jitter in [backoff/2, backoff): desynchronises retry storms without
	// ever waiting longer than the exponential envelope.
	return t.backoff/2 + intn((t.backoff+1)/2)
}

// conflictBackoff doubles the pending backoff envelope for the next
// consecutive conflict, up to backoffBase<<backoffMaxShift.
func (t *Txn) conflictBackoff() {
	t.conflicts++
	t.backoff = backoffBase << min(t.conflicts-1, backoffMaxShift)
}

// Abort records one aborted attempt of class c and decides how to continue:
// the returned transition is non-zero when the site's steady mode changed
// (the caller emits it as an event), and t.Mode() reflects the mode of the
// next attempt.
func (t *Txn) Abort(c Class) Transition {
	s := t.site
	t.attempts++

	if t.probe {
		return t.abortProbe(c)
	}

	switch t.mode {
	case ModeHTM:
		switch c {
		case ClassCapacity:
			s.record(entryAbortCapacity)
			t.capAborts++
			t.backoff = 0
			if s.counts[entryAbortCapacity] >= capacityDemote {
				// The window shows persistent overflow: demote the site.
				// Straight to the lock when conflicts dominate too — STM
				// would only convert capacity aborts into validation aborts.
				to := ModeSTM
				if s.counts[entryAbortConflict] >= lockDemote {
					to = ModeLock
				}
				t.mode = to
				return s.transition(to)
			}
			if t.capAborts > capacityRetry {
				// Execution-local fallback: this execution will not fit.
				t.mode = ModeSTM
			}
			return Transition{}
		case ClassConflict:
			s.record(entryAbortConflict)
			t.conflictBackoff()
		default:
			s.record(entryOther)
			t.backoff = 0
		}
		if t.attempts >= htmRetry {
			t.mode = ModeLock // one-shot serialisation, not a demotion
		}
	case ModeSTM:
		if c == ClassLockConflict {
			// The held lock aborted the (lock-word-subscribed) software
			// transaction; the caller's WaitUntilFree is the right wait and
			// the abort says nothing about STM suitability.
			s.record(entryOther)
			t.backoff = 0
			return Transition{}
		}
		s.record(entryAbortSTM)
		if s.counts[entryAbortSTM] >= stmDemote {
			t.mode = ModeLock
			return s.transition(ModeLock)
		}
		t.conflictBackoff()
	case ModeLock:
		// Irrevocable executions cannot abort; nothing to decide.
	}
	return Transition{}
}

// abortProbe handles an abort during a probation probe: a capacity abort or
// an STM validation conflict fails the probe immediately (the demotion
// cause persists), anything else gets probeRetry attempts. A failed probe
// returns the execution to the steady demoted mode and lengthens the
// probation.
func (t *Txn) abortProbe(c Class) Transition {
	s := t.site
	switch c {
	case ClassCapacity:
		s.record(entryAbortCapacity)
	case ClassConflict:
		s.record(entryAbortConflict)
	case ClassSTMConflict:
		s.record(entryAbortSTM)
	default:
		s.record(entryOther)
	}
	if c != ClassCapacity && c != ClassSTMConflict && t.attempts < probeRetry {
		t.conflictBackoff()
		return Transition{}
	}
	s.probing = false
	s.probeWins = 0
	s.commitsSinceDemote = 0
	base := s.probation
	if base == 0 {
		base = probation
	}
	s.probation = min(base*probationGrowth, probationMax)
	t.probe = false
	t.mode = s.mode
	t.backoff = 0
	return Transition{}
}

// Commit records a successful execution in t.Mode() and returns a non-zero
// transition when it completed a promotion (the probe hysteresis was
// satisfied).
func (t *Txn) Commit() Transition {
	s := t.site
	if t.mode == ModeLock {
		s.record(entryCommitLock)
	} else {
		s.record(entryOther)
	}

	if t.probe {
		s.probeWins++
		if s.probeWins >= probeWins {
			return s.transition(t.mode)
		}
		return Transition{}
	}

	// Injected mode thrash: rotate the steady mode for no reason at all.
	// The site keeps executing correctly in whatever mode it lands in and
	// the probation machinery eventually climbs back — the cost is wasted
	// transitions, which is exactly what the chaos suite measures.
	if s.faults != nil && s.faults.Roll(chaos.ModeThrash) {
		return s.transition(Mode((uint8(s.mode) + 1) % uint8(numModes)))
	}

	switch {
	case s.mode != ModeHTM && t.mode == s.mode:
		s.commitsSinceDemote++
	case s.mode == ModeHTM && t.mode == ModeLock:
		// One-shot fallback commits: enough of them demote the site — it is
		// serialising anyway, so stop paying for the failed speculation.
		if s.counts[entryCommitLock] >= lockDemote {
			return s.transition(ModeLock)
		}
	}
	return Transition{}
}
