// Package adapt is the online policy controller of the hybrid-TM runtime:
// per transaction site, it selects the execution mode (best-effort hardware
// TM, NOrec software TM, or the irrevocable global lock) and the retry and
// backoff budgets, from a sliding window of recent abort reasons.
//
// The paper tunes retry parameters offline "for each test case" (Section
// 5.1) and finds that the winning mechanism differs per platform and per
// workload; related work (capacity-stretching fallbacks on POWER, hybrid
// NOrec) argues the decision belongs at runtime. This controller makes that
// decision per transaction site:
//
//   - Capacity and way aborts are self-inflicted and mostly persistent, so
//     retrying them burns cycles: a site whose window shows repeated
//     capacity aborts demotes to STM (no capacity limits) — or straight to
//     the lock when conflicts dominate its window as well.
//   - Conflict aborts are transient: they retry in HTM under exponential
//     backoff with jitter, falling back to the lock only for the one
//     offending execution (not the whole site).
//   - Demoted sites re-enter HTM through a probation window: only after
//     `Probation` commits in the demoted mode does the site probe HTM
//     again, and only `ProbeWins` consecutive probe commits promote it
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
// maps htm abort reasons onto the Class vocabulary and applies the
// decisions; mode-transition events flow through internal/obs.
package adapt

import (
	"fmt"

	"htmcmp/internal/chaos"
	"htmcmp/internal/obs"
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

// obs carries mode-transition events with raw uint8 mode codes (it cannot
// import this package); registering the namer here gives every program
// linking the controller symbolic mode names in event sinks.
func init() {
	obs.SetModeNamer(func(code uint8) string { return Mode(code).String() })
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

// String returns a short identifier for the class.
func (c Class) String() string {
	switch c {
	case ClassConflict:
		return "conflict"
	case ClassCapacity:
		return "capacity"
	case ClassLockConflict:
		return "lock"
	case ClassOther:
		return "other"
	case ClassSTMConflict:
		return "stm-conflict"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// window entries: per-execution outcomes. Commits record the mode they
// landed in; aborts record their class. The demotion rules below are counts
// over this ring.
type entry uint8

const (
	entryCommitHTM entry = iota
	entryCommitSTM
	entryCommitLock // one-shot fallback to the lock after exhausted retries
	entryAbortConflict
	entryAbortCapacity
	entryAbortLock
	entryAbortOther
	entryAbortSTM

	numEntries
)

// Config holds the controller's thresholds. The zero value selects the
// defaults; all counts are per transaction site.
type Config struct {
	// Window is the per-site history length in recorded outcomes
	// (default 64).
	Window int
	// CapacityDemote demotes an HTM site to STM once this many capacity
	// aborts sit in its window (default 4). Capacity aborts are mostly
	// persistent: the footprint will not shrink on retry.
	CapacityDemote int
	// LockDemote demotes an HTM site to the lock once this many of its
	// windowed executions ended in the one-shot lock fallback
	// (default Window/4): the site is effectively serialising anyway, so
	// stop paying for the failed speculation first.
	LockDemote int
	// STMDemote demotes an STM site to the lock once this many NOrec
	// validation conflicts sit in its window (default Window/2): value
	// validation that keeps failing means the site is serialisation-bound.
	STMDemote int
	// HTMRetry bounds hardware attempts per execution before the one-shot
	// lock fallback (default 8, the paper's untuned transient budget).
	HTMRetry int
	// CapacityRetry bounds hardware attempts after a capacity abort within
	// one execution (default 1, mirroring the paper's finding that a small
	// persistent budget wins).
	CapacityRetry int
	// ProbeRetry bounds hardware attempts of a probe execution (default 2);
	// a probe that cannot commit within it fails the probe.
	ProbeRetry int
	// BackoffBase is the first conflict backoff in cost cycles (default 16).
	BackoffBase int
	// BackoffMaxShift caps the exponential backoff doubling (default 6:
	// at most BackoffBase<<6 cycles).
	BackoffMaxShift int
	// Probation is how many commits a demoted site must complete in its
	// demoted mode before probing HTM again (default 64).
	Probation int
	// ProbationGrowth multiplies the probation length on a failed probe
	// (default 2), ProbationMax caps it (default 4096).
	ProbationGrowth int
	ProbationMax    int
	// ProbeWins is how many consecutive probe commits promote the site
	// back (default 4) — the hysteresis that prevents flapping.
	ProbeWins int
	// Faults, when set, injects controller mode thrash (internal/chaos):
	// on a committing execution the site's deterministic per-site stream
	// may force a spurious steady-mode rotation, modelling a flapping or
	// mis-tuned controller. Nil costs one pointer check per commit; the
	// forced transitions flow through the ordinary transition path, so
	// every mode the site lands in remains correct — thrash costs
	// performance, never consistency.
	Faults *chaos.Injector
}

// DefaultConfig returns the default thresholds.
func DefaultConfig() Config { return Config{}.withDefaults() }

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.Window > 1024 {
		c.Window = 1024
	}
	if c.CapacityDemote <= 0 {
		c.CapacityDemote = 4
	}
	if c.LockDemote <= 0 {
		c.LockDemote = c.Window / 4
	}
	if c.STMDemote <= 0 {
		c.STMDemote = c.Window / 2
	}
	if c.HTMRetry <= 0 {
		c.HTMRetry = 8
	}
	if c.CapacityRetry <= 0 {
		c.CapacityRetry = 1
	}
	if c.ProbeRetry <= 0 {
		c.ProbeRetry = 2
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 16
	}
	if c.BackoffMaxShift <= 0 {
		c.BackoffMaxShift = 6
	}
	if c.Probation <= 0 {
		c.Probation = 64
	}
	if c.ProbationGrowth <= 1 {
		c.ProbationGrowth = 2
	}
	if c.ProbationMax <= 0 {
		c.ProbationMax = 4096
	}
	if c.ProbeWins <= 0 {
		c.ProbeWins = 4
	}
	return c
}

// Transition reports a steady-mode change of one site. The zero value means
// "no transition" (None is false).
type Transition struct {
	Site     uint32
	From, To Mode
	Changed  bool
}

// Controller owns the per-site state. One controller serves all executors of
// a run, which the virtual-time scheduler runs one at a time on one
// goroutine, so decisions are deterministic for a fixed seed.
type Controller struct {
	cfg Config

	sites map[uintptr]*Site
	order []*Site

	switches uint64
}

// NewController builds a controller with cfg (zero Config = defaults).
func NewController(cfg Config) *Controller {
	return &Controller{cfg: cfg.withDefaults(), sites: map[uintptr]*Site{}}
}

// Config returns the controller's effective (defaulted) configuration.
func (c *Controller) Config() Config { return c.cfg }

// Switches returns the total number of steady-mode transitions across all
// sites.
func (c *Controller) Switches() uint64 { return c.switches }

// SiteFor returns the site state for a transaction-site key, creating it in
// ModeHTM on first use. Keys are opaque; internal/tm uses the body's code
// pointer, which identifies the static call site.
func (c *Controller) SiteFor(key uintptr) *Site {
	if s := c.sites[key]; s != nil {
		return s
	}
	s := &Site{ctl: c, id: uint32(len(c.order)), win: make([]entry, c.cfg.Window)}
	if c.cfg.Faults != nil {
		s.faults = c.cfg.Faults.Stream(int(s.id))
	}
	c.sites[key] = s
	c.order = append(c.order, s)
	return s
}

// SiteSnapshot is one site's state for reporting.
type SiteSnapshot struct {
	ID          uint32
	Mode        Mode
	Probing     bool
	Transitions uint64
	Commits     [NumModes]uint64
	Aborts      uint64
}

// Sites returns a snapshot of every site in creation order.
func (c *Controller) Sites() []SiteSnapshot {
	out := make([]SiteSnapshot, 0, len(c.order))
	for _, s := range c.order {
		out = append(out, SiteSnapshot{
			ID: s.id, Mode: s.mode, Probing: s.probing,
			Transitions: s.transitions, Commits: s.commits, Aborts: s.aborts,
		})
	}
	return out
}

// Site is the controller state of one transaction site.
type Site struct {
	ctl *Controller
	id  uint32
	// faults is the site's chaos roll stream (nil = injection off);
	// deterministic per site id, so virtual-time runs with thrash
	// injection stay reproducible.
	faults *chaos.Stream

	mode Mode // steady mode

	// window ring of recent outcomes with per-entry counts.
	win    []entry
	winLen int
	winPos int
	counts [numEntries]int

	// probation / probe state (meaningful while mode != ModeHTM).
	commitsSinceDemote int
	probation          int // commits required before the next probe; 0 = base
	probing            bool
	probeTarget        Mode
	probeWins          int

	transitions uint64
	commits     [NumModes]uint64
	aborts      uint64
}

// ID returns the site's dense identifier (assigned in first-use order).
func (s *Site) ID() uint32 { return s.id }

// Mode returns the site's current steady mode.
func (s *Site) Mode() Mode { return s.mode }

func (s *Site) record(e entry) {
	if s.winLen == len(s.win) {
		s.counts[s.win[s.winPos]]--
	} else {
		s.winLen++
	}
	s.win[s.winPos] = e
	s.counts[e]++
	s.winPos++
	if s.winPos == len(s.win) {
		s.winPos = 0
	}
}

// resetWindow clears the history — used after a promotion so the demoted
// mode's record does not immediately re-demote the site.
func (s *Site) resetWindow() {
	s.winLen, s.winPos = 0, 0
	for i := range s.counts {
		s.counts[i] = 0
	}
}

// transition switches the steady mode.
func (s *Site) transition(to Mode) Transition {
	from := s.mode
	if from == to {
		return Transition{}
	}
	s.mode = to
	s.transitions++
	s.ctl.switches++
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
	cfg := &s.ctl.cfg
	if s.mode != ModeHTM && !s.probing {
		due := s.probation
		if due == 0 {
			due = cfg.Probation
		}
		if s.commitsSinceDemote >= due {
			s.probing = true
			s.probeTarget = s.probeMode()
			s.probeWins = 0
		}
	}
	mode := s.mode
	probe := false
	if s.probing {
		mode = s.probeTarget
		probe = true
	}
	return Txn{site: s, mode: mode, probe: probe}
}

// probeMode picks where a demoted site probes: normally HTM, but a
// lock-mode site whose window is capacity-dominated probes STM instead —
// hardware will just overflow again, software has no capacity limit.
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

// Probing reports whether this execution is a probation probe.
func (t *Txn) Probing() bool { return t.probe }

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

// Abort records one aborted attempt of class c and decides how to continue:
// the returned transition is non-zero when the site's steady mode changed
// (the caller emits it as an event), and t.Mode() reflects the mode of the
// next attempt.
func (t *Txn) Abort(c Class) Transition {
	s := t.site
	cfg := &s.ctl.cfg
	s.aborts++
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
			if s.counts[entryAbortCapacity] >= cfg.CapacityDemote {
				// The window shows persistent overflow: demote the site.
				// Straight to the lock when conflicts dominate too — STM
				// would only convert capacity aborts into validation aborts.
				to := ModeSTM
				if s.counts[entryAbortConflict] >= cfg.LockDemote {
					to = ModeLock
				}
				tr := s.transition(to)
				t.mode = to
				t.probe = false
				return tr
			}
			if t.capAborts > cfg.CapacityRetry {
				// Execution-local fallback: this execution will not fit.
				t.mode = ModeSTM
			}
		case ClassConflict:
			s.record(entryAbortConflict)
			t.conflicts++
			shift := t.conflicts - 1
			if shift > cfg.BackoffMaxShift {
				shift = cfg.BackoffMaxShift
			}
			t.backoff = cfg.BackoffBase << shift
			if t.attempts >= cfg.HTMRetry {
				t.mode = ModeLock // one-shot serialisation, not a demotion
			}
		case ClassLockConflict:
			s.record(entryAbortLock)
			t.backoff = 0
			if t.attempts >= cfg.HTMRetry {
				t.mode = ModeLock
			}
		default:
			s.record(entryAbortOther)
			t.backoff = 0
			if t.attempts >= cfg.HTMRetry {
				t.mode = ModeLock
			}
		}
	case ModeSTM:
		if c == ClassLockConflict {
			// The held lock aborted the (lock-word-subscribed) software
			// transaction; the caller's WaitUntilFree is the right wait and
			// the abort says nothing about STM suitability.
			s.record(entryAbortLock)
			t.backoff = 0
			return Transition{}
		}
		s.record(entryAbortSTM)
		if s.counts[entryAbortSTM] >= cfg.STMDemote {
			tr := s.transition(ModeLock)
			t.mode = ModeLock
			return tr
		}
		t.conflicts++
		shift := t.conflicts - 1
		if shift > cfg.BackoffMaxShift {
			shift = cfg.BackoffMaxShift
		}
		t.backoff = cfg.BackoffBase << shift
	case ModeLock:
		// Irrevocable executions cannot abort; nothing to decide.
	}
	return Transition{}
}

// abortProbe handles an abort during a probation probe: capacity
// aborts fail the probe immediately (the demotion cause persists), anything
// else gets ProbeRetry attempts. A failed probe returns the execution to the
// steady demoted mode and lengthens the probation.
func (t *Txn) abortProbe(c Class) Transition {
	s := t.site
	cfg := &s.ctl.cfg
	failed := c == ClassCapacity || c == ClassSTMConflict || t.attempts >= cfg.ProbeRetry
	switch c {
	case ClassCapacity:
		s.record(entryAbortCapacity)
	case ClassConflict:
		s.record(entryAbortConflict)
	case ClassSTMConflict:
		s.record(entryAbortSTM)
	case ClassLockConflict:
		s.record(entryAbortLock)
	default:
		s.record(entryAbortOther)
	}
	if !failed {
		t.conflicts++
		t.backoff = cfg.BackoffBase << (t.conflicts - 1)
		return Transition{}
	}
	s.probing = false
	s.probeWins = 0
	s.commitsSinceDemote = 0
	base := s.probation
	if base == 0 {
		base = cfg.Probation
	}
	base *= cfg.ProbationGrowth
	if base > cfg.ProbationMax {
		base = cfg.ProbationMax
	}
	s.probation = base
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
	cfg := &s.ctl.cfg
	s.commits[t.mode]++
	switch t.mode {
	case ModeHTM:
		s.record(entryCommitHTM)
	case ModeSTM:
		s.record(entryCommitSTM)
	case ModeLock:
		s.record(entryCommitLock)
	}

	if t.probe {
		s.probeWins++
		if s.probeWins >= cfg.ProbeWins {
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
		if s.counts[entryCommitLock] >= cfg.LockDemote {
			return s.transition(ModeLock)
		}
	}
	return Transition{}
}
