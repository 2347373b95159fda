// Package htm implements the behavioural hardware-transactional-memory
// engine at the core of this reproduction.
//
// The engine executes transactions of simulated hardware threads against a
// simulated flat memory (internal/mem) in virtual time: one Thread runs at a
// time, every access and modelled overhead advances its virtual clock, and
// inside a region (Engine.Run) the deterministic scheduler (vsched.go) always
// resumes the minimum-clock thread, so transactions overlap in virtual time
// whatever the host. All Threads of an Engine belong to one goroutine at a
// time — inside Run, or driven one after another by the caller. The engine
// mimics how the four processors of the paper implement HTM on top of their
// cache hierarchies (Section 2):
//
//   - Conflict detection is eager and cache-line-granular: every
//     transactional access registers the accessed line in a global
//     line-ownership table, and a conflicting request dooms the current
//     owner, exactly as a coherence invalidation aborts the transaction
//     holding the line in real hardware ("requester wins").
//   - Stores are buffered: a transaction copies each written line into a
//     private buffer and publishes it at commit, so concurrent transactions
//     and non-transactional readers never observe speculative state.
//   - Capacity is accounted per platform: distinct-line counts against the
//     Table 1 load/store budgets, set-associativity overflow for store
//     buffers that live in the L1, and division of per-core resources among
//     SMT threads concurrently in transactions.
//   - Platform quirks are modelled where the paper identifies them as the
//     cause of measured behaviour: Blue Gene/Q's speculation-ID pool and
//     software begin/end overhead, zEC12's spurious cache-fetch aborts,
//     Intel's adjacent-line prefetches joining the read set.
//
// Aborts raised in the transaction body unwind to the transaction begin via
// panic/recover, mirroring the hardware register-state rollback; an abort
// found at commit, after the body has returned, returns instead.
package htm

import (
	"fmt"

	"htmcmp/internal/chaos"
	"htmcmp/internal/mem"
	"htmcmp/internal/obs"
	"htmcmp/internal/platform"
	"htmcmp/internal/prng"
)

// obs carries abort reasons as raw uint8 codes (it must not import this
// package); registering the namer here gives every program linking the
// engine symbolic reason names in event sinks.
func init() {
	obs.SetReasonNamer(func(code uint8) string { return Reason(code).String() })
}

// MaxThreads is the maximum number of Threads per Engine, bounded by the
// 256-bit reader sets in the line table. The largest paper configuration is
// 64 hardware threads (Blue Gene/Q).
const MaxThreads = 256

const (
	statusIdle int32 = iota
	statusActive
	statusCommitting
	statusDoomed
)

// lineRec is the ownership record of one conflict-detection line: the
// writing transaction (thread slot, or -1) and a bitmap of reading threads.
// It is the software analogue of tx-read/tx-dirty cache-line bits (zEC12,
// Section 2.2) or a TMCAM entry (POWER8, Section 2.4). epoch (in what was
// padding) names the engine that last wrote the record; under any other
// engine the record reads as quiescent — always go through Thread.rec.
type lineRec struct {
	writer  int32
	epoch   uint32
	readers [MaxThreads / 64]uint64
}

func (l *lineRec) setReader(slot int)   { l.readers[slot>>6] |= 1 << (uint(slot) & 63) }
func (l *lineRec) clearReader(slot int) { l.readers[slot>>6] &^= 1 << (uint(slot) & 63) }

// coreState tracks how many hardware threads of one physical core are
// currently inside transactions, for the SMT resource-sharing model
// (Section 2, "Transaction capacity").
type coreState struct {
	activeTx int32
}

// Config configures an Engine.
type Config struct {
	// Threads is the number of hardware threads to provision (Thread
	// slots). It may exceed the platform's core count; extra threads share
	// cores per Spec.CoreOf. Must be in [1, 256].
	Threads int
	// SpaceSize is the simulated arena size in bytes (default 64 MiB).
	SpaceSize int
	// Space, when non-nil, is a caller-owned arena the engine adopts instead
	// of leasing one from the package pool (see pool.go); Release detaches
	// it and the caller recycles it with Reset. It must be in its
	// post-NewSpace/post-Reset state and its size must match SpaceSize
	// (after defaulting); New panics otherwise. The caller must not touch
	// the Space while the engine runs and must not hand it to two engines.
	Space *mem.Space
	// Seed seeds the per-thread PRNGs used by the stochastic models
	// (prefetcher, cache-fetch aborts) and by workloads.
	Seed uint64
	// Mode selects Blue Gene/Q's running mode; ignored elsewhere.
	Mode platform.BGQMode
	// DisablePrefetch turns off the Intel adjacent-line prefetcher model —
	// the hardware-prefetch ablation of Section 5.1.
	DisablePrefetch bool
	// DisableCacheFetchAborts turns off zEC12's spurious transient aborts.
	DisableCacheFetchAborts bool
	// ResponderWins flips the conflict-resolution policy so the requesting
	// transaction aborts instead of the current owner (an ablation; real
	// invalidation-based HTMs are requester-wins).
	ResponderWins bool
	// CostScale scales the injected platform overhead costs. 1.0 is the
	// calibrated model; 0 disables cost injection (fast functional tests).
	CostScale float64
	// DisableSMTSharing turns off division of capacity among SMT threads
	// (an ablation for the Section 7 "better interaction with SMT"
	// discussion).
	DisableSMTSharing bool
	// UnboundedCapacity disables all capacity aborts while still tracking
	// footprints: the tracing configuration behind Figures 10/11, which
	// measured transaction sizes with an external tool unconstrained by
	// any processor's real capacity.
	UnboundedCapacity bool
	// Tracer, when set, is the event log every thread appends one obs.Event
	// to per transaction boundary (begin/commit/abort). Disabled (nil) it
	// costs one nil check per boundary and nothing on the per-access path;
	// enabled it never advances virtual time, so simulated results are
	// identical traced and untraced (pinned by internal/tm's golden
	// determinism test). Only hardware commits emit a commit event, carrying
	// the footprint in distinct conflict-detection lines (prefetched lines
	// excluded): internal/trace reads the Figure 10/11 transaction-size
	// distributions from them.
	Tracer *obs.Tracer
	// Witness, when set, records the commit-order witness log consumed by
	// the verify.Replay serializability oracle: each committed
	// transaction's read set (line, version, value hash) and write set
	// (published line images) plus its commit vclock, and every
	// strongly-isolated non-transactional store. Disabled (nil) it costs
	// one nil check per transactional load and per commit; enabled it
	// never advances virtual time, so witnessed runs are cycle-identical
	// to unwitnessed ones. See witness.go for scope and limitations.
	Witness *Witness
	// Faults, when set, is the deterministic chaos injector (internal/chaos)
	// driving engine-level fault injection: interrupt-style spurious aborts
	// at the commit boundary, forced capacity overflows at the capacity
	// checks, and NOrec sequence-lock contention on STM loads. Same cost
	// contract as Tracer/Witness: nil costs one pointer check per
	// hook and never advances virtual time, so runs with chaos off are
	// cycle-identical to runs built before the injector existed. Injected
	// aborts take the ordinary abort path (rollback, stats, witness), so
	// chaos runs remain serializable.
	Faults *chaos.Injector
	// Deprecated: Virtual is ignored. The engine always runs in virtual
	// time; the field survives, like adapter.go, only because bench/ (which
	// only a benchmark-typed PR may edit) still sets it.
	Virtual bool
	// Quantum is the number of memory accesses between voluntary yields
	// inside a region (default 8). Smaller values interleave transactions
	// more finely.
	Quantum int
}

func (c Config) withDefaults() Config {
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.SpaceSize <= 0 {
		c.SpaceSize = 64 << 20
	}
	if c.Seed == 0 {
		c.Seed = 0x5eed
	}
	return c
}

// Engine is one platform's HTM, instantiated over one simulated memory.
// Create with New, run its Threads together with Run (or one at a time from
// a single goroutine), and run transactions through the internal/tm runtime
// (or Thread.TryTx directly).
type Engine struct {
	plat  *platform.Spec
	space *mem.Space // cfg.Space, or leased from the pool until Release
	cfg   Config

	lineShift uint
	lineSize  int
	nLines    int
	table     *lineTable

	cores    []coreState
	activeTx int32 // engine-wide live transactions (strong-isolation fast path)

	specPool *specIDPool // Blue Gene/Q only

	// arbiter serialises "hardened" constrained transactions so that
	// zEC12's eventual-commit guarantee holds (Section 2.2). It is a spin
	// lock: the holder yields the scheduler's baton while waiters Pause.
	arbiter bool

	// sched is the virtual-time scheduler.
	sched   *vsched
	adapter adapter // Register/BeginWork/ExitWork state; goes with adapter.go

	// stmSeq is the global NOrec sequence lock (see stm.go).
	stmSeq uint64

	// hybrid arms the HTM/STM coexistence fences (hybrid.go); hybridGate is
	// the line adaptive hardware transactions subscribe to.
	hybrid     bool
	hybridGate mem.Addr

	threads []*Thread

	// traced caches cfg.Tracer != nil for the conflict paths that tag the
	// victim's doomLine/doomBy attribution fields.
	traced bool

	loadCapLines  int
	storeCapLines int
}

// New creates an Engine for the given platform model over a fresh memory
// space — cfg.Space if given, otherwise a fresh-or-Reset arena leased from
// the package pool until Release. The returned engine has cfg.Threads
// thread contexts; index them with Thread(i).
func New(spec *platform.Spec, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	if cfg.Threads > MaxThreads {
		panic(fmt.Sprintf("htm: %d threads exceeds engine maximum %d", cfg.Threads, MaxThreads))
	}
	space := cfg.Space
	switch {
	case space == nil:
		space = getSpace(alignedSpaceSize(cfg.SpaceSize))
	case space.Size() != alignedSpaceSize(cfg.SpaceSize):
		panic(fmt.Sprintf("htm: supplied space is %d bytes, config wants %d", space.Size(), cfg.SpaceSize))
	case space.Used() != 0:
		panic(fmt.Sprintf("htm: supplied space has %d bytes allocated; it must be fresh or Reset", space.Used()))
	}
	e := &Engine{
		plat:  spec,
		space: space,
		cfg:   cfg,
	}
	e.lineSize = spec.LineSize
	if spec.Kind == platform.BlueGeneQ && cfg.Mode == platform.ShortRunning {
		// In short-running mode only the L2 holds transactional data and
		// the directory can track at finer granularity (Section 2.1:
		// 8–128 bytes "based on certain conditions, such as the running
		// mode"). We model short-running as 64-byte detection.
		e.lineSize = 64
	}
	e.lineShift = uint(log2(e.lineSize))
	e.nLines = (e.space.Size() + e.lineSize - 1) / e.lineSize
	e.table = getLineTable(e.nLines)
	e.cores = make([]coreState, spec.Cores)
	if spec.SpecIDs > 0 {
		e.specPool = newSpecIDPool(spec.SpecIDs, e.scaledCost(spec.Costs.SpecIDHold))
	}
	e.loadCapLines = spec.LoadCapacity / e.lineSize
	e.storeCapLines = spec.StoreCapacity / e.lineSize
	e.sched = newVsched(cfg.Quantum, cfg.Threads)
	e.traced = cfg.Tracer != nil
	if cfg.Witness != nil {
		cfg.Witness.attach(e)
	}
	e.threads = make([]*Thread, cfg.Threads)
	for i := range e.threads {
		e.threads[i] = newThread(e, i)
	}
	return e
}

// alignedSpaceSize mirrors mem.NewSpace's size rounding (minimum 64 bytes,
// multiple of the word size) so New can validate a pooled Space against the
// configured size.
func alignedSpaceSize(n int) int {
	if n < 64 {
		n = 64
	}
	return (n + 7) &^ 7
}

func log2(n int) int {
	s := 0
	for 1<<uint(s) < n {
		s++
	}
	if 1<<uint(s) != n {
		panic(fmt.Sprintf("htm: line size %d is not a power of two", n))
	}
	return s
}

// Platform returns the processor model this engine implements.
func (e *Engine) Platform() *platform.Spec { return e.plat }

// Space returns the simulated memory arena (for setup-phase direct access).
func (e *Engine) Space() *mem.Space { return e.space }

// LineSize returns the effective conflict-detection granularity in bytes
// (mode-dependent on Blue Gene/Q).
func (e *Engine) LineSize() int { return e.lineSize }

// Thread returns thread context i. All contexts of an engine are driven from
// one goroutine at a time: inside Run, or one after another by the caller.
func (e *Engine) Thread(i int) *Thread { return e.threads[i] }

// scaledCost applies Config.CostScale to a platform cost.
func (e *Engine) scaledCost(c int) int {
	return int(float64(c) * e.cfg.CostScale)
}

// lockArbiter spin-acquires the constrained-transaction arbiter.
func (e *Engine) lockArbiter(t *Thread) {
	if !e.tryArbiter() {
		t.SpinUntil(8, e.tryArbiter)
	}
}

func (e *Engine) tryArbiter() bool {
	if e.arbiter {
		return false
	}
	e.arbiter = true
	return true
}

// unlockArbiter releases the constrained-transaction arbiter.
func (e *Engine) unlockArbiter() { e.arbiter = false }

// smtDivisor returns how many hardware threads of core are currently inside
// transactions, which divides that core's tracking resources (Section 2).
func (e *Engine) smtDivisor(core int) int {
	if e.cfg.DisableSMTSharing || e.plat.SMT <= 1 {
		return 1
	}
	d := int(e.cores[core].activeTx)
	if d < 1 {
		d = 1
	}
	return d
}

// Stats aggregates the per-thread statistics.
func (e *Engine) Stats() Stats {
	var total Stats
	for _, t := range e.threads {
		total.Add(&t.stats)
	}
	return total
}

// CapacityNeed returns the smallest capacity, in lines, under which every
// capacity check this engine has made would have passed: the largest
// (occupied+1)·smtDivisor over the load and store checks that had a line
// occupied. The capacity decides nothing but these checks, so a run whose
// need fits two capacities takes the same path under either; with no
// capacity abort it fits the engine's own. It spans the engine's life
// (ResetStats leaves it).
func (e *Engine) CapacityNeed() int {
	need := 0
	for _, t := range e.threads {
		need = max(need, t.capNeed)
	}
	return need
}

// ResetStats zeroes all per-thread statistics. Call between the warm-up and
// measured phases of an experiment, never while transactions are running.
func (e *Engine) ResetStats() {
	for _, t := range e.threads {
		t.stats = Stats{}
	}
}

// ResetClocks zeroes every thread's virtual clock; call at the start of a
// measured region (never while threads are scheduled).
func (e *Engine) ResetClocks() {
	for _, t := range e.threads {
		t.vclock = 0
	}
}

// SchedHandoffs returns how many threads the virtual scheduler popped off
// its ready heap: one per election plus one per SpinUntil poll run for a
// parked waiter — a cheap proxy for how finely the run interleaved. A
// waiter whose predicate has failed is not popped again until the election
// is decided (its polls are charged at once), so this is at most the count
// of the literal `for !try() { t.Pause(n) }` loop, and below it wherever
// threads queue on a lock.
func (e *Engine) SchedHandoffs() uint64 { return e.sched.handoffs }

// SchedSwitches returns how many of those elections resumed a different
// thread; the rest re-elected the elector or were SpinUntil polls run on a
// parked thread's behalf.
func (e *Engine) SchedSwitches() uint64 { return e.sched.switches }

// MaxClock returns the largest virtual clock across threads — the duration
// of the last measured region in cost units.
func (e *Engine) MaxClock() uint64 {
	var m uint64
	for _, t := range e.threads {
		if t.vclock > m {
			m = t.vclock
		}
	}
	return m
}

// Stats are the engine-level transaction counters. The software runtime
// (internal/tm) layers its own counters (lock-conflict reclassification,
// serialization ratio) on top.
type Stats struct {
	Begins  uint64
	Commits uint64
	Aborts  uint64
	// AbortsByReason counts aborts per engine Reason.
	AbortsByReason [NumReasons]uint64
	// TxLoads/TxStores count transactional accesses (for cost analyses).
	TxLoads  uint64
	TxStores uint64
	// SpecIDWaits counts Blue Gene/Q transactions that had to wait or
	// reclaim at begin because the speculation-ID pool was empty.
	SpecIDWaits uint64
	// MaxReadLines/MaxWriteLines track the largest transactional footprints
	// observed (distinct lines).
	MaxReadLines  int
	MaxWriteLines int
}

// Add accumulates o into s: counts sum, footprint maxima take the larger.
func (s *Stats) Add(o *Stats) {
	s.Begins += o.Begins
	s.Commits += o.Commits
	s.Aborts += o.Aborts
	for i := range s.AbortsByReason {
		s.AbortsByReason[i] += o.AbortsByReason[i]
	}
	s.TxLoads += o.TxLoads
	s.TxStores += o.TxStores
	s.SpecIDWaits += o.SpecIDWaits
	if o.MaxReadLines > s.MaxReadLines {
		s.MaxReadLines = o.MaxReadLines
	}
	if o.MaxWriteLines > s.MaxWriteLines {
		s.MaxWriteLines = o.MaxWriteLines
	}
}

// AbortRatio returns the paper's transaction-abort ratio: aborted
// transactions as a percentage of all transaction attempts (Section 5).
func (s *Stats) AbortRatio() float64 {
	if s.Begins == 0 {
		return 0
	}
	return 100 * float64(s.Aborts) / float64(s.Begins)
}

// rngFor derives a deterministic per-thread generator.
func (e *Engine) rngFor(slot int) *prng.Rand {
	return prng.Derive(e.cfg.Seed, slot)
}
