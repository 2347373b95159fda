// Package stamp contains Go ports of the eight STAMP benchmarks (Minh et
// al., IISWC 2008) — bayes, genome, intruder, kmeans, labyrinth, ssca2,
// vacation and yada — running on the simulated-HTM substrate.
//
// The ports preserve what matters for HTM behaviour: the transactional
// structure (what is inside each critical section), the data-structure
// choices (including the TM-unfriendly originals), memory layout (padding
// and alignment), and contention profiles. Input sizes are scaled so a full
// four-platform sweep runs in minutes on the software engine; Scale selects
// the size. Where the paper modified a benchmark (Section 4), both the
// Original and Modified variants are implemented and selected by Variant.
//
// Two of the ports are structural simplifications, recorded here and in
// DESIGN.md: yada replaces exact Delaunay geometry with a synthetic mesh
// whose cavity-size distribution matches the original's transaction
// footprints, and bayes replaces exact Bayesian scoring with a deterministic
// pseudo-score; both keep the original transaction shapes (cavity expansion
// and retriangulation; acyclicity checks and edge insertion).
package stamp

import (
	"fmt"

	"htmcmp/internal/htm"
	"htmcmp/internal/tm"
)

// Runner executes atomic critical sections on behalf of one worker thread.
// The three implementations — sequential, transactional (Figure 1 runtime)
// and HLE — let one benchmark implementation serve as its own baseline and
// as the measured subject.
type Runner interface {
	// Atomic runs body as one atomic critical section.
	Atomic(body func(t *htm.Thread))
	// Thread returns the hardware thread this runner executes on.
	Thread() *htm.Thread
}

// SeqRunner executes critical sections directly with no synchronisation —
// the "serial non-HTM execution" baseline of Section 5. It is only safe
// single-threaded.
type SeqRunner struct{ T *htm.Thread }

// Atomic runs body directly.
func (r SeqRunner) Atomic(body func(t *htm.Thread)) { body(r.T) }

// Thread returns the underlying hardware thread.
func (r SeqRunner) Thread() *htm.Thread { return r.T }

// TMRunner executes critical sections through the transactional runtime
// with global-lock fallback.
type TMRunner struct{ X *tm.Executor }

// Atomic runs body via the Figure 1 retry mechanism.
func (r TMRunner) Atomic(body func(t *htm.Thread)) { r.X.Run(body) }

// Thread returns the underlying hardware thread.
func (r TMRunner) Thread() *htm.Thread { return r.X.T }

// STMRunner executes critical sections as NOrec software transactions — the
// STM baseline the paper contrasts HTM against.
type STMRunner struct{ X *tm.Executor }

// Atomic runs body as a software transaction, retrying until commit.
func (r STMRunner) Atomic(body func(t *htm.Thread)) { r.X.RunSTM(body) }

// Thread returns the underlying hardware thread.
func (r STMRunner) Thread() *htm.Thread { return r.X.T }

// LockRunner executes every critical section irrevocably under the global
// lock — the single-global-lock baseline the differential verifier
// (internal/verify, harness.Verify) cross-checks transactional executions
// against.
type LockRunner struct{ X *tm.Executor }

// Atomic runs body under the global lock with no speculation.
func (r LockRunner) Atomic(body func(t *htm.Thread)) { r.X.RunIrrevocable(body) }

// Thread returns the underlying hardware thread.
func (r LockRunner) Thread() *htm.Thread { return r.X.T }

// HLERunner executes critical sections with hardware lock elision (Intel).
type HLERunner struct{ X *tm.Executor }

// Atomic runs body via HLE: one elided attempt, then the real lock.
func (r HLERunner) Atomic(body func(t *htm.Thread)) { r.X.RunHLE(body) }

// Thread returns the underlying hardware thread.
func (r HLERunner) Thread() *htm.Thread { return r.X.T }

// Scale selects the input size.
type Scale int

const (
	// ScaleTest is tiny: for unit tests.
	ScaleTest Scale = iota
	// ScaleSim matches the relative footprint regime of STAMP's simulator
	// inputs; the default for the figure-regeneration harness.
	ScaleSim
	// ScaleFull is the largest input, for longer experiment runs.
	ScaleFull
)

// String returns the scale name.
func (s Scale) String() string {
	switch s {
	case ScaleTest:
		return "test"
	case ScaleSim:
		return "sim"
	case ScaleFull:
		return "full"
	}
	return "?"
}

// ParseScale inverts String.
func ParseScale(name string) (Scale, error) {
	for _, s := range []Scale{ScaleTest, ScaleSim, ScaleFull} {
		if name == s.String() {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown scale %q (test, sim, full)", name)
}

// Variant selects the original STAMP code shape or the paper's Section 4
// modification.
type Variant int

const (
	// Modified applies the paper's fixes (hash tables for unordered sets,
	// cache-line-aligned clusters, tuned chunk sizes).
	Modified Variant = iota
	// Original is STAMP 0.9.10 behaviour.
	Original
)

// Config parameterises one benchmark instance.
type Config struct {
	Scale   Scale
	Variant Variant
	Seed    uint64
	// ChunkStep1 overrides genome's per-transaction insertion chunk (the
	// compile-time parameter the paper tunes per platform: 9 for Blue
	// Gene/Q, 2 for the others). Zero selects the benchmark default.
	ChunkStep1 int
}

// Benchmark is one STAMP program instance. The lifecycle is:
// Setup (single-threaded, untimed) → Run (parallel, the timed region of
// interest) → Validate (single-threaded consistency check).
type Benchmark interface {
	// Setup builds the input state in simulated memory using t (non-tx).
	Setup(t *htm.Thread)
	// Run executes the benchmark's region of interest on the given
	// runners, one simulated thread per runner, and returns when done.
	// With a single SeqRunner it is the sequential baseline.
	Run(runners []Runner)
	// Validate checks output consistency after Run.
	Validate(t *htm.Thread) error
	// Units reports completed work items (throughput denominator).
	Units() int
}

// DynamicWork is an optional Benchmark extension for programs whose total
// work is discovered during execution rather than fixed by the input:
// processing one item may spawn new items, so the Units count legitimately
// depends on the interleaving. Cross-mode verification must not require
// equal Units for such benchmarks; Validate carries the full consistency
// contract instead.
type DynamicWork interface {
	// UnitsDynamic reports that Units varies across correct executions.
	UnitsDynamic() bool
}

// Factory creates a fresh Benchmark for a configuration.
type Factory func(cfg Config) Benchmark

var registry = map[string]Factory{}

// register adds a factory; benchmarks self-register in their init.
func register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic("stamp: duplicate benchmark " + name)
	}
	registry[name] = f
}

// New creates benchmark name with cfg; it returns an error for unknown
// names.
func New(name string, cfg Config) (Benchmark, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("stamp: unknown benchmark %q", name)
	}
	return f(cfg), nil
}

// Names returns every registered benchmark name in the paper's figure
// order: the registry holds exactly the paper's ten.
func Names() []string {
	return []string{
		"bayes", "genome", "intruder", "kmeans-high", "kmeans-low",
		"labyrinth", "ssca2", "vacation-high", "vacation-low", "yada",
	}
}

// ModifiedNames returns the benchmarks the paper's Section 4 modified
// (Figure 4's x-axis).
func ModifiedNames() []string {
	return []string{"genome", "intruder", "kmeans-high", "kmeans-low", "vacation-high", "vacation-low"}
}

// NewBarrier returns a scheduler-aware cyclic barrier for all runners — the
// benchmarks' phase-structure primitive (kmeans iterations, genome phases).
// In virtual-time engines, parties resume with synchronised clocks.
func NewBarrier(runners []Runner) *htm.Barrier {
	return runners[0].Thread().Engine().NewBarrier(len(runners))
}

// visited is a set over [0, n) that empties in O(1): v is a member when
// marks[v] == epoch, and reset moves to a fresh epoch. Transaction bodies
// reset one at the top of every attempt instead of building a map.
type visited struct {
	marks []uint32
	epoch uint32
}

func newVisited(n int) visited { return visited{marks: make([]uint32, n)} }

// reset empties the set.
func (s *visited) reset() {
	s.epoch++
	if s.epoch == 0 { // wrapped: any epoch may be stale in marks
		clear(s.marks)
		s.epoch = 1
	}
}

func (s *visited) has(v int) bool { return s.marks[v] == s.epoch }

func (s *visited) add(v int) { s.marks[v] = s.epoch }

// runWorkers runs fn(tid, runner) for every runner as one scheduled region
// of their engine and waits. Runner i must execute on the engine's thread i.
// Each fn keeps its transaction bodies' Go-side scratch in its own locals:
// bodies yield mid-walk to the region's other threads, so scratch shared
// between threads would be overwritten under them.
func runWorkers(runners []Runner, fn func(tid int, r Runner)) {
	runners[0].Thread().Engine().Run(len(runners), func(tid int, t *htm.Thread) {
		if runners[tid].Thread() != t {
			panic(fmt.Sprintf("stamp: runner %d is not on its engine's thread %d", tid, tid))
		}
		fn(tid, runners[tid])
	})
}
