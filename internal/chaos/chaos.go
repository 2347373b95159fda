// Package chaos is the sweep's deterministic fault injector. The paper's
// platforms abort transactions for reasons that have
// nothing to do with the program — BG/Q and zEC12 kill transactions when an
// external interrupt lands mid-flight, zEC12 suffers transient
// "cache-fetch-related" aborts, POWER8's SMT sharing shrinks the effective
// footprint budget — and a runtime that only counts those events has not
// demonstrated it can survive them. This package injects them on purpose.
//
// Everything is derived from one seed. Whether a given sweep cell is
// afflicted by a given fault class is a pure hash of (seed, class, cell
// key), independent of scheduling order, so two runs of the same sweep
// inject exactly the same faults into exactly the same cells no matter how
// the worker pool interleaves. Within an afflicted engine run, per-thread
// Streams (derived like the engine's own per-thread PRNGs) decide at each
// opportunity — a commit point, a capacity check, an STM load — whether the
// fault fires, so an engine run under the virtual-time scheduler is itself
// reproducible.
//
// The injector follows the same zero-overhead discipline as the tracer and
// the witness: every hook is reachable only behind a nil check, a
// disabled injector costs one pointer comparison, and injection is absent
// from cache keys, so golden determinism holds bit-for-bit with chaos off.
package chaos

import (
	"fmt"
	"sync/atomic"

	"htmcmp/internal/prng"
)

// Class identifies one injectable fault class. The engine-level classes
// model the paper's abort taxonomy; CacheCorrupt models the torn file a
// resumed sweep must survive. The values feed affliction hashes, so the
// engine classes keep theirs.
type Class uint8

const (
	// SpuriousAbort is an interrupt-style transient abort injected at the
	// commit boundary (BG/Q and zEC12 abort on external interrupts; the
	// paper's Section 2 "other" category).
	SpuriousAbort Class = iota
	// CapacityFault forces a persistent capacity overflow at a capacity
	// check even though the footprint fits (modelling SMT neighbours or
	// way-conflict pressure shrinking the real budget).
	CapacityFault
	// STMContention bumps the NOrec global sequence lock under a software
	// transaction's feet, forcing value revalidation (the cost NOrec pays
	// whenever any writer commits).
	STMContention
	// ModeThrash forces the adaptive controller into a spurious steady-mode
	// transition on a commit, modelling a mis-tuned or flapping controller.
	ModeThrash
	// CacheCorrupt tears the cell's on-disk cache record after it is
	// written (truncation, garbage bytes, or a stale record), so a resumed
	// sweep must detect, evict and recompute it.
	CacheCorrupt

	NumClasses
)

// String returns the short identifier used in reports and counters.
func (c Class) String() string {
	switch c {
	case SpuriousAbort:
		return "spurious-abort"
	case CapacityFault:
		return "capacity-fault"
	case STMContention:
		return "stm-contention"
	case ModeThrash:
		return "mode-thrash"
	case CacheCorrupt:
		return "cache-corrupt"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Config parameterises an Injector. The zero value injects nothing; use
// DefaultConfig for a test-scale mix of every class.
type Config struct {
	// Seed drives every affliction and roll decision.
	Seed uint64
	// Rates[class] is the probability that one cell is afflicted by the
	// class at all (decided by a pure hash of seed/class/key).
	Rates [NumClasses]float64
	// OpRates[class] is the per-opportunity probability that an afflicted
	// engine run fires the fault at one injection point (a commit, a
	// capacity check, an STM load, a controller commit).
	OpRates [NumClasses]float64
}

// DefaultConfig returns a test-scale configuration that exercises every
// fault class with enough probability to observe recovery in a small sweep.
func DefaultConfig(seed uint64) Config {
	cfg := Config{Seed: seed}
	for c := Class(0); c < NumClasses; c++ {
		cfg.Rates[c] = 0.25
	}
	cfg.OpRates[SpuriousAbort] = 0.02
	cfg.OpRates[CapacityFault] = 0.0005
	cfg.OpRates[STMContention] = 0.01
	cfg.OpRates[ModeThrash] = 0.05
	return cfg
}

// Injector decides afflictions and counts fired injections. It is safe for
// concurrent use; a nil *Injector is valid everywhere and injects nothing.
type Injector struct {
	cfg   Config
	fired [NumClasses]atomic.Uint64
}

// New builds an injector from cfg.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg}
}

// Seed returns the injector's seed.
func (in *Injector) Seed() uint64 { return in.cfg.Seed }

// fnv64 is FNV-1a over s — a stable, dependency-free string hash for
// deriving per-cell streams.
func fnv64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// afflictionUnit maps (seed, class, key) to a uniform value in [0, 1) via
// one splitmix64 step — a pure function, so affliction decisions are
// independent of scheduling order.
func afflictionUnit(seed uint64, class Class, key string) float64 {
	sm := prng.NewSplitMix64(seed ^ fnv64(key) ^ (uint64(class)+1)*0x9e3779b97f4a7c15)
	return float64(sm.Next()>>11) / (1 << 53)
}

// Afflicts reports whether the cell identified by key is afflicted by
// class. Deterministic in (seed, class, key).
func (in *Injector) Afflicts(class Class, key string) bool {
	if in == nil {
		return false
	}
	p := in.cfg.Rates[class]
	if p <= 0 {
		return false
	}
	return afflictionUnit(in.cfg.Seed, class, key) < p
}

// Note counts one fired injection of class (used by CacheCorrupt, whose
// firing is the affliction itself).
func (in *Injector) Note(class Class) {
	if in != nil {
		in.fired[class].Add(1)
	}
}

// NoteN counts n fired injections of class at once (used to fold a child
// injector's engine-level counts back into its parent for the chaos report).
func (in *Injector) NoteN(class Class, n uint64) {
	if in != nil && n > 0 {
		in.fired[class].Add(n)
	}
}

// Fired returns how many injections of class have fired.
func (in *Injector) Fired(class Class) uint64 {
	if in == nil {
		return 0
	}
	return in.fired[class].Load()
}

// TotalFired returns the total fired injections across all classes.
func (in *Injector) TotalFired() uint64 {
	if in == nil {
		return 0
	}
	var n uint64
	for c := Class(0); c < NumClasses; c++ {
		n += in.fired[c].Load()
	}
	return n
}

// Counts returns the fired-injection counters keyed by class name (for the
// chaos report).
func (in *Injector) Counts() map[string]uint64 {
	out := map[string]uint64{}
	if in == nil {
		return out
	}
	for c := Class(0); c < NumClasses; c++ {
		if n := in.fired[c].Load(); n > 0 {
			out[c.String()] = n
		}
	}
	return out
}

// EngineFor derives the engine-level child injector for the cell identified
// by key: only the engine classes that afflict the cell keep their
// per-opportunity rates. Returns nil when the cell is clean — the engine
// then pays exactly one nil check per hook, same as chaos off. The child's
// fired counters tell the sweep whether injection actually happened during
// the run (an afflicted run may roll no faults at all).
func (in *Injector) EngineFor(key string) *Injector {
	if in == nil {
		return nil
	}
	child := Config{Seed: prng.NewSplitMix64(in.cfg.Seed ^ fnv64(key)).Next()}
	any := false
	for c := SpuriousAbort; c <= ModeThrash; c++ {
		if in.Afflicts(c, key) {
			child.OpRates[c] = in.cfg.OpRates[c]
			any = true
		}
	}
	if !any {
		return nil
	}
	return New(child)
}

// Stream is a deterministic per-context roll source: one per engine thread
// (id = slot) or per adaptive site (id = site id). A nil *Stream is valid
// and never fires.
type Stream struct {
	in  *Injector
	rng *prng.Rand
}

// Stream derives the injector's roll stream for context id.
func (in *Injector) Stream(id int) *Stream {
	if in == nil {
		return nil
	}
	return &Stream{in: in, rng: prng.Derive(in.cfg.Seed, id)}
}

// Roll decides whether the fault class fires at this opportunity, counting
// it when it does. Classes with a zero op-rate never touch the PRNG, so
// enabling one class does not perturb another's stream.
func (s *Stream) Roll(class Class) bool {
	if s == nil {
		return false
	}
	p := s.in.cfg.OpRates[class]
	if p <= 0 || !s.rng.Bernoulli(p) {
		return false
	}
	s.in.fired[class].Add(1)
	return true
}
