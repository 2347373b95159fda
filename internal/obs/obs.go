// Package obs is the engine's event stream: transaction event tracing and
// abort attribution. Counts are not kept here: each thread counts into its
// own htm.Stats, and a sweep sums the Stats its cells carry
// (sweep.Scheduler.Metrics).
//
// The paper's contribution is *explaining* HTM behaviour — abort-ratio
// breakdowns by cause (Figure 3), footprint-vs-capacity plots (Figures
// 10/11) — and this package generalises the engine's quiescent-only
// aggregate counters into a per-transaction event stream. The engine
// (internal/htm) records one fixed-size Event at each transaction boundary
// (begin, commit, abort) into the engine's append-only log (Tracer); sinks
// in this package consume the stream: a JSONL writer, a Chrome/Perfetto
// trace_event exporter, and an in-memory aggregator producing
// abort-attribution reports.
//
// Cost contract: tracing is off by default and costs exactly one nil check
// per transaction boundary when disabled — the per-access hot path
// (txLoad/txStore) is never touched. Observation must not perturb the
// simulation: recording an event advances no virtual clock, so fixed-seed
// results are bit-identical with tracing on and off (pinned by
// internal/tm's golden determinism test).
//
// This package is imported by internal/htm and therefore must not import
// it; abort reasons travel as raw uint8 codes and are named through the
// namer internal/htm registers at init. Execution modes are named by
// internal/adapt, which imports nothing of the engine.
package obs

import (
	"strconv"

	"htmcmp/internal/adapt"
)

// Kind discriminates transaction-boundary events.
type Kind uint8

const (
	// KindBegin marks a transaction attempt starting.
	KindBegin Kind = iota
	// KindCommit marks a successful commit.
	KindCommit
	// KindAbort marks an abort (reason in Event.Reason).
	KindAbort
	// KindModeSwitch marks an adaptive-runtime steady-mode transition of a
	// transaction site: Aborter carries the from-mode code, Reason the
	// to-mode code (named through the mode namer), Line the site ID.
	KindModeSwitch

	numKinds
)

// String returns the JSONL name of the kind.
func (k Kind) String() string {
	switch k {
	case KindBegin:
		return "begin"
	case KindCommit:
		return "commit"
	case KindAbort:
		return "abort"
	case KindModeSwitch:
		return "mode"
	}
	return "unknown"
}

// NoLine is the Event.Line sentinel for events with no associated
// conflict-detection line (begins, commits, non-conflict aborts).
const NoLine = ^uint32(0)

// NoThread is the Event.Aborter sentinel when no other thread caused the
// event.
const NoThread = int16(-1)

// Event is one fixed-size transaction-boundary record. All fields are plain
// values, so the log holds Events inline.
type Event struct {
	// Kind is the boundary: begin, commit or abort.
	Kind Kind
	// Thread is the hardware-thread slot the transaction ran on.
	Thread uint8
	// Reason is the engine abort-reason code (htm.Reason); meaningful for
	// KindAbort only.
	Reason uint8
	// Retry is the attempt's retry depth: consecutive aborts on this thread
	// since its last commit (0 = first attempt), saturating at 65535.
	Retry uint16
	// Aborter is the thread slot that doomed this transaction, or NoThread
	// for self-inflicted aborts (capacity, explicit, cache-fetch).
	Aborter int16
	// Line is the conflict-detection line the abort was attributed to, or
	// NoLine when the abort has no line (capacity, explicit, ...).
	Line uint32
	// ReadLines and WriteLines are the transaction footprint in distinct
	// lines at commit/abort time (reads exclude prefetched lines).
	ReadLines  uint32
	WriteLines uint32
	// VClock is the event timestamp: the thread's virtual clock in cost
	// units.
	VClock uint64
	// Dur is the virtual time since the matching begin (commit/abort only).
	Dur uint64
}

// reasonNamer maps engine abort-reason codes to names. internal/htm
// registers the real namer from its init, so any program linking the engine
// gets symbolic reasons; the fallback keeps this package self-contained.
var reasonNamer = func(code uint8) string {
	return "reason-" + strconv.Itoa(int(code))
}

// SetReasonNamer installs the abort-reason naming function. Called from
// internal/htm's init; not safe for use after goroutines start tracing.
func SetReasonNamer(f func(code uint8) string) {
	if f != nil {
		reasonNamer = f
	}
}

// ReasonName returns the symbolic name of an abort-reason code.
func ReasonName(code uint8) string { return reasonNamer(code) }

// ModeName returns the symbolic name of an adaptive-runtime execution-mode
// code (the internal/adapt Mode a KindModeSwitch event carries).
func ModeName(code uint8) string { return adapt.Mode(code).String() }
