package obs

import (
	"cmp"
	"slices"
)

// Tracer is one engine's append-only event log. Attach one with
// htm.Config.Tracer and every thread of that engine appends to it. An
// engine's threads all run on one goroutine, so appending needs no
// synchronisation, and the log grows with the run instead of dropping
// anything.
type Tracer struct {
	events []Event
}

// NewTracer returns an empty event log.
func NewTracer() *Tracer { return &Tracer{} }

// Record appends ev to the log.
func (t *Tracer) Record(ev Event) { t.events = append(t.events, ev) }

// Events returns a copy of the log ordered by (VClock, Thread). A thread's
// clock never goes backwards, so the stable sort keeps each thread's events
// in the order it recorded them.
func (t *Tracer) Events() []Event {
	out := slices.Clone(t.events)
	slices.SortStableFunc(out, func(a, b Event) int {
		if c := cmp.Compare(a.VClock, b.VClock); c != 0 {
			return c
		}
		return cmp.Compare(a.Thread, b.Thread)
	})
	return out
}
