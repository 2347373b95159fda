package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Sweep counters. The sinks in this package (JSONL, Perfetto, Aggregate)
// explain one run from its events; the Registry counts a whole sweep: the
// scheduler publishes into named counters as cells complete — its own
// outcomes, and each computed cell's engine and runtime counts from the
// harness.Result it holds — and the progress line, sweep.Summary and
// htmbench -metrics all read the same handles back.
//
// Nothing publishes from inside a simulated run: a transaction boundary
// counts into the thread's own htm.Stats and nowhere else, so the registry
// costs an engine nothing and cannot perturb fixed-seed results. Publishers
// hold pre-resolved handles (registration allocates, publication never
// does).

// Counter is a monotonically increasing metric. Safe for concurrent use;
// a read may race writes and see any point-in-time value.
type Counter struct {
	name string
	v    atomic.Uint64
}

// Name returns the full metric name (including any label set).
func (c *Counter) Name() string { return c.name }

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.v.Add(delta) }

// Inc is Add(1).
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Registry is a named collection of counters. Registration (Counter) takes
// a mutex and may allocate; it is meant for setup paths. The returned
// handles are stable for the registry's lifetime — publishers cache them
// and never touch the registry map again.
//
// A name is a base of [a-zA-Z_][a-zA-Z0-9_]* optionally followed by a
// {label="value"} set.
type Registry struct {
	mu  sync.Mutex
	cnt map[string]*Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{cnt: map[string]*Counter{}}
}

// Counter returns the counter registered under name, creating it at zero on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.cnt[name]
	if c == nil {
		c = &Counter{name: name}
		r.cnt[name] = c
	}
	return c
}

// Counters returns all registered counters sorted by name.
func (r *Registry) Counters() []*Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Counter, 0, len(r.cnt))
	for _, c := range r.cnt {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// CounterValues returns a point-in-time name → value copy of every counter.
func (r *Registry) CounterValues() map[string]uint64 {
	counters := r.Counters()
	out := make(map[string]uint64, len(counters))
	for _, c := range counters {
		out[c.name] = c.Value()
	}
	return out
}

// WriteCountersJSON writes every counter as one JSON object, name → value
// (encoding/json sorts map keys, so output is deterministic): the
// htmbench -metrics format.
func (r *Registry) WriteCountersJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.CounterValues())
}

// EngineMetrics is the pre-resolved handle set for a finished run's engine
// and runtime counts: transaction boundaries, aborts by reason, and
// adaptive-runtime mode switches by target mode. Reason and mode codes
// index the per-code handle slices; a code beyond the registered vocabulary
// folds into the last handle rather than allocating.
type EngineMetrics struct {
	Begins   *Counter
	Commits  *Counter
	Aborts   *Counter
	ByReason []*Counter // indexed by engine reason code
	ByMode   []*Counter // mode switches indexed by to-mode code
}

// NewEngineMetrics registers the engine counter set in reg: reasons and
// modes size the per-code handle slices (label values come from the
// registered reason/mode namers).
func NewEngineMetrics(reg *Registry, reasons, modes int) *EngineMetrics {
	m := &EngineMetrics{
		Begins:   reg.Counter("htm_tx_begins_total"),
		Commits:  reg.Counter("htm_tx_commits_total"),
		Aborts:   reg.Counter("htm_tx_aborts_total"),
		ByReason: make([]*Counter, max(reasons, 1)),
		ByMode:   make([]*Counter, max(modes, 1)),
	}
	for i := range m.ByReason {
		m.ByReason[i] = reg.Counter(`htm_tx_aborts_by_reason_total{reason="` + ReasonName(uint8(i)) + `"}`)
	}
	for i := range m.ByMode {
		m.ByMode[i] = reg.Counter(`tm_mode_switches_total{to="` + ModeName(uint8(i)) + `"}`)
	}
	return m
}

// Publish adds one finished run's totals: the three boundary counts, the
// aborts indexed by reason code and the mode switches indexed by to-mode
// code (nil when the run had no adaptive runtime).
func (m *EngineMetrics) Publish(begins, commits, aborts uint64, byReason, switchesTo []uint64) {
	m.Begins.Add(begins)
	m.Commits.Add(commits)
	m.Aborts.Add(aborts)
	addByCode(m.ByReason, byReason)
	addByCode(m.ByMode, switchesTo)
}

// addByCode adds counts[code] to the code's handle, the last handle
// standing in for every code past the registered vocabulary.
func addByCode(handles []*Counter, counts []uint64) {
	for code, n := range counts {
		if n != 0 {
			handles[min(code, len(handles)-1)].Add(n)
		}
	}
}
