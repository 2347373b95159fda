package sweep

import (
	"sync"

	"htmcmp/internal/features"
	"htmcmp/internal/harness"
	"htmcmp/internal/platform"
	"htmcmp/internal/trace"
)

// Plan records the cells an experiment requests without executing any of
// them. Running an experiment with a Plan as its Exec/Collector is the
// planning pass: experiment control flow never depends on measured values
// (the loops range over static benchmark/platform/thread lists), so the
// recorded list is exactly the set of cells the later render pass will ask
// for. Requests receive zero-valued results, so the tables of the planning
// pass hold 0/0 ratios and are discarded.
//
// Plan is safe for concurrent use, though experiments plan serially today.
type Plan struct {
	requests
	mu    sync.Mutex
	cells []Cell
	seen  map[string]bool // by canonical bytes (Cell.canonical)
}

// NewPlan returns an empty Plan.
func NewPlan() *Plan {
	p := &Plan{seen: map[string]bool{}}
	p.requests.get = func(c Cell) outcome { p.add(c); return outcome{} }
	return p
}

func (p *Plan) add(c Cell) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if canon, err := c.canonical(); err == nil {
		if p.seen[string(canon)] {
			return
		}
		p.seen[string(canon)] = true
	}
	p.cells = append(p.cells, c)
}

// Cells returns the recorded cells, deduplicated, in first-request order.
func (p *Plan) Cells() []Cell {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Cell, len(p.cells))
	copy(out, p.cells)
	return out
}

// requests turns what experiments ask for — as harness.Exec, trace.Collector
// and features.Exec — into Cells and hands each to get. Plan and Scheduler
// both embed it, so the cell a request is planned as is by construction the
// cell it is later served from.
type requests struct{ get func(Cell) outcome }

// Measure implements harness.Exec.
func (r requests) Measure(spec harness.RunSpec, tune bool) (harness.Result, error) {
	kind := Measure
	if tune {
		kind = TuneMeasure
	}
	o := r.get(Cell{Kind: kind, Spec: spec})
	return o.res, o.err
}

// Collect implements trace.Collector.
func (r requests) Collect(bench string, k platform.Kind, opts trace.Options) (trace.Footprint, error) {
	o := r.get(Cell{Kind: Footprint, Bench: bench, Platform: k, Scale: opts.Scale, Seed: opts.Seed})
	return o.fp, o.err
}

// CLQ implements features.Exec.
func (r requests) CLQ(p features.CLQPoint) (features.PointResult, error) {
	return r.get(Cell{Kind: CLQRun, CLQ: &p}).point()
}

// TLS implements features.Exec.
func (r requests) TLS(p features.TLSPoint) (features.PointResult, error) {
	return r.get(Cell{Kind: TLSRun, TLS: &p}).point()
}
