package sweep

import (
	"sort"
	"sync"

	"htmcmp/internal/cache"
	"htmcmp/internal/features"
)

// job is one cell together with its canonical bytes (Cell.canonical) and
// the cache key they hash to, so nothing downstream encodes or hashes the
// cell again.
type job struct {
	Cell
	key   string
	canon []byte
}

// newJob keys the cell by its canonical bytes.
func newJob(c Cell, canon []byte) job {
	return job{c, cache.KeyOf(ResultsVersion, canon), canon}
}

// queue is a Prewarm pass's work list: every job, longest expected first,
// behind one mutex. Each idle worker pops the front, which is LPT list
// scheduling (makespan within 4/3 of optimal on identical machines) with no
// assignment to repair: a wrong estimate costs nothing, because whichever
// worker is free next takes the next job. The order only affects wall clock;
// every cell is independently seeded and deterministic.
type queue struct {
	mu   sync.Mutex
	jobs []job
}

// newQueue orders jobs by descending estimate (ests is parallel to jobs).
// The sort is stable, so equal estimates keep plan order and the order is a
// function of the plan alone.
func newQueue(jobs []job, ests []float64) *queue {
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ests[order[a]] > ests[order[b]] })
	q := &queue{jobs: make([]job, len(jobs))}
	for i, idx := range order {
		q.jobs[i] = jobs[idx]
	}
	return q
}

// pop takes the front job; false means the queue is empty.
func (q *queue) pop() (job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.jobs) == 0 {
		return job{}, false
	}
	j := q.jobs[0]
	q.jobs = q.jobs[1:]
	return j, true
}

// benchWeight is the relative cost per benchmark that puts the known-heavy
// STAMP benchmarks at the front of the queue. Values are coarse ratios from
// the checked-in results_sim.txt sweep; precision is irrelevant, ordering is
// what matters.
var benchWeight = map[string]float64{
	"labyrinth": 12,
	"yada":      6,
	"bayes":     4,
	"genome":    2,
}

// featureThreads is the thread count of a CLQRun/TLSRun cell's point.
func featureThreads(c Cell) int {
	switch {
	case c.CLQ != nil:
		return c.CLQ.Threads
	case c.TLS != nil:
		return c.TLS.Threads
	}
	return 0
}

// cellPrior is the relative cost of one cell: the queue's order key and the
// unit of the progress line's remaining work. Nothing is learned from
// measured durations, so the order is the same on every run of a plan.
func cellPrior(c Cell) float64 {
	switch c.Kind {
	case CLQRun:
		// Cost grows with the thread count and not with -scale: at test
		// scale a 16-thread run is the sweep's longest cell, and an
		// OptRetryTM cell is a retry-count search of two or three runs.
		w := 2 * float64(featureThreads(c))
		if c.CLQ != nil && c.CLQ.Mode == features.CLQOptRetryTM {
			w *= 3
		}
		return w
	case TLSRun:
		return 0.1 * float64(1+featureThreads(c))
	}
	bench := c.Spec.Benchmark
	if c.Kind == Footprint {
		bench = c.Bench
	}
	w, ok := benchWeight[bench]
	if !ok {
		w = 1
	}
	if c.Kind == TuneMeasure {
		// A tune cell is a whole grid search of measured runs.
		w *= 6
	}
	// Repeats multiply runs directly.
	if r := c.Spec.Repeats; r > 1 {
		w *= float64(r)
	}
	return w
}
