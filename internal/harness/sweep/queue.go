package sweep

import (
	"sort"
	"sync"
)

// job is one pooled cell together with the cache key Prewarm's dedupe
// computed for it, so nothing downstream hashes the cell again.
type job struct {
	Cell
	key string
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
// The sort is stable, so equal estimates keep plan order and the order is
// deterministic for a given estimator state.
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

// requeue puts a popped job back at the front. A crashing worker (heal.go)
// calls it before it dies, so the job is never out of the queue while no
// worker holds it: the restarted worker, or any other, pops it next.
func (q *queue) requeue(j job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.jobs = append([]job{j}, q.jobs...)
}
