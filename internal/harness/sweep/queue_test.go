package sweep

import (
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"htmcmp/internal/harness"
	"htmcmp/internal/trace"
)

// queueJobs builds n jobs keyed by their plan index, with estimates drawn
// from a handful of values so that ties are common.
func queueJobs(rng *rand.Rand, n int) ([]job, []float64) {
	jobs := make([]job, n)
	ests := make([]float64, n)
	for i := range jobs {
		jobs[i] = job{key: strconv.Itoa(i)}
		ests[i] = float64(rng.Intn(5))
	}
	return jobs, ests
}

// TestQueuePopOrder: pops come out longest estimate first, and jobs with
// equal estimates in plan order.
func TestQueuePopOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		jobs, ests := queueJobs(rng, rng.Intn(40))
		q := newQueue(jobs, ests)
		prev := -1
		for n := 0; ; n++ {
			j, ok := q.pop()
			if !ok {
				if n != len(jobs) {
					t.Fatalf("trial %d: popped %d jobs of %d", trial, n, len(jobs))
				}
				break
			}
			idx, _ := strconv.Atoi(j.key)
			if prev >= 0 && (ests[idx] > ests[prev] || ests[idx] == ests[prev] && idx < prev) {
				t.Fatalf("trial %d: job %d (est %v) popped after job %d (est %v)", trial, idx, ests[idx], prev, ests[prev])
			}
			prev = idx
		}
	}
}

// TestQueueConcurrentPopsExactlyOnce: with several workers popping at once
// and one of them putting a job back mid-drain (the worker-crash path), every
// job is popped exactly once and the requeued one exactly twice.
func TestQueueConcurrentPopsExactlyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n, workers := 1+rng.Intn(60), 1+rng.Intn(6)
		jobs, ests := queueJobs(rng, n)
		q := newQueue(jobs, ests)
		pops := make([]atomic.Int32, n)
		var total atomic.Int32
		requeued := atomic.Int32{}
		requeued.Store(-1)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					j, ok := q.pop()
					if !ok {
						return
					}
					idx, _ := strconv.Atoi(j.key)
					pops[idx].Add(1)
					if total.Add(1) == int32(n/2+1) {
						requeued.Store(int32(idx))
						q.requeue(j)
					}
				}
			}()
		}
		wg.Wait()
		for i := range pops {
			want := int32(1)
			if int32(i) == requeued.Load() {
				want = 2
			}
			if got := pops[i].Load(); got != want {
				t.Fatalf("trial %d (%d jobs, %d workers): job %d popped %d times, want %d", trial, n, workers, i, got, want)
			}
		}
		if requeued.Load() < 0 {
			t.Fatalf("trial %d: no job was requeued", trial)
		}
	}
}

// TestPrewarmStartsStragglersFirst pins the queue's reason to exist: with two
// slow cells planned among eight cheap ones and two workers, the slow cells
// are the first two started (a cold estimator ranks labyrinth highest), the
// worker that finishes first keeps popping rather than idling, and every cell
// executes exactly once.
func TestPrewarmStartsStragglersFirst(t *testing.T) {
	var mu sync.Mutex
	runs := map[string]int{}
	var started []string
	setRunCellHook(t, func(c Cell) (harness.Result, trace.Footprint, error) {
		mu.Lock()
		runs[c.Label()]++
		started = append(started, c.Spec.Benchmark)
		mu.Unlock()
		if c.Spec.Benchmark == "labyrinth" {
			time.Sleep(30 * time.Millisecond)
		}
		return harness.Result{}, trace.Footprint{}, nil
	})

	var cells []Cell
	for _, th := range []int{1, 2, 3, 4} {
		cells = append(cells, measureCell("ssca2", th), measureCell("kmeans-low", th))
	}
	cells = append(cells, measureCell("labyrinth", 2), measureCell("labyrinth", 4))
	s := New(Config{Jobs: 2})
	sum := s.Prewarm(cells)
	if sum.Cells != len(cells) || sum.Computed != len(cells) || sum.Cached != 0 || sum.Failed != 0 {
		t.Fatalf("summary = %s", sum)
	}
	for _, c := range cells {
		if runs[c.Label()] != 1 {
			t.Errorf("cell %s ran %d times, want exactly once", c.Label(), runs[c.Label()])
		}
	}
	if started[0] != "labyrinth" || started[1] != "labyrinth" {
		t.Errorf("cells started in order %v, want both labyrinth cells first", started)
	}
}
