package sweep

import (
	"math/rand"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"htmcmp/internal/cache"
	"htmcmp/internal/features"
	"htmcmp/internal/harness"
	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
	"htmcmp/internal/trace"
)

func measureCell(bench string, threads int) Cell {
	return Cell{Kind: Measure, Spec: harness.RunSpec{
		Platform:  platform.IntelCore,
		Benchmark: bench,
		Threads:   threads,
		Scale:     stamp.ScaleSim,
		Seed:      42,
		Repeats:   1,
	}}
}

// TestPriorRanksHeavyBenchmarksFirst: labyrinth, the sweep's longest STAMP
// benchmark, outranks ssca2.
func TestPriorRanksHeavyBenchmarksFirst(t *testing.T) {
	lab, ssca := measureCell("labyrinth", 4), measureCell("ssca2", 4)
	if cellPrior(lab) <= cellPrior(ssca) {
		t.Errorf("prior: labyrinth %.2f, ssca2 %.2f — labyrinth must rank first", cellPrior(lab), cellPrior(ssca))
	}
}

// TestFeatureCellPriors: the queue starts a 16-thread queue run (the longest
// cell of a test-scale sweep) before a 1-thread one and before an ordinary
// measured cell, so it is not left for the tail, and ranks a millisecond TLS
// run below a measured cell.
func TestFeatureCellPriors(t *testing.T) {
	clq := func(threads int) Cell {
		return Cell{Kind: CLQRun, CLQ: &features.CLQPoint{Mode: features.CLQConstrainedTM, Threads: threads}}
	}
	tls := Cell{Kind: TLSRun, TLS: &features.TLSPoint{Kernel: features.KernelSphinx3, Threads: 6}}
	ssca := measureCell("ssca2", 4)
	if cellPrior(tls) >= cellPrior(ssca) {
		t.Errorf("a millisecond TLS run (%.2f) is ranked above a measured cell (%.2f)", cellPrior(tls), cellPrior(ssca))
	}
	jobs := []job{{Cell: clq(1)}, {Cell: ssca}, {Cell: clq(16)}}
	ests := make([]float64, len(jobs))
	for i, j := range jobs {
		ests[i] = cellPrior(j.Cell)
	}
	if first, _ := newQueue(jobs, ests).pop(); first.CLQ == nil || first.CLQ.Threads != 16 {
		t.Errorf("the queue starts with %s, want the 16-thread queue run", first.Label())
	}
}

// TestRemainingSecondsWeightsPendingWork: the ETA scales the pass's elapsed
// time by prior weight, not by cell count. One labyrinth cell done in 12 s
// leaves another labyrinth and an ssca2 (1/12 of one): 13 s more, where a
// per-cell mean would say 24 s.
func TestRemainingSecondsWeightsPendingWork(t *testing.T) {
	lab, ssca := measureCell("labyrinth", 4), measureCell("ssca2", 4)
	s := New(Config{Jobs: 1})
	now := time.Now()
	s.total, s.start = 3, now.Add(-12*time.Second)
	s.totalWeight = 2*cellPrior(lab) + cellPrior(ssca)
	if _, ok := s.etaLocked(now); ok {
		t.Error("an ETA before any cell finished")
	}
	s.account(job{Cell: lab, key: "lab-1"}, outcome{}, true, cellsComputed)
	if eta, ok := s.etaLocked(now); !ok || eta != 13*time.Second {
		t.Errorf("eta = %v (ok %v), want 13s", eta, ok)
	}
	s.account(job{Cell: ssca, key: "ssca"}, outcome{}, true, cellsComputed)
	s.account(job{Cell: lab, key: "lab-2"}, outcome{}, true, cellsComputed)
	if eta, ok := s.etaLocked(now); ok {
		t.Errorf("eta = %v after the last cell, want none", eta)
	}
}

// TestQueueOrderIgnoresCacheHistory: how long cells took on an earlier pass
// over the same cache does not reorder the queue. The hook makes ssca2 slow
// and labyrinth instant, the opposite of the prior; a second, recomputing
// pass on the same store still starts cells in prior order.
func TestQueueOrderIgnoresCacheHistory(t *testing.T) {
	var mu sync.Mutex
	var started []string
	setRunCellHook(t, func(c Cell) (harness.Result, trace.Footprint, error) {
		mu.Lock()
		started = append(started, c.Label())
		mu.Unlock()
		if c.Spec.Benchmark == "ssca2" {
			time.Sleep(5 * time.Millisecond)
		}
		return harness.Result{}, trace.Footprint{}, nil
	})
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cells := []Cell{measureCell("ssca2", 1), measureCell("kmeans-low", 1), measureCell("labyrinth", 1),
		measureCell("ssca2", 2), measureCell("labyrinth", 2)}
	var want []string
	for _, i := range []int{2, 4, 0, 1, 3} {
		want = append(want, cells[i].Label())
	}
	for _, resume := range []bool{true, false} {
		started = nil
		if sum := New(Config{Jobs: 1, Cache: store, Resume: resume}).Prewarm(cells); sum.Computed != len(cells) {
			t.Fatalf("resume=%v: summary = %s, want every cell computed", resume, sum)
		}
		if !reflect.DeepEqual(started, want) {
			t.Errorf("resume=%v: cells started in order %v, want the prior order %v", resume, started, want)
		}
	}
}

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

// TestQueueConcurrentPopsExactlyOnce: with several workers popping at once,
// every job is popped exactly once.
func TestQueueConcurrentPopsExactlyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n, workers := 1+rng.Intn(60), 1+rng.Intn(6)
		jobs, ests := queueJobs(rng, n)
		q := newQueue(jobs, ests)
		pops := make([]atomic.Int32, n)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j, ok := q.pop(); ok; j, ok = q.pop() {
					idx, _ := strconv.Atoi(j.key)
					pops[idx].Add(1)
				}
			}()
		}
		wg.Wait()
		for i := range pops {
			if got := pops[i].Load(); got != 1 {
				t.Fatalf("trial %d (%d jobs, %d workers): job %d popped %d times, want 1", trial, n, workers, i, got)
			}
		}
	}
}

// TestPrewarmStartsStragglersFirst pins the queue's reason to exist: with two
// slow cells planned among eight cheap ones and two workers, the slow cells
// are the first two started (the prior ranks labyrinth highest), the
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
