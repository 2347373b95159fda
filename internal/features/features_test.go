package features

import (
	"reflect"
	"sync"
	"testing"

	"htmcmp/internal/htm"
	"htmcmp/internal/platform"
)

func clqEngine(t *testing.T, threads int) *htm.Engine {
	t.Helper()
	return htm.New(platform.New(platform.ZEC12), htm.Config{
		Threads: threads, SpaceSize: 16 << 20, Seed: 9, CostScale: 0,
		DisableCacheFetchAborts: true,
	})
}

func TestCLQLockFreeFIFO(t *testing.T) {
	e := clqEngine(t, 1)
	th := e.Thread(0)
	q := NewCLQ(th)
	for i := uint64(1); i <= 50; i++ {
		q.EnqueueLockFree(th, i)
	}
	if n := q.Len(th); n != 50 {
		t.Fatalf("Len = %d", n)
	}
	for i := uint64(1); i <= 50; i++ {
		v, ok := q.DequeueLockFree(th)
		if !ok || v != i {
			t.Fatalf("Dequeue = %d,%v want %d", v, ok, i)
		}
	}
	if _, ok := q.DequeueLockFree(th); ok {
		t.Error("dequeue of empty queue succeeded")
	}
}

func TestCLQModesPreserveElements(t *testing.T) {
	// Mixed-mode concurrent use: total enqueued == dequeued + remaining.
	e := clqEngine(t, 4)
	q := NewCLQ(e.Thread(0))
	const perThread = 300
	var deq int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for tid := 0; tid < 4; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			th := e.Thread(tid)
			local := int64(0)
			for i := 0; i < perThread; i++ {
				switch tid % 4 {
				case 0:
					q.EnqueueLockFree(th, 1)
					if _, ok := q.DequeueLockFree(th); ok {
						local++
					}
				case 1:
					q.EnqueueTM(th, 1, 0)
					if _, ok := q.DequeueTM(th, 0); ok {
						local++
					}
				case 2:
					q.EnqueueTM(th, 1, 8)
					if _, ok := q.DequeueTM(th, 8); ok {
						local++
					}
				default:
					q.EnqueueConstrained(th, 1)
					if _, ok := q.DequeueConstrained(th); ok {
						local++
					}
				}
			}
			mu.Lock()
			deq += local
			mu.Unlock()
		}(tid)
	}
	wg.Wait()
	want := int64(4*perThread) - deq
	if got := int64(q.Len(e.Thread(0))); got != want {
		t.Fatalf("queue length %d, want %d (enq %d deq %d)", got, want, 4*perThread, deq)
	}
}

func TestRunCLQShape(t *testing.T) {
	if testing.Short() {
		t.Skip("CLQ experiment in -short mode")
	}
	opts := CLQOptions{OpsPerThread: 400, Threads: []int{1, 4}}
	results, err := RunCLQ(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Every run releases its engine, so the rerun executes on recycled
	// arenas and line tables and must not be able to tell.
	if again, err := RunCLQ(opts); err != nil || !reflect.DeepEqual(results, again) {
		t.Errorf("rerun on recycled memory diverged (err %v):\nfirst:  %+v\nsecond: %+v", err, results, again)
	}
	rel := map[CLQMode]map[int]float64{}
	for _, r := range results {
		if rel[r.Mode] == nil {
			rel[r.Mode] = map[int]float64{}
		}
		rel[r.Mode][r.Threads] = r.Relative
		if r.Seconds <= 0 {
			t.Errorf("%v/%d: non-positive duration", r.Mode, r.Threads)
		}
	}
	// Single-threaded transactions beat the CAS path (the Figure 6 path-
	// length effect).
	if rel[CLQOptRetryTM][1] >= 1.0 {
		t.Errorf("OptRetryTM at 1 thread = %.2f, want < 1 (path-length win)", rel[CLQOptRetryTM][1])
	}
	if rel[CLQConstrainedTM][1] >= 1.0 {
		t.Errorf("ConstrainedTM at 1 thread = %.2f, want < 1", rel[CLQConstrainedTM][1])
	}
}

func TestTLSSequentialValidates(t *testing.T) {
	for _, k := range []TLSKernel{KernelMilc, KernelSphinx3} {
		if _, err := runTLSSequential(TLSOptions{Iterations: 256, Seed: 3}.withDefaults(), k); err != nil {
			t.Errorf("%v: %v", k, err)
		}
	}
}

func TestTLSParallelOrderingBothModes(t *testing.T) {
	for _, k := range []TLSKernel{KernelMilc, KernelSphinx3} {
		for _, sr := range []bool{false, true} {
			_, _, err := runTLSParallel(TLSOptions{Iterations: 256, Seed: 3}.withDefaults(), k, 4, sr)
			if err != nil {
				t.Errorf("%v sr=%v: %v", k, sr, err)
			}
		}
	}
}

// TestTLSSuspendResumeReducesAborts is the Figure 9 headline claim.
func TestTLSSuspendResumeReducesAborts(t *testing.T) {
	opts := TLSOptions{Iterations: 512, Seed: 5}.withDefaults()
	_, without, err := runTLSParallel(opts, KernelSphinx3, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	_, with, err := runTLSParallel(opts, KernelSphinx3, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if with >= without {
		t.Errorf("suspend/resume abort ratio %.1f%% not below %.1f%%", with, without)
	}
	if with > 5 {
		t.Errorf("sphinx3 with suspend/resume aborts %.1f%%, want ~0", with)
	}
	if without < 20 {
		t.Errorf("sphinx3 without suspend/resume aborts %.1f%%, want large", without)
	}
}

func TestRunTLSSpeedupShape(t *testing.T) {
	if testing.Short() {
		t.Skip("TLS experiment in -short mode")
	}
	opts := TLSOptions{Iterations: 512, Threads: []int{1, 4}}
	results, err := RunTLS(opts)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := RunTLS(opts); err != nil || !reflect.DeepEqual(results, again) {
		t.Errorf("rerun on recycled memory diverged (err %v):\nfirst:  %+v\nsecond: %+v", err, results, again)
	}
	get := func(k TLSKernel, threads int, sr bool) TLSResult {
		for _, r := range results {
			if r.Kernel == k && r.Threads == threads && r.SuspendResume == sr {
				return r
			}
		}
		t.Fatalf("missing result %v/%d/%v", k, threads, sr)
		return TLSResult{}
	}
	for _, k := range []TLSKernel{KernelMilc, KernelSphinx3} {
		with := get(k, 4, true)
		without := get(k, 4, false)
		if with.Speedup <= without.Speedup {
			t.Errorf("%v: with s/r %.2f not faster than without %.2f", k, with.Speedup, without.Speedup)
		}
	}
}
