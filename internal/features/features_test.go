package features

import (
	"reflect"
	"testing"

	"htmcmp/internal/htm"
	"htmcmp/internal/platform"
)

func clqEngine(t *testing.T, threads, quantum int) *htm.Engine {
	t.Helper()
	return htm.New(platform.New(platform.ZEC12), htm.Config{
		Threads: threads, SpaceSize: 16 << 20, Seed: 9, CostScale: 0,
		DisableCacheFetchAborts: true, Quantum: quantum,
	})
}

func TestCLQLockFreeFIFO(t *testing.T) {
	e := clqEngine(t, 1, 0)
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
	for _, quantum := range []int{1, 8} {
		e := clqEngine(t, 4, quantum)
		q := NewCLQ(e.Thread(0))
		const perThread = 300
		deq := 0
		e.Run(4, func(tid int, th *htm.Thread) {
			for i := 0; i < perThread; i++ {
				var ok bool
				switch tid {
				case 0:
					q.EnqueueLockFree(th, 1)
					_, ok = q.DequeueLockFree(th)
				case 1:
					q.EnqueueTM(th, 1, 0)
					_, ok = q.DequeueTM(th, 0)
				case 2:
					q.EnqueueTM(th, 1, 8)
					_, ok = q.DequeueTM(th, 8)
				default:
					q.EnqueueConstrained(th, 1)
					_, ok = q.DequeueConstrained(th)
				}
				if ok {
					deq++
				}
			}
		})
		want := 4*perThread - deq
		if got := q.Len(e.Thread(0)); got != want {
			t.Fatalf("quantum %d: queue length %d, want %d (enq %d deq %d)", quantum, got, want, 4*perThread, deq)
		}
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

// TestOptRetrySearchExact: the OptRetryTM point is what simulating every
// grid retry count and keeping the fastest gives — the minimum duration,
// with the engine counts of the smallest retry count that reaches it — and
// every count the search served from an earlier run is, field for field,
// that count's own run.
func TestOptRetrySearchExact(t *testing.T) {
	if testing.Short() {
		t.Skip("CLQ runs in -short mode")
	}
	reused, fellBack := 0, 0
	for _, threads := range []int{1, 2, 4, 8} {
		for _, seed := range []uint64{42, 7} {
			p := CLQPoint{Mode: CLQOptRetryTM, Threads: threads, OpsPerThread: 150, CostScale: 1, Seed: seed}
			best, grid, err := searchOptRetry(p)
			if err != nil {
				t.Fatal(err)
			}
			var want clqRun
			for i, r := range optRetryGrid {
				direct, err := runCLQ(p, r)
				if err != nil {
					t.Fatal(err)
				}
				if direct.fellBack() {
					fellBack++
				}
				if i == 0 || direct.Seconds <= want.Seconds {
					want = direct
				}
				if got := grid[i]; got.retries != r {
					reused++
					if got.PointResult != direct.PointResult {
						t.Errorf("%s seed %d: %d retries served by the %d-retry run\n got %+v\nwant %+v",
							p.Label(), seed, r, got.retries, got.PointResult, direct.PointResult)
					}
				}
			}
			if best.PointResult != want.PointResult {
				t.Errorf("%s seed %d: search %+v, want the grid's best, %d retries: %+v",
					p.Label(), seed, best.PointResult, want.retries, want.PointResult)
			}
			if got, err := RunCLQPoint(p); err != nil || got != best.PointResult {
				t.Errorf("%s seed %d: RunCLQPoint = %+v (err %v), want the search's %+v", p.Label(), seed, got, err, best.PointResult)
			}
		}
	}
	if reused == 0 || fellBack == 0 {
		t.Errorf("%d retry counts reused and %d direct runs that fell back: the box must have both", reused, fellBack)
	}
}

func TestTLSSequentialValidates(t *testing.T) {
	for _, k := range []TLSKernel{KernelMilc, KernelSphinx3} {
		if _, err := RunTLSPoint(TLSPoint{Kernel: k, Iterations: 256, CostScale: 1, Seed: 3}); err != nil {
			t.Errorf("%v: %v", k, err)
		}
	}
}

func TestTLSParallelOrderingBothModes(t *testing.T) {
	for _, k := range []TLSKernel{KernelMilc, KernelSphinx3} {
		for _, sr := range []bool{false, true} {
			_, err := RunTLSPoint(TLSPoint{Kernel: k, Threads: 4, SuspendResume: sr, Iterations: 256, CostScale: 1, Seed: 3})
			if err != nil {
				t.Errorf("%v sr=%v: %v", k, sr, err)
			}
		}
	}
}

// TestTLSSuspendResumeReducesAborts is the Figure 9 headline claim.
func TestTLSSuspendResumeReducesAborts(t *testing.T) {
	p := TLSPoint{Kernel: KernelSphinx3, Threads: 4, Iterations: 512, CostScale: 1, Seed: 5}
	r, err := RunTLSPoint(p)
	if err != nil {
		t.Fatal(err)
	}
	without := r.Engine.AbortRatio()
	p.SuspendResume = true
	if r, err = RunTLSPoint(p); err != nil {
		t.Fatal(err)
	}
	with := r.Engine.AbortRatio()
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

// stubExec answers every point from a pure function of the point and
// records what was asked, so a test can tell a number that came through the
// Exec from one an inline simulation produced.
type stubExec struct {
	clq []CLQPoint
	tls []TLSPoint
}

func clqStubSeconds(p CLQPoint) float64 {
	return float64(1000 * (int(p.Mode) + 1) * p.Threads)
}

func tlsStubSeconds(p TLSPoint) float64 {
	s := float64(100*(int(p.Kernel)+1)) / float64(1+p.Threads)
	if p.SuspendResume {
		s /= 2
	}
	return s
}

func (x *stubExec) CLQ(p CLQPoint) (PointResult, error) {
	x.clq = append(x.clq, p)
	return PointResult{Seconds: clqStubSeconds(p)}, nil
}

func (x *stubExec) TLS(p TLSPoint) (PointResult, error) {
	x.tls = append(x.tls, p)
	return PointResult{Seconds: tlsStubSeconds(p), Engine: htm.Stats{Begins: 100, Aborts: uint64(p.Threads)}}, nil
}

// inlineExec is the Exec a nil one stands for.
type inlineExec struct{}

func (inlineExec) CLQ(p CLQPoint) (PointResult, error) { return RunCLQPoint(p) }
func (inlineExec) TLS(p TLSPoint) (PointResult, error) { return RunTLSPoint(p) }

// TestExecAnswersEveryNumber: with an Exec set, RunCLQ and RunTLS simulate
// nothing themselves — the default options request 20 + 26 distinct,
// fully-defaulted points (OptRetryTM one point that searches its retry
// count itself) and the tables are exactly what the answers imply.
func TestExecAnswersEveryNumber(t *testing.T) {
	x := &stubExec{}
	clq, err := RunCLQ(CLQOptions{Exec: x})
	if err != nil {
		t.Fatal(err)
	}
	tls, err := RunTLS(TLSOptions{Exec: x})
	if err != nil {
		t.Fatal(err)
	}
	distinctCLQ, distinctTLS := map[CLQPoint]bool{}, map[TLSPoint]bool{}
	for _, p := range x.clq {
		distinctCLQ[p] = true
		if p.OpsPerThread != 3000 || p.CostScale != 1 || p.Seed != 42 {
			t.Fatalf("point %+v is not fully defaulted", p)
		}
	}
	for _, p := range x.tls {
		distinctTLS[p] = true
		if p.Iterations != 1536 || p.CostScale != 1 || p.Seed != 42 {
			t.Fatalf("point %+v is not fully defaulted", p)
		}
	}
	if len(x.clq) != 20 || len(distinctCLQ) != 20 || len(x.tls) != 26 || len(distinctTLS) != 26 {
		t.Fatalf("requested %d CLQ (%d distinct) and %d TLS (%d distinct) points, want 20 and 26",
			len(x.clq), len(distinctCLQ), len(x.tls), len(distinctTLS))
	}

	if len(clq) != 20 {
		t.Fatalf("RunCLQ returned %d results, want 20", len(clq))
	}
	for _, r := range clq {
		want := clqStubSeconds(CLQPoint{Mode: r.Mode, Threads: r.Threads})
		base := clqStubSeconds(CLQPoint{Mode: CLQLockFree, Threads: r.Threads})
		if r.Seconds != want || r.Relative != want/base {
			t.Errorf("%v/%d = %v (relative %v), want %v (%v)", r.Mode, r.Threads, r.Seconds, r.Relative, want, want/base)
		}
	}
	if len(tls) != 24 {
		t.Fatalf("RunTLS returned %d results, want 24", len(tls))
	}
	for _, r := range tls {
		p := TLSPoint{Kernel: r.Kernel, Threads: r.Threads, SuspendResume: r.SuspendResume}
		want := tlsStubSeconds(TLSPoint{Kernel: r.Kernel}) / tlsStubSeconds(p)
		if r.Speedup != want || r.AbortRatio != float64(r.Threads) {
			t.Errorf("%s = %v (abort %v), want %v (%v)", p.Label(), r.Speedup, r.AbortRatio, want, r.Threads)
		}
	}

	// Points are built after withDefaults: spelling a default out asks for
	// the same points, so both spellings share sweep cells.
	y := &stubExec{}
	if _, err := RunCLQ(CLQOptions{OpsPerThread: 3000, Threads: []int{1, 2, 4, 8, 16}, CostScale: 1, Seed: 42, Exec: y}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunTLS(TLSOptions{Iterations: 1536, Exec: y}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(x, y) {
		t.Error("explicit defaults request different points than zero options")
	}
}

// TestNilExecRunsInline: a nil Exec is exactly an Exec that runs each point
// with RunCLQPoint / RunTLSPoint.
func TestNilExecRunsInline(t *testing.T) {
	clqOpts := CLQOptions{OpsPerThread: 200, Threads: []int{1, 3}}
	inline, err := RunCLQ(clqOpts)
	if err != nil {
		t.Fatal(err)
	}
	clqOpts.Exec = inlineExec{}
	if via, err := RunCLQ(clqOpts); err != nil || !reflect.DeepEqual(inline, via) {
		t.Errorf("RunCLQ through an Exec differs from inline (err %v):\ninline: %+v\nexec:   %+v", err, inline, via)
	}
	tlsOpts := TLSOptions{Iterations: 128, Threads: []int{1, 3}}
	inlineTLS, err := RunTLS(tlsOpts)
	if err != nil {
		t.Fatal(err)
	}
	tlsOpts.Exec = inlineExec{}
	if via, err := RunTLS(tlsOpts); err != nil || !reflect.DeepEqual(inlineTLS, via) {
		t.Errorf("RunTLS through an Exec differs from inline (err %v):\ninline: %+v\nexec:   %+v", err, inlineTLS, via)
	}
}

// TestPointsRejectBadInput: a point arrives from a cache record or a caller,
// so a malformed one is an error, not a panic inside the engine.
func TestPointsRejectBadInput(t *testing.T) {
	if _, err := RunCLQPoint(CLQPoint{Threads: 0, OpsPerThread: 10}); err == nil {
		t.Error("CLQ point with 0 threads ran")
	}
	if _, err := RunCLQPoint(CLQPoint{Mode: CLQMode(9), Threads: 1, OpsPerThread: 10}); err == nil {
		t.Error("CLQ point with an unknown mode ran")
	}
	if _, err := RunTLSPoint(TLSPoint{Threads: -1, Iterations: 8}); err == nil {
		t.Error("TLS point with negative threads ran")
	}
}
