package htm

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"htmcmp/internal/platform"
)

func virtualEngine(threads int) *Engine {
	return New(platform.New(platform.IntelCore), Config{
		Threads: threads, SpaceSize: 1 << 20, Seed: 1, CostScale: 1,
	})
}

// TestRunBodyPanicReachesCaller: a panic on one simulated thread ends the
// region and arrives on Run's caller with its slot, message and stack, with
// every other thread — parked at a barrier, parked spinning, parked at a
// yield, not yet started — unwound.
func TestRunBodyPanicReachesCaller(t *testing.T) {
	e := virtualEngine(6)
	before := runtime.NumGoroutine()
	bar := e.NewBarrier(2)
	var never atomic.Bool
	unwound := 0
	r, _ := runPanic(e, 6, func(tid int, th *Thread) {
		defer func() { unwound++ }()
		switch tid {
		case 0:
			bar.Wait(th)
		case 1:
			th.SpinUntil(4, never.Load)
		case 2:
			for {
				th.Work(10)
			}
		case 3:
			th.Work(1000)
			explode("boom")
		default:
			th.Work(5000) // still at clock 0 in the heap when thread 3 panics
		}
	}).(string)
	for _, want := range []string{"htm: thread 3 panicked: boom", "htm.explode"} {
		if !strings.Contains(r, want) {
			t.Errorf("panic does not mention %q:\n%s", want, r)
		}
	}
	if unwound != 4 {
		t.Errorf("%d bodies unwound, want the four that had started", unwound)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines after the region, %d before", after, before)
	}
	// The scheduler is empty again: the same engine runs another region.
	ran := 0
	e.Run(6, func(_ int, th *Thread) { th.Work(10); ran++ })
	if ran != 6 {
		t.Errorf("second region ran %d bodies, want 6", ran)
	}
	e.Release()
}

func explode(msg string) { panic(msg) }

func TestRunInsideRegionPanics(t *testing.T) {
	e := virtualEngine(2)
	r, _ := runPanic(e, 2, func(tid int, th *Thread) {
		th.Work(10)
		if tid == 1 {
			e.Run(1, func(int, *Thread) {})
		}
	}).(string)
	if !strings.Contains(r, "thread 1 panicked: htm: Engine.Run called inside a running region") {
		t.Errorf("nested Run: got %q", r)
	}
}

// TestRunBodiesGetTheirThreads: body tid runs on e.Thread(tid), and a
// barrier between the bodies opens.
func TestRunBodiesGetTheirThreads(t *testing.T) {
	e := virtualEngine(3)
	bar := e.NewBarrier(3)
	passed := 0
	e.Run(3, func(tid int, th *Thread) {
		if th != e.Thread(tid) {
			t.Errorf("body %d got thread %d", tid, th.slot)
		}
		bar.Wait(th)
		passed++
	})
	if passed != 3 {
		t.Errorf("%d bodies passed the barrier, want 3", passed)
	}
}
