//go:build go1.23

// go1.23 is for go vet's sake: iter.Pull is newer than the go 1.22 that
// go.mod has to stay at (bench/go.mod pins it).

package htm

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Run executes body(tid, e.Thread(tid)) for tid in [0, n) as one scheduled
// region and returns when every body has: the one way into a region.
//
// The bodies are pull-coroutines on the caller's goroutine, resumed one at a
// time by the elections they make themselves (vsched), so a region involves
// neither the Go scheduler nor a lock. The first body to panic ends the
// region: the threads still parked are unwound, then Run panics on its caller
// with the original message, the slot it came from and that thread's stack.
func (e *Engine) Run(n int, body func(tid int, t *Thread)) {
	s := e.sched
	if s.running != -1 {
		panic("htm: Engine.Run called inside a running region")
	}
	threads := e.threads[:n]
	stops := make([]func(), n)
	failed := ""
	for tid, t := range threads {
		next, stop := iter.Pull(func(yield func(struct{}) bool) {
			t.park = func() bool { return yield(struct{}{}) }
			defer func() {
				p := recover()
				if _, stopped := p.(regionStopped); p != nil && !stopped && failed == "" {
					failed = fmt.Sprintf("htm: thread %d panicked: %v\n\n%s", tid, p, debug.Stack())
					s.next = nil // ends the driver loop
				}
			}()
			body(tid, t)
			s.exit(t)
		})
		t.resume, stops[tid], t.entered = func() { next() }, stop, true
	}
	defer func() {
		for tid, t := range threads {
			stops[tid]() // unwinds a thread still parked after a body panic
			t.park, t.resume, t.spinTry, t.entered = nil, nil, nil, false
		}
		// A region leaves no schedule behind, however it ended.
		clear(s.status)
		s.ready, s.next, s.running, s.polling = s.ready[:0], nil, -1, false
	}()
	s.run(threads)
	if failed != "" {
		panic(failed)
	}
}
