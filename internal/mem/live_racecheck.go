//go:build racecheck

package mem

import "fmt"

// debugChecks enables the shadow allocation tracker: an exact live map that
// cross-checks the classTab side table on every alloc and free. Catches
// side-table corruption (e.g. a workload writing through a stale pointer
// into another block's granule) that the cheap always-on checks cannot.
const debugChecks = true

type liveTracker struct {
	live map[uint64]int
}

func (l *liveTracker) init() {
	l.live = make(map[uint64]int)
}

func (l *liveTracker) reset() {
	clear(l.live)
}

func (l *liveTracker) alloc(a uint64, n int) {
	if old, ok := l.live[a]; ok {
		panic(fmt.Sprintf("mem: racecheck: alloc at %#x overlaps live %d-byte block", a, old))
	}
	l.live[a] = n
}

func (l *liveTracker) free(a uint64, n int) {
	got, ok := l.live[a]
	if !ok {
		panic(fmt.Sprintf("mem: racecheck: free of non-live address %#x", a))
	}
	if got != n {
		panic(fmt.Sprintf("mem: racecheck: free of %#x sees class %d, shadow map says %d", a, n, got))
	}
	delete(l.live, a)
}
