//go:build !racecheck

package mem

// debugChecks gates the expensive allocator cross-checks, which compile to
// nothing in normal builds. The cheap classTab-based
// double-free/interior-free panic in FreeArena is always on; the shadow map
// here only adds exact bookkeeping diagnostics under -tags racecheck.
const debugChecks = false

// liveTracker is the no-op variant; all methods compile away.
type liveTracker struct{}

func (liveTracker) init()                 {}
func (liveTracker) reset()                {}
func (liveTracker) alloc(a uint64, n int) {}
func (liveTracker) free(a uint64, n int)  {}
