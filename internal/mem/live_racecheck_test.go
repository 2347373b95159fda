//go:build racecheck

package mem

import "testing"

// The shadow live tracker only exists under -tags racecheck (make race);
// these tests pin that the debug build still delivers the allocator
// diagnostics the ISSUE moved out of the hot path.

func TestRacecheckDoubleFreePanics(t *testing.T) {
	if !debugChecks {
		t.Fatal("debugChecks false under racecheck tag")
	}
	s := NewSpace(1 << 12)
	a := s.Alloc(32)
	s.FreeArena(a, 0)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic under racecheck")
		}
	}()
	s.FreeArena(a, 0)
}

func TestRacecheckShadowSurvivesReset(t *testing.T) {
	s := NewSpace(1 << 12)
	a := s.Alloc(32)
	s.Reset()
	// The shadow map must have been cleared, or this fresh-Space-equivalent
	// allocation (same address as a) would trip the overlap check.
	b := s.Alloc(32)
	if b != a {
		t.Fatalf("post-Reset alloc at %#x, want %#x", b, a)
	}
	s.FreeArena(b, 0)
}
