package mem

import "testing"

func TestArenaIsolation(t *testing.T) {
	s := NewSpace(1 << 20)
	// Interleaved small allocations from two arenas must come from
	// different chunks: no block of arena 1 may fall within one line
	// (256 B) of an arena-0 block allocated adjacently in time.
	var a0, a1 []Addr
	for i := 0; i < 50; i++ {
		a0 = append(a0, s.AllocArena(24, 8, 0))
		a1 = append(a1, s.AllocArena(24, 8, 1))
	}
	for _, x := range a0 {
		for _, y := range a1 {
			dx := int64(x) - int64(y)
			if dx < 0 {
				dx = -dx
			}
			if dx < 256 {
				t.Fatalf("arena blocks %#x and %#x within one line of each other", x, y)
			}
		}
	}
}

func TestArenaChunkSequentialWithin(t *testing.T) {
	s := NewSpace(1 << 20)
	a := s.AllocArena(32, 8, 3)
	b := s.AllocArena(32, 8, 3)
	if b != a+32 {
		t.Errorf("same-arena allocations not contiguous: %#x then %#x", a, b)
	}
}

func TestArenaFreeListReuse(t *testing.T) {
	s := NewSpace(1 << 20)
	a := s.AllocArena(48, 8, 2)
	s.FreeArena(a, 2)
	b := s.AllocArena(48, 8, 2)
	if a != b {
		t.Errorf("freed block not reused within its arena: %#x then %#x", a, b)
	}
	// Cross-arena free: block allocated in arena 2, freed into arena 5,
	// reused from arena 5's list.
	s.FreeArena(b, 5)
	c := s.AllocArena(48, 8, 5)
	if c != b {
		t.Errorf("cross-arena freed block not reused: %#x then %#x", b, c)
	}
}

func TestArenaLargeAllocationsBypassChunks(t *testing.T) {
	s := NewSpace(1 << 20)
	big := s.AllocArena(arenaChunk, 8, 0) // larger than half a chunk
	if big == Nil {
		t.Fatal("large allocation failed")
	}
	if s.Used() < arenaChunk {
		t.Errorf("large block size = %d", s.Used())
	}
}

func TestArenaAlignedWithinChunk(t *testing.T) {
	s := NewSpace(1 << 20)
	for i := 0; i < 20; i++ {
		a := s.AllocArena(40, 256, 7)
		if a%256 != 0 {
			t.Fatalf("aligned arena allocation %#x misaligned", a)
		}
	}
}
