package mem

import (
	"testing"

	"htmcmp/internal/prng"
)

// allocScript drives an identical mixed alloc/free sequence against a Space
// and returns every address handed out, in order.
func allocScript(s *Space) []Addr {
	rng := prng.New(7)
	var addrs []Addr
	var liveAddrs []Addr
	for i := 0; i < 400; i++ {
		switch {
		case len(liveAddrs) > 0 && rng.Intn(3) == 0:
			j := rng.Intn(len(liveAddrs))
			s.FreeArena(liveAddrs[j], rng.Intn(4))
			liveAddrs[j] = liveAddrs[len(liveAddrs)-1]
			liveAddrs = liveAddrs[:len(liveAddrs)-1]
		case rng.Intn(8) == 0:
			a := s.AllocAligned(rng.Intn(600)+1, 64)
			addrs = append(addrs, a)
			liveAddrs = append(liveAddrs, a)
		default:
			a := s.AllocArena(rng.Intn(300)+1, WordSize, rng.Intn(4))
			addrs = append(addrs, a)
			liveAddrs = append(liveAddrs, a)
		}
	}
	return addrs
}

// TestResetEquivalence pins the Space.Reset contract the sweep worker pool
// depends on: a reset Space must hand out exactly the address sequence a
// fresh Space would, with all memory zeroed — otherwise pooled cells would
// diverge from the golden tables.
func TestResetEquivalence(t *testing.T) {
	fresh := NewSpace(1 << 20)
	want := allocScript(fresh)

	reused := NewSpace(1 << 20)
	// Dirty it thoroughly: run the script, scribble over the blocks, label
	// regions, then reset.
	for i, a := range allocScript(reused) {
		reused.Store64(a, uint64(i)*0x9e3779b97f4a7c15+1)
	}
	reused.Label(64, 4096, "stale-label")
	reused.Reset()

	if got, want := reused.Used(), uint64(0); got != want {
		t.Fatalf("Used after Reset = %d, want 0", got)
	}
	if got := reused.RegionAt(64); got != "" {
		t.Fatalf("RegionAt after Reset = %q, want empty", got)
	}
	got := allocScript(reused)
	if len(got) != len(want) {
		t.Fatalf("reset Space produced %d allocations, fresh produced %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("allocation %d: reset Space at %#x, fresh at %#x", i, got[i], want[i])
		}
	}
	for _, a := range got {
		if reused.Load64(a) != 0 {
			t.Fatalf("block at %#x not zeroed after Reset", a)
		}
	}
}

// TestResetDropsFreeLists checks Reset forgets free blocks: reusing a
// pre-Reset free-list entry would desynchronise the address sequence.
func TestResetDropsFreeLists(t *testing.T) {
	s := NewSpace(1 << 16)
	a := s.Alloc(64)
	b := s.Alloc(64)
	s.FreeArena(b, 0)
	s.Reset()
	c := s.Alloc(64)
	if c != a {
		t.Fatalf("first post-Reset alloc at %#x, want the fresh-Space address %#x", c, a)
	}
}

// interleaveArenas runs ops allocations and frees of random sizes on 8 arena
// IDs from one goroutine, in an order rng picks, so chunk carves from
// different arenas alternate on the global bump pointer. Every block must be
// word-aligned, in bounds and disjoint from every block still live. It
// returns the blocks still live, by arena.
func interleaveArenas(t *testing.T, s *Space, rng *prng.Rand, ops int) [][]Addr {
	t.Helper()
	const arenas = 8
	live := make([][]Addr, arenas)
	end := map[Addr]uint64{} // live block start -> end
	for i := 0; i < ops; i++ {
		id := rng.Intn(arenas)
		if l := live[id]; len(l) > 32 || (len(l) > 0 && rng.Intn(4) == 0) {
			j := rng.Intn(len(l))
			a := l[j]
			l[j] = l[len(l)-1]
			live[id] = l[:len(l)-1]
			s.FreeArena(a, id)
			delete(end, a)
			continue
		}
		n := rng.Intn(900) + 1
		a := s.AllocArena(n, WordSize, id)
		e := a + uint64(roundSize(n))
		if a%WordSize != 0 || e > uint64(s.Size()) {
			t.Fatalf("op %d: arena %d got bad block [%#x,%#x)", i, id, a, e)
		}
		for owner, l := range live {
			for _, b := range l {
				if be := end[b]; a < be && b < e {
					t.Fatalf("op %d: arena %d got [%#x,%#x), overlapping arena %d's live block [%#x,%#x)", i, id, a, e, owner, b, be)
				}
			}
		}
		end[a] = e
		live[id] = append(live[id], a)
	}
	return live
}

// TestInterleavedArenaAlloc checks that blocks handed to different arenas in
// any interleaving never overlap while live, and that the used counter
// balances once all of them are freed.
func TestInterleavedArenaAlloc(t *testing.T) {
	s := NewSpace(32 << 20)
	for id, l := range interleaveArenas(t, s, prng.New(1), 8*2000) {
		for _, a := range l {
			s.FreeArena(a, id)
		}
	}
	if got := s.Used(); got != 0 {
		t.Fatalf("Used = %d after freeing everything, want 0", got)
	}
}

// TestInterleavedAllocThenReset makes sure Reset restores a fresh Space's
// allocation order after an interleaved phase scattered chunk ownership
// across arenas.
func TestInterleavedAllocThenReset(t *testing.T) {
	s := NewSpace(8 << 20)
	interleaveArenas(t, s, prng.New(2), 8*500)
	s.Reset()
	want := NewSpace(8 << 20)
	for i := 0; i < 100; i++ {
		if g, w := s.AllocArena(48, WordSize, i%3), want.AllocArena(48, WordSize, i%3); g != w {
			t.Fatalf("alloc %d after Reset at %#x, fresh Space gives %#x", i, g, w)
		}
	}
}

// TestBlockSize: an allocation occupies its size class, and freeing it
// returns exactly that.
func TestBlockSize(t *testing.T) {
	s := NewSpace(1 << 16)
	a := s.Alloc(100)
	if got := s.Used(); got != 104 {
		t.Fatalf("Used after a 100-byte Alloc = %d, want 104", got)
	}
	s.FreeArena(a, 0)
	if got := s.Used(); got != 0 {
		t.Fatalf("Used after free = %d, want 0", got)
	}
}

// TestInteriorFreePanics: freeing a pointer into the middle of a block must
// panic like any other non-live free (the classTab granule is 0 there).
func TestInteriorFreePanics(t *testing.T) {
	s := NewSpace(1 << 12)
	a := s.Alloc(64)
	defer func() {
		if recover() == nil {
			t.Error("interior free did not panic")
		}
	}()
	s.FreeArena(a+16, 0)
}
