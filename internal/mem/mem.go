// Package mem implements the simulated flat memory that every transactional
// workload in this repository runs against.
//
// Real HTM tracks physical cache lines, so a faithful behavioural model needs
// workloads whose data structures live at concrete addresses with controlled
// layout (padding, alignment, adjacency — the things Section 4 of the paper
// fixes in STAMP). A Space is a single []byte arena; simulated pointers are
// uint64 byte offsets into it. Offset 0 is reserved as the nil pointer.
//
// Space provides raw, untracked accessors. Transactional (tracked, buffered)
// accesses are performed through internal/htm, which layers conflict
// detection and store buffering on top of the same arena.
//
// The allocator is allocation-free on the host side: blocks come from
// per-arena size-class free lists backed by a global bump pointer, and block
// metadata lives in a flat class-index side table (one byte per 8-byte
// granule) instead of a map. Allocation order — and therefore every
// simulated address, and therefore every conflict line — is pinned by the
// full-sweep golden byte-identity test.
//
// One goroutine drives a Space at a time: an engine region runs all its
// threads on one goroutine (htm.Engine.Run), and a pooled Space passes
// whole from one owner to the next. Nothing here locks.
package mem

import (
	"fmt"
	"math"
	"sort"
)

// Addr is a simulated memory address: a byte offset into a Space's arena.
type Addr = uint64

// Nil is the simulated null pointer.
const Nil Addr = 0

// WordSize is the size of a simulated machine word in bytes. All pointers
// and integer fields in the transactional data structures are 8-byte words.
const WordSize = 8

// maxArenas bounds the per-hardware-thread allocation contexts; it matches
// the engine's 256-thread ceiling (the largest paper configuration is 64).
const maxArenas = 256

// Size classes: multiples of 8 up to 256 (32 classes), then powers of two
// from 512. Small classes keep STAMP's many small node allocations dense;
// the power-of-two tail bounds free-list fragmentation for big blocks.
const (
	numSmallClasses = 32 // 8, 16, ..., 256
	numClasses      = numSmallClasses + 26
)

// Space is a simulated flat memory arena with per-arena size-class free
// lists over a bump allocator. The zero value is not usable; construct with
// NewSpace. One goroutine drives a Space at a time (see the package comment).
// The engine maps arena ID to hardware-thread slot; arena 0 — the
// Alloc/Free default — is for setup and teardown.
//
// Raw accessors (Load*/Store*) perform no conflict tracking and must only be
// used during setup/teardown or for provably thread-private data; the
// simulated threads' shared accesses go through the HTM engine.
type Space struct {
	data []byte

	next uint64 // global bump pointer (always 8-byte aligned)
	used uint64 // bytes currently allocated

	// classTab holds, for every 8-byte granule that starts a live block,
	// the block's size-class index + 1 (0 = not a block start). It replaces
	// the old live map: O(1) size lookup on Free, inherent double-free and
	// interior-free detection, and no map bookkeeping on the hot path.
	classTab []uint8

	// live is the shadow allocation tracker compiled in by -tags racecheck;
	// a no-op otherwise. It cross-checks classTab against an exact map.
	live liveTracker

	// arenas are per-hardware-thread allocation contexts: each bump-
	// allocates within private chunks carved from the global region, the
	// way per-thread malloc arenas (and STAMP's thread-local pools) keep
	// concurrently allocating threads off each other's cache lines.
	// Without this, transactions that allocate get adjacent blocks and
	// conflict falsely on every allocation.
	arenas []arena

	// regions are the labelled address ranges (Label/RegionAt), sorted by
	// start address on first lookup (regionsDirty). Setup-time only;
	// observability tooling reads them to name abort-attribution hot spots
	// symbolically.
	regions      []region
	regionsDirty bool
}

// region is one labelled address range [start, start+size).
type region struct {
	start uint64
	size  uint64
	name  string
}

// arenaChunk is the size of the region an arena carves from the global
// space at a time. It is line-aligned (256 is the largest modelled line).
const arenaChunk = 8 << 10

// arena is one thread-private allocation context.
type arena struct {
	cur, end uint64
	// free holds one LIFO free list per size class, allocated on first
	// free so idle arenas cost two words.
	free [][]uint64
}

// NewSpace returns a Space with the given arena size in bytes. Size is
// rounded up to a multiple of 8. The first word is reserved so that no
// allocation is ever at address 0.
func NewSpace(size int) *Space {
	if size < 64 {
		size = 64
	}
	size = (size + 7) &^ 7
	s := &Space{
		data:     make([]byte, size),
		classTab: make([]uint8, size/WordSize),
		arenas:   make([]arena, maxArenas),
	}
	s.live.init()
	s.next = WordSize // reserve address 0 as nil
	return s
}

// Reset returns the Space to its freshly constructed state — all memory
// zeroed, all allocations and labels dropped — without reallocating the
// arena, so sweep workers can recycle multi-MB Spaces across cells. Only
// the high-water-marked region is wiped. A Reset Space behaves identically
// to a new one: allocation and conflict behaviour of the next run are
// byte-for-byte those of a fresh Space (pinned by the reuse-equivalence
// tests and the sweep golden output). Call only while no thread is using
// the Space.
func (s *Space) Reset() {
	hi := s.next
	clear(s.data[:hi])
	clear(s.classTab[:(hi+WordSize-1)/WordSize])
	s.next = WordSize
	s.used = 0
	for i := range s.arenas {
		ar := &s.arenas[i]
		ar.cur, ar.end = 0, 0
		for c := range ar.free {
			ar.free[c] = ar.free[c][:0]
		}
	}
	s.regions = s.regions[:0]
	s.regionsDirty = false
	s.live.reset()
}

// Size returns the arena size in bytes.
func (s *Space) Size() int { return len(s.data) }

// Used returns the number of bytes currently allocated.
func (s *Space) Used() uint64 { return s.used }

// Data exposes the raw arena. It is intended for the HTM engine's commit
// write-back and for tests; workloads should not touch it directly.
func (s *Space) Data() []byte { return s.data }

// roundSize rounds a request up to its size class: multiples of 8 up to 256,
// then powers of two.
func roundSize(n int) int {
	if n <= 0 {
		n = 1
	}
	if n <= 256 {
		return (n + 7) &^ 7
	}
	c := 512
	for c < n {
		c <<= 1
	}
	return c
}

// classIndex maps a rounded size to its class index.
func classIndex(cls int) int {
	if cls <= 256 {
		return cls/WordSize - 1
	}
	i := numSmallClasses
	for c := 512; c < cls; c <<= 1 {
		i++
	}
	return i
}

// classSize is the inverse of classIndex.
func classSize(idx int) int {
	if idx < numSmallClasses {
		return (idx + 1) * WordSize
	}
	return 512 << (idx - numSmallClasses)
}

// Alloc allocates size bytes from arena 0 and returns the block address.
// The block contents are zeroed. It panics if the space is exhausted: the
// workloads are sized to fit, so exhaustion is a configuration bug, not a
// runtime error to handle.
func (s *Space) Alloc(size int) Addr {
	return s.AllocArena(size, WordSize, 0)
}

// AllocAligned allocates size bytes from arena 0 at an address that is a
// multiple of align (a power of two >= 8). The paper's kmeans fix
// (Section 4) aligns clusters to cache-line boundaries; this is the
// primitive that enables it.
func (s *Space) AllocAligned(size int, align int) Addr {
	return s.AllocArena(size, align, 0)
}

// AllocArena allocates from the given thread arena. Different arenas never
// receive blocks in the same chunk.
func (s *Space) AllocArena(size, align, arenaID int) Addr {
	if align < WordSize {
		align = WordSize
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d is not a power of two", align))
	}
	if arenaID < 0 || arenaID >= maxArenas {
		panic(fmt.Sprintf("mem: arena ID %d out of range [0,%d)", arenaID, maxArenas))
	}
	cls := roundSize(size)
	ci := classIndex(cls)
	if ci >= numClasses {
		panic(fmt.Sprintf("mem: allocation of %d bytes exceeds the largest size class", size))
	}
	ar := &s.arenas[arenaID]

	// Reuse a free block of the exact class if one satisfies the alignment.
	if align == WordSize && ar.free != nil {
		if list := ar.free[ci]; len(list) > 0 {
			a := list[len(list)-1]
			ar.free[ci] = list[:len(list)-1]
			s.mark(a, ci, cls)
			clear(s.data[a : a+uint64(cls)])
			return a
		}
	}

	// Oversized or highly aligned requests go straight to the global
	// region; small ones bump within the arena's private chunk.
	if cls+align > arenaChunk/2 {
		a := s.bump(uint64(cls), uint64(align))
		s.mark(a, ci, cls)
		return a
	}
	a := (ar.cur + uint64(align) - 1) &^ (uint64(align) - 1)
	if a+uint64(cls) > ar.end {
		// Carve a fresh chunk unless headroom is too low (tiny test
		// spaces), in which case the block is served from the global
		// region directly.
		start, ok := uint64(0), false
		if s.next+arenaChunk+256 <= uint64(len(s.data)) {
			start, ok = s.bumpTry(arenaChunk, 256)
		}
		if !ok {
			g := s.bump(uint64(cls), uint64(align))
			s.mark(g, ci, cls)
			return g
		}
		ar.cur, ar.end = start, start+arenaChunk
		a = (ar.cur + uint64(align) - 1) &^ (uint64(align) - 1)
	}
	ar.cur = a + uint64(cls)
	s.mark(a, ci, cls)
	return a
}

// mark records a fresh allocation in the side table and counters.
func (s *Space) mark(a uint64, ci, cls int) {
	s.classTab[a/WordSize] = uint8(ci + 1)
	s.used += uint64(cls)
	s.live.alloc(a, cls)
}

// bumpTry advances the global bump pointer, returning ok=false when the
// space cannot satisfy the request.
func (s *Space) bumpTry(n, align uint64) (uint64, bool) {
	a := (s.next + align - 1) &^ (align - 1)
	if a+n > uint64(len(s.data)) {
		return 0, false
	}
	s.next = a + n
	return a, true
}

// bump is bumpTry with the exhaustion panic.
func (s *Space) bump(n, align uint64) uint64 {
	a, ok := s.bumpTry(n, align)
	if !ok {
		panic(fmt.Sprintf("mem: space exhausted: need %d bytes, size %d (used %d)",
			n, len(s.data), s.used))
	}
	return a
}

// FreeArena returns the block to the given arena's free list (usually the
// freeing thread's, for reuse locality).
func (s *Space) FreeArena(a Addr, arenaID int) {
	if a == Nil {
		return
	}
	if arenaID < 0 || arenaID >= maxArenas {
		panic(fmt.Sprintf("mem: arena ID %d out of range [0,%d)", arenaID, maxArenas))
	}
	if a%WordSize != 0 || a >= uint64(len(s.data)) {
		panic(fmt.Sprintf("mem: free of non-allocated address %#x", a))
	}
	ci := int(s.classTab[a/WordSize])
	if ci == 0 {
		// Never allocated, already freed, or an interior pointer.
		panic(fmt.Sprintf("mem: free of non-allocated address %#x", a))
	}
	ci--
	cls := classSize(ci)
	s.live.free(a, cls)
	s.classTab[a/WordSize] = 0
	s.used -= uint64(cls)
	ar := &s.arenas[arenaID]
	if ar.free == nil {
		ar.free = make([][]uint64, numClasses)
	}
	ar.free[ci] = append(ar.free[ci], a)
}

// Label names the address range [a, a+size) for diagnostics. Workload
// constructors label their shared structures at setup time so that
// observability tooling (internal/obs abort attribution) can report
// conflicting cache lines as "stamp/intruder/fragmap" instead of a raw
// address. Labels are informational only: they do not affect allocation or
// conflict detection. Overlapping labels resolve to the innermost one (the
// covering region with the greatest start address; ties go to the most
// recently added). Call during setup.
func (s *Space) Label(a Addr, size int, name string) {
	if size <= 0 || name == "" {
		return
	}
	s.regions = append(s.regions, region{start: a, size: uint64(size), name: name})
	s.regionsDirty = true
}

// RegionAt returns the label covering address a, or "" when a falls in no
// labelled region.
func (s *Space) RegionAt(a Addr) string {
	if s.regionsDirty {
		sort.SliceStable(s.regions, func(i, j int) bool {
			return s.regions[i].start < s.regions[j].start
		})
		s.regionsDirty = false
	}
	// First region starting after a; candidates are the ones before it.
	i := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].start > a })
	for j := i - 1; j >= 0; j-- {
		r := s.regions[j]
		if a < r.start+r.size {
			return r.name
		}
	}
	return ""
}

// accessPanic reports a bad raw access; out of line so the accessors stay
// leaf-inlinable.
func (s *Space) accessPanic(a Addr, n int) {
	if a == Nil {
		panic("mem: access through nil simulated pointer")
	}
	panic(fmt.Sprintf("mem: access [%#x,%#x) out of arena bounds %d", a, a+uint64(n), len(s.data)))
}

// The raw accessors decode little-endian words with direct byte arithmetic
// on a constant-length subslice: one explicit bounds check, no
// encoding/binary call, and the compiler collapses the byte combine into a
// single load/store on little-endian hosts.

// Load64 reads the 8-byte word at address a (untracked).
func (s *Space) Load64(a Addr) uint64 {
	if a == Nil || a+8 > uint64(len(s.data)) {
		s.accessPanic(a, 8)
	}
	b := s.data[a : a+8]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// Store64 writes the 8-byte word v at address a (untracked).
func (s *Space) Store64(a Addr, v uint64) {
	if a == Nil || a+8 > uint64(len(s.data)) {
		s.accessPanic(a, 8)
	}
	b := s.data[a : a+8]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

// StoreFloat64 writes the float64 v at address a (untracked).
func (s *Space) StoreFloat64(a Addr, v float64) {
	s.Store64(a, math.Float64bits(v))
}

// WriteBytes copies b into the arena at address a (untracked).
func (s *Space) WriteBytes(a Addr, b []byte) {
	if a == Nil || a+uint64(len(b)) > uint64(len(s.data)) {
		s.accessPanic(a, len(b))
	}
	copy(s.data[a:], b)
}

// ReadBytes copies n bytes starting at address a out of the arena (untracked).
func (s *Space) ReadBytes(a Addr, n int) []byte {
	if a == Nil || a+uint64(n) > uint64(len(s.data)) {
		s.accessPanic(a, n)
	}
	out := make([]byte, n)
	copy(out, s.data[a:])
	return out
}
