package txds

import (
	"htmcmp/internal/htm"
	"htmcmp/internal/mem"
)

// Heap is a growable binary max-heap of (priority, value) pairs — STAMP's
// lib/heap.c, used by yada as the shared work queue of bad triangles.
//
// Layout: header [size][capacity][arrayPtr]; the array holds pairs of words
// (priority, value), 1-indexed like the STAMP original (slot 0 unused).
type Heap struct{ base mem.Addr }

const (
	hpSize     = 0
	hpCapacity = 1
	hpArray    = 2
	hpHdrWords = 3
)

// NewHeap allocates a heap with the given initial capacity (minimum 1).
func NewHeap(t *htm.Thread, capacity int) Heap {
	if capacity < 1 {
		capacity = 1
	}
	// The header's size field is written by every push/pop; isolate it on
	// its own conflict-detection line (see Queue).
	line := t.Engine().LineSize()
	hdrBytes := hpHdrWords * w
	if hdrBytes < line {
		hdrBytes = line
	}
	h := t.AllocAligned(hdrBytes, line)
	arr := t.Alloc((capacity + 1) * 2 * w)
	sp := t.Engine().Space()
	sp.Label(h, hdrBytes, "txds/heap-hdr")
	sp.Label(arr, (capacity+1)*2*w, "txds/heap-array")
	storeField(t, h, hpSize, 0)
	storeField(t, h, hpCapacity, uint64(capacity))
	storeField(t, h, hpArray, arr)
	return Heap{base: h}
}

// Len returns the number of elements.
func (h Heap) Len(t *htm.Thread) int { return int(loadField(t, h.base, hpSize)) }

func (h Heap) prio(t *htm.Thread, arr mem.Addr, i uint64) int64 {
	return int64(t.Load64(arr + (2*i)*w))
}

func (h Heap) val(t *htm.Thread, arr mem.Addr, i uint64) uint64 {
	return t.Load64(arr + (2*i+1)*w)
}

func (h Heap) put(t *htm.Thread, arr mem.Addr, i uint64, p int64, v uint64) {
	t.Store64(arr+(2*i)*w, uint64(p))
	t.Store64(arr+(2*i+1)*w, v)
}

// Push inserts value v with priority p, growing the array when full.
func (h Heap) Push(t *htm.Thread, p int64, v uint64) {
	size := loadField(t, h.base, hpSize)
	cap := loadField(t, h.base, hpCapacity)
	arr := loadField(t, h.base, hpArray)
	if size == cap {
		newCap := cap * 2
		newArr := t.Alloc(int(newCap+1) * 2 * w)
		for i := uint64(1); i <= size; i++ {
			h.put(t, newArr, i, h.prio(t, arr, i), h.val(t, arr, i))
		}
		t.Free(arr)
		storeField(t, h.base, hpArray, newArr)
		storeField(t, h.base, hpCapacity, newCap)
		arr = newArr
	}
	// Sift up.
	i := size + 1
	for i > 1 {
		par := i / 2
		if h.prio(t, arr, par) >= p {
			break
		}
		h.put(t, arr, i, h.prio(t, arr, par), h.val(t, arr, par))
		i = par
	}
	h.put(t, arr, i, p, v)
	storeField(t, h.base, hpSize, size+1)
}

// Pop removes and returns the highest-priority element.
func (h Heap) Pop(t *htm.Thread) (p int64, v uint64, ok bool) {
	size := loadField(t, h.base, hpSize)
	if size == 0 {
		return 0, 0, false
	}
	arr := loadField(t, h.base, hpArray)
	p = h.prio(t, arr, 1)
	v = h.val(t, arr, 1)
	lastP := h.prio(t, arr, size)
	lastV := h.val(t, arr, size)
	size--
	storeField(t, h.base, hpSize, size)
	if size == 0 {
		return p, v, true
	}
	// Sift the former last element down from the root.
	i := uint64(1)
	for {
		c := 2 * i
		if c > size {
			break
		}
		if c+1 <= size && h.prio(t, arr, c+1) > h.prio(t, arr, c) {
			c++
		}
		if h.prio(t, arr, c) <= lastP {
			break
		}
		h.put(t, arr, i, h.prio(t, arr, c), h.val(t, arr, c))
		i = c
	}
	h.put(t, arr, i, lastP, lastV)
	return p, v, true
}
