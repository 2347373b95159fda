package txds

import (
	"htmcmp/internal/htm"
	"htmcmp/internal/mem"
)

// Vector is a growable array of 64-bit values — STAMP's lib/vector.c, used
// by yada (cavity element lists) and labyrinth (path point lists).
//
// Layout: header [size][capacity][arrayPtr].
type Vector struct{ base mem.Addr }

const (
	vecSize     = 0
	vecCapacity = 1
	vecArray    = 2
	vecHdrWords = 3
)

// NewVector allocates a vector with the given initial capacity (minimum 1).
func NewVector(t *htm.Thread, capacity int) Vector {
	if capacity < 1 {
		capacity = 1
	}
	h := t.Alloc(vecHdrWords * w)
	arr := t.Alloc(capacity * w)
	sp := t.Engine().Space()
	sp.Label(h, vecHdrWords*w, "txds/vector-hdr")
	sp.Label(arr, capacity*w, "txds/vector-array")
	storeField(t, h, vecSize, 0)
	storeField(t, h, vecCapacity, uint64(capacity))
	storeField(t, h, vecArray, arr)
	return Vector{base: h}
}

// Len returns the number of elements.
func (v Vector) Len(t *htm.Thread) int { return int(loadField(t, v.base, vecSize)) }

// PushBack appends x, doubling the array when full.
func (v Vector) PushBack(t *htm.Thread, x uint64) {
	size := loadField(t, v.base, vecSize)
	cap := loadField(t, v.base, vecCapacity)
	arr := loadField(t, v.base, vecArray)
	if size == cap {
		newCap := cap * 2
		newArr := t.Alloc(int(newCap) * w)
		for i := uint64(0); i < size; i++ {
			t.Store64(newArr+i*w, t.Load64(arr+i*w))
		}
		t.Free(arr)
		storeField(t, v.base, vecArray, newArr)
		storeField(t, v.base, vecCapacity, newCap)
		arr = newArr
	}
	t.Store64(arr+size*w, x)
	storeField(t, v.base, vecSize, size+1)
}

// PopBack removes and returns the last element.
func (v Vector) PopBack(t *htm.Thread) (uint64, bool) {
	size := loadField(t, v.base, vecSize)
	if size == 0 {
		return 0, false
	}
	arr := loadField(t, v.base, vecArray)
	x := t.Load64(arr + (size-1)*w)
	storeField(t, v.base, vecSize, size-1)
	return x, true
}

// At returns element i; it panics on out-of-range access (a workload bug).
func (v Vector) At(t *htm.Thread, i int) uint64 {
	size := int(loadField(t, v.base, vecSize))
	if i < 0 || i >= size {
		panic("txds: vector index out of range")
	}
	arr := loadField(t, v.base, vecArray)
	return t.Load64(arr + uint64(i)*w)
}

// SetAt replaces element i.
func (v Vector) SetAt(t *htm.Thread, i int, x uint64) {
	size := int(loadField(t, v.base, vecSize))
	if i < 0 || i >= size {
		panic("txds: vector index out of range")
	}
	arr := loadField(t, v.base, vecArray)
	t.Store64(arr+uint64(i)*w, x)
}

// Clear resets the vector to length zero without shrinking.
func (v Vector) Clear(t *htm.Thread) { storeField(t, v.base, vecSize, 0) }
