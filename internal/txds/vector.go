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
