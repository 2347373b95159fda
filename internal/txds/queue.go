package txds

import (
	"htmcmp/internal/htm"
	"htmcmp/internal/mem"
)

// Queue is a growable circular-buffer FIFO of 64-bit values — STAMP's
// lib/queue.c, used by intruder to hand packets between the capture,
// reassembly and detection phases.
//
// Layout: header [pop][push][capacity][arrayPtr]; the array holds values.
// As in STAMP, pop is the index *before* the first element and push is the
// index of the next free slot.
type Queue struct{ base mem.Addr }

const (
	qPop      = 0
	qPush     = 1
	qCapacity = 2
	qArray    = 3
	qHdrWords = 4
)

// NewQueue allocates a queue with the given initial capacity (minimum 2).
func NewQueue(t *htm.Thread, capacity int) Queue {
	if capacity < 2 {
		capacity = 2
	}
	// The header holds the constantly written pop/push cursors; give it a
	// full conflict-detection line so unrelated allocations sharing the
	// line do not get doomed by every queue operation.
	line := t.Engine().LineSize()
	hdrBytes := qHdrWords * w
	if hdrBytes < line {
		hdrBytes = line
	}
	h := t.AllocAligned(hdrBytes, line)
	arr := t.Alloc(capacity * w)
	sp := t.Engine().Space()
	sp.Label(h, hdrBytes, "txds/queue-hdr")
	sp.Label(arr, capacity*w, "txds/queue-array")
	storeField(t, h, qPop, uint64(capacity-1))
	storeField(t, h, qPush, 0)
	storeField(t, h, qCapacity, uint64(capacity))
	storeField(t, h, qArray, arr)
	return Queue{base: h}
}

// Empty reports whether the queue has no elements.
func (q Queue) Empty(t *htm.Thread) bool {
	pop := loadField(t, q.base, qPop)
	push := loadField(t, q.base, qPush)
	cap := loadField(t, q.base, qCapacity)
	return push == (pop+1)%cap
}

// Push appends v, doubling the backing array when full (STAMP's
// queue_push). The old array is freed.
func (q Queue) Push(t *htm.Thread, v uint64) {
	pop := loadField(t, q.base, qPop)
	push := loadField(t, q.base, qPush)
	cap := loadField(t, q.base, qCapacity)
	arr := loadField(t, q.base, qArray)

	newPush := (push + 1) % cap
	if newPush == pop { // full: grow
		newCap := cap * 2
		newArr := t.Alloc(int(newCap) * w)
		// Copy elements in order into the new array starting at 0.
		n := uint64(0)
		for i := (pop + 1) % cap; i != push; i = (i + 1) % cap {
			t.Store64(newArr+n*w, t.Load64(arr+i*w))
			n++
		}
		t.Free(arr)
		storeField(t, q.base, qArray, newArr)
		storeField(t, q.base, qCapacity, newCap)
		storeField(t, q.base, qPop, newCap-1)
		storeField(t, q.base, qPush, n)
		arr, cap, push = newArr, newCap, n
	}
	t.Store64(arr+push*w, v)
	storeField(t, q.base, qPush, (push+1)%cap)
}

// Pop removes and returns the oldest element.
func (q Queue) Pop(t *htm.Thread) (uint64, bool) {
	pop := loadField(t, q.base, qPop)
	push := loadField(t, q.base, qPush)
	cap := loadField(t, q.base, qCapacity)
	newPop := (pop + 1) % cap
	if newPop == push {
		return 0, false
	}
	arr := loadField(t, q.base, qArray)
	v := t.Load64(arr + newPop*w)
	storeField(t, q.base, qPop, newPop)
	return v, true
}
