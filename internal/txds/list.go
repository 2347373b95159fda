package txds

import (
	"htmcmp/internal/htm"
	"htmcmp/internal/mem"
)

// List is a sorted singly-linked list with unique int64 keys — STAMP's
// lib/list.c. The original intruder uses it for ordered sets (one of the
// data-structure choices the paper's Section 4 identifies as TM-unfriendly:
// long traversals put every visited node in the read set).
//
// Layout: header node [next]; node [next][key][value].
type List struct{ base mem.Addr }

const (
	listNext      = 0
	listKey       = 1
	listVal       = 2
	listNodeWords = 3
)

// NewList allocates an empty list.
func NewList(t *htm.Thread) List {
	// Not labelled: workloads (intruder, vacation) create lists inside
	// transactions, and the region registry is setup-time only.
	h := t.Alloc(w) // header holds only next
	t.Store64(h, mem.Nil)
	return List{base: h}
}

// Handle returns the list's base address (for embedding in other
// structures); ListAt reverses it.
func (l List) Handle() mem.Addr { return l.base }

// ListAt reinterprets a stored handle as a List.
func ListAt(a mem.Addr) List { return List{base: a} }

// findPrev returns the node after which key belongs: the last node whose key
// is < key (or the header).
func (l List) findPrev(t *htm.Thread, key int64) mem.Addr {
	prev := l.base
	cur := t.LoadPtr(fieldAddr(prev, listNext))
	for cur != mem.Nil {
		k := int64(loadField(t, cur, listKey))
		if k >= key {
			break
		}
		prev = cur
		cur = t.LoadPtr(fieldAddr(cur, listNext))
	}
	return prev
}

// Insert adds key→val; it returns false (and stores nothing) if the key is
// already present.
func (l List) Insert(t *htm.Thread, key int64, val uint64) bool {
	prev := l.findPrev(t, key)
	next := t.LoadPtr(fieldAddr(prev, listNext))
	if next != mem.Nil && int64(loadField(t, next, listKey)) == key {
		return false
	}
	n := t.Alloc(listNodeWords * w)
	storeField(t, n, listKey, uint64(key))
	storeField(t, n, listVal, val)
	storeField(t, n, listNext, next)
	storeField(t, prev, listNext, n)
	return true
}

// RemoveFirst pops the smallest key, if any.
func (l List) RemoveFirst(t *htm.Thread) (key int64, val uint64, ok bool) {
	first := t.LoadPtr(fieldAddr(l.base, listNext))
	if first == mem.Nil {
		return 0, 0, false
	}
	key = int64(loadField(t, first, listKey))
	val = loadField(t, first, listVal)
	storeField(t, l.base, listNext, loadField(t, first, listNext))
	t.Free(first)
	return key, val, true
}

// Each calls fn for every (key, value) in ascending key order; fn returning
// false stops the walk.
func (l List) Each(t *htm.Thread, fn func(key int64, val uint64) bool) {
	for cur := t.LoadPtr(fieldAddr(l.base, listNext)); cur != mem.Nil; cur = t.LoadPtr(fieldAddr(cur, listNext)) {
		if !fn(int64(loadField(t, cur, listKey)), loadField(t, cur, listVal)) {
			return
		}
	}
}

// Clear removes (and frees) all nodes.
func (l List) Clear(t *htm.Thread) {
	cur := t.LoadPtr(fieldAddr(l.base, listNext))
	for cur != mem.Nil {
		next := t.LoadPtr(fieldAddr(cur, listNext))
		t.Free(cur)
		cur = next
	}
	t.Store64(fieldAddr(l.base, listNext), mem.Nil)
}
