package txds

import (
	"htmcmp/internal/htm"
	"htmcmp/internal/mem"
)

// Hashtable is a fixed-bucket chained hash table with int64 keys — the
// structure the paper substitutes for red-black trees in intruder and
// vacation ("similar to the concurrent hash table in the Java standard
// class library", Section 4). A transactional insert or lookup touches only
// the bucket head and a short chain, keeping footprints tiny — which is the
// entire point of the paper's modification.
//
// There is deliberately no global size counter: one shared counter would put
// a hot line into every transaction's write set and serialise the table, a
// TM anti-pattern the Java concurrent hash table also avoids.
//
// Layout: header [nBuckets][bucketArrayPtr]; buckets are chain heads; chain
// node [next][key][value].
type Hashtable struct{ base mem.Addr }

const (
	htNBuckets = 0
	htBuckets  = 1
	htHdrWords = 2
)

// NewHashtable allocates a table with nBuckets chains (rounded up to at
// least 1). The bucket array is line-aligned so adjacent buckets sharing a
// conflict-detection line is a modelled effect, not an allocator accident.
func NewHashtable(t *htm.Thread, nBuckets int) Hashtable {
	if nBuckets < 1 {
		nBuckets = 1
	}
	h := t.Alloc(htHdrWords * w)
	arr := t.AllocAligned(nBuckets*w, t.Engine().LineSize())
	sp := t.Engine().Space()
	sp.Label(h, htHdrWords*w, "txds/hashtable-hdr")
	sp.Label(arr, nBuckets*w, "txds/hashtable-buckets")
	for i := 0; i < nBuckets; i++ {
		t.Store64(arr+uint64(i)*w, mem.Nil)
	}
	storeField(t, h, htNBuckets, uint64(nBuckets))
	storeField(t, h, htBuckets, arr)
	return Hashtable{base: h}
}

func (h Hashtable) bucketAddr(t *htm.Thread, key int64) mem.Addr {
	n := loadField(t, h.base, htNBuckets)
	arr := loadField(t, h.base, htBuckets)
	idx := Hash64(uint64(key)) % n
	return arr + idx*w
}

// Insert adds key→val, returning false if the key was already present.
func (h Hashtable) Insert(t *htm.Thread, key int64, val uint64) bool {
	b := h.bucketAddr(t, key)
	head := t.LoadPtr(b)
	for cur := head; cur != mem.Nil; cur = t.LoadPtr(fieldAddr(cur, listNext)) {
		if int64(loadField(t, cur, listKey)) == key {
			return false
		}
	}
	n := t.Alloc(listNodeWords * w)
	storeField(t, n, listKey, uint64(key))
	storeField(t, n, listVal, val)
	storeField(t, n, listNext, head)
	t.StorePtr(b, n)
	return true
}

// Get returns the value stored under key.
func (h Hashtable) Get(t *htm.Thread, key int64) (uint64, bool) {
	b := h.bucketAddr(t, key)
	for cur := t.LoadPtr(b); cur != mem.Nil; cur = t.LoadPtr(fieldAddr(cur, listNext)) {
		if int64(loadField(t, cur, listKey)) == key {
			return loadField(t, cur, listVal), true
		}
	}
	return 0, false
}

// Remove deletes key, returning its value and whether it was present.
func (h Hashtable) Remove(t *htm.Thread, key int64) (uint64, bool) {
	b := h.bucketAddr(t, key)
	prevLink := b
	for cur := t.LoadPtr(b); cur != mem.Nil; {
		next := t.LoadPtr(fieldAddr(cur, listNext))
		if int64(loadField(t, cur, listKey)) == key {
			v := loadField(t, cur, listVal)
			t.StorePtr(prevLink, next)
			t.Free(cur)
			return v, true
		}
		prevLink = fieldAddr(cur, listNext)
		cur = next
	}
	return 0, false
}

// Each calls fn for every (key, value); iteration order is unspecified. fn
// returning false stops the walk.
func (h Hashtable) Each(t *htm.Thread, fn func(key int64, val uint64) bool) {
	n := int(loadField(t, h.base, htNBuckets))
	arr := loadField(t, h.base, htBuckets)
	for i := 0; i < n; i++ {
		for cur := t.LoadPtr(arr + uint64(i)*w); cur != mem.Nil; cur = t.LoadPtr(fieldAddr(cur, listNext)) {
			if !fn(int64(loadField(t, cur, listKey)), loadField(t, cur, listVal)) {
				return
			}
		}
	}
}
