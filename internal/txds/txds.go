// Package txds provides the transactional data structures the STAMP
// benchmarks are built from: sorted linked list, chained hash table,
// red-black tree, queue, binary heap, vector and bitmap — the Go analogues
// of STAMP's lib/ directory.
//
// Every structure lives entirely in simulated memory (internal/mem) and is
// accessed through an htm.Thread, so the same code runs transactionally
// inside a transaction and plainly outside one — mirroring STAMP's TMxxx /
// Pxxx accessor split without duplicating the logic. Handles (List,
// Hashtable, …) are plain values wrapping the structure's base address; a
// List's or an RBTree's can itself be stored in simulated memory as a
// pointer (Handle, and ListAt/RBTreeAt to reverse it).
//
// Keys are int64 and values are opaque 64-bit words (usually simulated
// addresses), matching STAMP's (comparator, void*) pairs.
package txds

import (
	"htmcmp/internal/htm"
	"htmcmp/internal/mem"
)

// w is the simulated word size; field offsets below are in words.
const w = mem.WordSize

// addrOf returns base + index*words.
func fieldAddr(base mem.Addr, field int) mem.Addr {
	return base + uint64(field)*w
}

// loadField reads word field of the record at base.
func loadField(t *htm.Thread, base mem.Addr, field int) uint64 {
	return t.Load64(fieldAddr(base, field))
}

// storeField writes word field of the record at base.
func storeField(t *htm.Thread, base mem.Addr, field int, v uint64) {
	t.Store64(fieldAddr(base, field), v)
}

// Hash64 is the 64-bit finalizer used to spread hash-table keys.
func Hash64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
