package htm

import (
	"sync"

	"htmcmp/internal/mem"
)

// Engine memory pooling. An engine's two big allocations are the simulated
// arena (64 MiB by default) and the line-ownership table sized by it (one
// million lineRecs, ~40 MB, at 64-byte lines). A sweep builds four engines
// per cell, so both are recycled through Engine.Release, and recycling
// costs what the previous run touched, never the size of the arena:
//
//   - The arena comes back through mem.Space.Reset, which wipes only the
//     high-water-marked region and restores fresh-Space allocation
//     behaviour exactly.
//   - The line table is never wiped. Every lineRec carries the epoch of the
//     engine that last wrote it, a pooled table carries the epoch of its
//     last tenant, and getLineTable hands the table out under the next
//     epoch. Thread.rec treats a record stamped with any other epoch as
//     quiescent (no writer, no readers) and restamps it on first touch, so
//     a recycled table is indistinguishable from a fresh one whatever the
//     previous engine left behind — reader bits and writers of abandoned
//     transactions included. A fresh table is all zeroes, epoch 0, which no
//     engine ever runs under, so make needs no init loop either. Only when
//     a table's epoch wraps uint32 could an old stamp alias a live one;
//     that one hand-out in 2^32 zeroes the table.
//
// Tables and arenas are pooled per size, one sync.Pool for each length in
// use: an engine only ever draws memory of exactly the length it asked for.

var (
	lineTablePools sync.Map // records -> *sync.Pool of *lineTable
	spacePools     sync.Map // arena bytes -> *sync.Pool of *mem.Space in post-Reset state
)

// sizedPool returns m's pool for the given size.
func sizedPool(m *sync.Map, size int) *sync.Pool {
	p, ok := m.Load(size)
	if !ok {
		p, _ = m.LoadOrStore(size, &sync.Pool{})
	}
	return p.(*sync.Pool)
}

// lineTable is a line-ownership table and the epoch its current (or, while
// pooled, its last) engine stamps records with.
type lineTable struct {
	recs  []lineRec
	epoch uint32
}

// getLineTable returns a table of exactly n records, all of them stale
// under the returned table's epoch.
func getLineTable(n int) *lineTable {
	lt, _ := sizedPool(&lineTablePools, n).Get().(*lineTable)
	if lt == nil {
		return &lineTable{recs: make([]lineRec, n), epoch: 1}
	}
	lt.epoch++
	if lt.epoch == 0 {
		clear(lt.recs)
		lt.epoch = 1
	}
	return lt
}

// getSpace returns a fresh or Reset arena of the given (aligned) size.
func getSpace(size int) *mem.Space {
	if sp, _ := sizedPool(&spacePools, size).Get().(*mem.Space); sp != nil {
		return sp
	}
	return mem.NewSpace(size)
}

// Release returns the engine's line table to the package pool and, when the
// engine leased its own arena (nil Config.Space), Resets the arena and pools
// it too. A caller-supplied Config.Space is only detached: the caller owns
// it and recycles it with mem.Space.Reset. Call once all threads are
// quiescent and every needed result (Stats, MaxClock, ...) has been read;
// the engine and its Threads are unusable afterwards. Optional: an
// un-Released engine is simply collected by the GC.
func (e *Engine) Release() {
	lt, sp := e.table, e.space
	if lt == nil {
		return
	}
	e.table, e.space = nil, nil
	for _, t := range e.threads {
		t.lines, t.data = nil, nil
	}
	sizedPool(&lineTablePools, len(lt.recs)).Put(lt)
	if e.cfg.Space == nil {
		sp.Reset()
		sizedPool(&spacePools, sp.Size()).Put(sp)
	}
}
