package main

import (
	"sync"
	"time"

	"htmcmp/internal/htm"
	"htmcmp/internal/mem"
	"htmcmp/internal/platform"
	"htmcmp/internal/tm"
	"htmcmp/internal/txds"
)

// Micro-drivers: each loops over one layer's public functions and reports
// host time per operation. They size a layer's unit costs so that a share in
// the twins' table can be read as "count × unit cost"; they are reported,
// never gated, and an end-to-end claim cannot rest on them.

// sink keeps loads alive.
var sink uint64

// nsPer runs fn, which performs n operations, and returns ns per operation.
func nsPer(n int, fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// unitThread builds a one-thread virtual-time engine, as every measurement
// of the harness uses, with the stochastic prefetcher off so that each
// iteration does the same work. done leaves the scheduled region.
func unitThread(k platform.Kind, spaceSize int) (th *htm.Thread, done func()) {
	e := htm.New(platform.New(k), htm.Config{
		Threads: 1, SpaceSize: spaceSize, Seed: 99, Virtual: true, CostScale: 1, DisablePrefetch: true,
	})
	th = e.Thread(0)
	th.Register()
	th.BeginWork()
	return th, th.ExitWork
}

func unitMetrics() values {
	v := values{}
	v.merge(memUnits())
	v.merge(htmUnits())
	v.merge(tmUnits())
	v.merge(txdsUnits())
	return v
}

func memUnits() values {
	const arena = 64 << 20 // the harness's default SpaceSize
	const n = 1 << 20
	var newMS, resetMS []float64
	var sp *mem.Space
	for i := 0; i < 5; i++ {
		newMS = append(newMS, nsPer(1, func() { sp = mem.NewSpace(arena) })/1e6)
		for j := 0; j < 4096; j++ {
			sp.Store64(sp.Alloc(4096), 1) // dirty 16 MiB so Reset has something to clear
		}
		resetMS = append(resetMS, nsPer(1, sp.Reset)/1e6)
	}
	base := sp.Alloc(n * 8)
	v := values{"mem.newspace_ms": median(newMS), "mem.reset_ms": median(resetMS)}
	v["mem.store64_ns"] = nsPer(n, func() {
		for i := uint64(0); i < n; i++ {
			sp.Store64(base+i*8, i)
		}
	})
	v["mem.load64_ns"] = nsPer(n, func() {
		for i := uint64(0); i < n; i++ {
			sink += sp.Load64(base + i*8)
		}
	})
	v["mem.alloc_ns"] = nsPer(n/4, func() {
		for i := 0; i < n/4; i++ {
			sink += sp.Alloc(64)
		}
	})
	return v
}

func htmUnits() values {
	v := values{}
	const lines = 8
	const n = 400_000

	th, done := unitThread(platform.IntelCore, 1<<20)
	stride := uint64(th.Engine().LineSize())
	a := th.Alloc(64 * int(stride))
	v["htm.tx_load_ns"] = nsPer(n, func() {
		for i := 0; i < n; i += lines {
			th.TryTx(htm.TxNormal, func() {
				for j := uint64(0); j < lines; j++ {
					sink += th.Load64(a + j*stride)
				}
			})
		}
	})
	v["htm.tx_store_ns"] = nsPer(n, func() {
		for i := 0; i < n; i += lines {
			th.TryTx(htm.TxNormal, func() {
				for j := uint64(0); j < lines; j++ {
					th.Store64(a+j*stride, uint64(i))
				}
			})
		}
	})
	v["htm.commit_ns"] = nsPer(n/2, func() {
		for i := 0; i < n/2; i++ {
			th.TryTx(htm.TxNormal, func() { th.Store64(a, th.Load64(a)+1) })
		}
	})
	v["htm.abort_ns"] = nsPer(n/4, func() {
		for i := 0; i < n/4; i++ {
			th.TryTx(htm.TxNormal, func() {
				for j := uint64(0); j < 4; j++ {
					th.Store64(a+j*stride, 1)
				}
				th.Abort()
			})
		}
	})
	v["htm.stm_load_ns"] = nsPer(n, func() {
		for i := 0; i < n; i += 64 {
			th.TrySTM(func() {
				for j := uint64(0); j < 64; j++ {
					sink += th.Load64(a + j*stride)
				}
			})
		}
	})
	v["htm.stm_commit_ns"] = nsPer(n/2, func() {
		for i := 0; i < n/2; i++ {
			th.TrySTM(func() { th.Store64(a, th.Load64(a)+1) })
		}
	})
	done()

	// A strongly-isolated non-transactional load while a transaction is
	// live: POWER8's suspend/resume lets one thread be both.
	th, done = unitThread(platform.POWER8, 1<<20)
	a = th.Alloc(64)
	th.TryTx(htm.TxNormal, func() {
		sink += th.Load64(a)
		th.Suspend()
		v["htm.nontx_load_ns"] = nsPer(n, func() {
			for i := 0; i < n; i++ {
				sink += th.Load64(a)
			}
		})
		th.Resume()
	})
	done()

	v["htm.handoff2_ns"] = handoffNS(2, 40_000)
	v["htm.handoff16_ns"] = handoffNS(16, 5_000)

	// htm.New on a recycled 64 MiB arena with Release after it, as the
	// harness runs it once per engine: the line-table fetch is the cost.
	sp := mem.NewSpace(64 << 20)
	var newMS []float64
	for i := 0; i < 20; i++ {
		var e *htm.Engine
		newMS = append(newMS, nsPer(1, func() {
			e = htm.New(platform.New(platform.IntelCore), htm.Config{
				Threads: 4, SpaceSize: sp.Size(), Space: sp, Seed: 99, Virtual: true, CostScale: 1})
		})/1e6)
		e.Release()
		sp.Reset()
	}
	v["htm.new_ms"] = median(newMS)
	return v
}

// handoffNS runs `threads` registered threads that each call Work(1) `each`
// times with a quantum of one, so every call hands the baton on, and returns
// wall time per scheduler handoff.
func handoffNS(threads, each int) float64 {
	e := htm.New(platform.New(platform.POWER8), htm.Config{
		Threads: threads, SpaceSize: 1 << 20, Seed: 99, Virtual: true, CostScale: 1, Quantum: 1,
	})
	for i := 0; i < threads; i++ {
		e.Thread(i).Register()
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(t *htm.Thread) {
			defer wg.Done()
			t.BeginWork()
			defer t.ExitWork()
			for j := 0; j < each; j++ {
				t.Work(1)
			}
		}(e.Thread(i))
	}
	wg.Wait()
	return ratio(float64(time.Since(start).Nanoseconds()), float64(e.SchedHandoffs()))
}

func tmUnits() values {
	const n = 200_000
	th, done := unitThread(platform.IntelCore, 1<<20)
	defer done()
	x := tm.NewExecutor(th, tm.NewGlobalLock(th.Engine()), tm.DefaultPolicy(platform.IntelCore))
	a := th.Alloc(64)
	body := func(t *htm.Thread) { t.Store64(a, 1) }
	return values{
		"tm.run_ns": nsPer(n, func() {
			for i := 0; i < n; i++ {
				x.Run(body)
			}
		}),
		"tm.run_irrevocable_ns": nsPer(n, func() {
			for i := 0; i < n; i++ {
				x.RunIrrevocable(body)
			}
		}),
	}
}

// txdsUnits times each structure's operation as its own transaction through
// tm.Executor.Run on a zEC12 engine, the way the STAMP ports call them.
func txdsUnits() values {
	const n = 20_000
	th, done := unitThread(platform.ZEC12, 32<<20)
	defer done()
	x := tm.NewExecutor(th, tm.NewGlobalLock(th.Engine()), tm.DefaultPolicy(platform.ZEC12))
	each := func(op func(t *htm.Thread, i int)) float64 {
		return nsPer(n, func() {
			for i := 0; i < n; i++ {
				x.Run(func(t *htm.Thread) { op(t, i) })
			}
		})
	}
	key := func(i int) int64 { return int64(txds.Hash64(uint64(i)) >> 1) }
	v := values{}

	tree := txds.NewRBTree(th)
	v["txds.rbtree_insert_ns"] = each(func(t *htm.Thread, i int) { tree.Insert(t, key(i), uint64(i)) })
	v["txds.rbtree_get_ns"] = each(func(t *htm.Thread, i int) { tree.Get(t, key(i)) })

	table := txds.NewHashtable(th, 4096)
	v["txds.hashtable_insert_ns"] = each(func(t *htm.Thread, i int) { table.Insert(t, key(i), uint64(i)) })
	v["txds.hashtable_get_ns"] = each(func(t *htm.Thread, i int) { table.Get(t, key(i)) })

	// The list is sorted and O(n): keep it at STAMP's bucket-chain length.
	list := txds.NewList(th)
	v["txds.list_insert_ns"] = each(func(t *htm.Thread, i int) {
		if i%32 == 0 {
			list.Clear(t)
		}
		list.Insert(t, key(i), uint64(i))
	})

	queue := txds.NewQueue(th, 64)
	v["txds.queue_pushpop_ns"] = each(func(t *htm.Thread, i int) {
		queue.Push(t, uint64(i))
		queue.Pop(t)
	})

	heap := txds.NewHeap(th, 512)
	for i := 0; i < 256; i++ {
		heap.Push(th, key(i), uint64(i))
	}
	v["txds.heap_pushpop_ns"] = each(func(t *htm.Thread, i int) {
		heap.Push(t, key(i), uint64(i))
		heap.Pop(t)
	})

	bits := txds.NewBitmap(th, n)
	v["txds.bitmap_set_ns"] = each(func(t *htm.Thread, i int) { bits.Set(t, i) })

	vec := txds.NewVector(th, n)
	v["txds.vector_pushback_ns"] = each(func(t *htm.Thread, i int) { vec.PushBack(t, uint64(i)) })
	return v
}
