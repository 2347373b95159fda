package htm_test

// bench_hotpath: microbenchmarks over the engine's per-access hot path.
// These are engineering telemetry for the simulator itself (not paper
// figures): they track the host-side cost of transactional loads/stores,
// commit/abort bookkeeping, strongly-isolated non-transactional accesses,
// the NOrec STM fast path, and one full small sweep cell. CI runs them with
// -benchtime=1x as an execution gate and `make bench-hotpath` converts the
// output into BENCH_hotpath.json (see cmd/benchjson) so the performance
// trajectory is recorded PR over PR.
//
// All benchmarks run in virtual mode — the configuration every harness
// measurement uses — except HotpathTxLoadReal/HotpathTxStoreReal, which keep
// real concurrency (and therefore the sharded line-table locks) to expose
// the cost of the locked path.

import (
	"sync"
	"sync/atomic"
	"testing"

	"htmcmp/internal/harness"
	"htmcmp/internal/htm"
	"htmcmp/internal/obs"
	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
	"htmcmp/internal/tm"
)

// hotpathEngine builds a single-thread virtual-mode engine with the
// stochastic models disabled, so every iteration does identical work.
func hotpathEngine(virtual bool) (*htm.Engine, *htm.Thread) {
	e := htm.New(platform.New(platform.IntelCore), htm.Config{
		Threads: 1, SpaceSize: 1 << 20, Seed: 99, Virtual: virtual,
		CostScale: 1, DisablePrefetch: true,
	})
	th := e.Thread(0)
	if virtual {
		th.Register()
		th.BeginWork()
	}
	return e, th
}

// benchTxLoads runs transactions of `lines` distinct-line loads each and
// reports ns per load.
func benchTxLoads(b *testing.B, virtual bool, lines int) {
	e, th := hotpathEngine(virtual)
	if virtual {
		defer th.ExitWork()
	}
	a := th.Alloc(lines * e.LineSize())
	stride := uint64(e.LineSize())
	b.ResetTimer()
	for i := 0; i < b.N; i += lines {
		th.TryTx(htm.TxNormal, func() {
			for j := 0; j < lines; j++ {
				_ = th.Load64(a + uint64(j)*stride)
			}
		})
	}
}

// benchTxStores runs transactions of `lines` distinct-line stores each and
// reports ns per store.
func benchTxStores(b *testing.B, virtual bool, lines int) {
	e, th := hotpathEngine(virtual)
	if virtual {
		defer th.ExitWork()
	}
	a := th.Alloc(lines * e.LineSize())
	stride := uint64(e.LineSize())
	b.ResetTimer()
	for i := 0; i < b.N; i += lines {
		th.TryTx(htm.TxNormal, func() {
			for j := 0; j < lines; j++ {
				th.Store64(a+uint64(j)*stride, uint64(i+j))
			}
		})
	}
}

func BenchmarkHotpathTxLoad8(b *testing.B)   { benchTxLoads(b, true, 8) }
func BenchmarkHotpathTxLoad64(b *testing.B)  { benchTxLoads(b, true, 64) }
func BenchmarkHotpathTxStore8(b *testing.B)  { benchTxStores(b, true, 8) }
func BenchmarkHotpathTxStore64(b *testing.B) { benchTxStores(b, true, 64) }

// Traced counterparts: same work with an obs tracer attached. Events are
// recorded only at transaction boundaries, so the per-access numbers should
// be indistinguishable from the untraced runs; the <2% disabled-path
// contract is the untraced benchmarks staying on their BENCH_hotpath.json
// baselines (enforced by cmd/benchjson -gate in CI).
func BenchmarkHotpathTxLoad8Traced(b *testing.B)  { benchTxLoadsTraced(b, 8) }
func BenchmarkHotpathTxStore8Traced(b *testing.B) { benchTxStoresTraced(b, 8) }

func tracedEngine() (*htm.Engine, *htm.Thread) {
	e := htm.New(platform.New(platform.IntelCore), htm.Config{
		Threads: 1, SpaceSize: 1 << 20, Seed: 99, Virtual: true,
		CostScale: 1, DisablePrefetch: true,
		Tracer: obs.NewTracer(1, obs.DefaultRingEvents),
	})
	th := e.Thread(0)
	th.Register()
	th.BeginWork()
	return e, th
}

func benchTxLoadsTraced(b *testing.B, lines int) {
	e, th := tracedEngine()
	defer th.ExitWork()
	a := th.Alloc(lines * e.LineSize())
	stride := uint64(e.LineSize())
	b.ResetTimer()
	for i := 0; i < b.N; i += lines {
		th.TryTx(htm.TxNormal, func() {
			for j := 0; j < lines; j++ {
				_ = th.Load64(a + uint64(j)*stride)
			}
		})
	}
}

func benchTxStoresTraced(b *testing.B, lines int) {
	e, th := tracedEngine()
	defer th.ExitWork()
	a := th.Alloc(lines * e.LineSize())
	stride := uint64(e.LineSize())
	b.ResetTimer()
	for i := 0; i < b.N; i += lines {
		th.TryTx(htm.TxNormal, func() {
			for j := 0; j < lines; j++ {
				th.Store64(a+uint64(j)*stride, uint64(i+j))
			}
		})
	}
}

// BenchmarkHotpathCommitTraced is BenchmarkHotpathCommit with tracing on:
// the cost of two ring records (begin + commit) per transaction.
func BenchmarkHotpathCommitTraced(b *testing.B) {
	_, th := tracedEngine()
	defer th.ExitWork()
	a := th.Alloc(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.TryTx(htm.TxNormal, func() {
			th.Store64(a, th.Load64(a)+1)
		})
	}
}

// Real-concurrency counterparts: the locked line-table path must stay
// correct (it runs under -race in CI) but is allowed to be slower.
func BenchmarkHotpathTxLoadReal8(b *testing.B)  { benchTxLoads(b, false, 8) }
func BenchmarkHotpathTxStoreReal8(b *testing.B) { benchTxStores(b, false, 8) }

// BenchmarkHotpathCommit measures begin+commit bookkeeping around a minimal
// read-modify-write transaction (one line in the read and write set).
func BenchmarkHotpathCommit(b *testing.B) {
	_, th := hotpathEngine(true)
	defer th.ExitWork()
	a := th.Alloc(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.TryTx(htm.TxNormal, func() {
			th.Store64(a, th.Load64(a)+1)
		})
	}
}

// BenchmarkHotpathAbort measures the rollback path: each transaction builds
// a 4-line footprint and explicitly aborts.
func BenchmarkHotpathAbort(b *testing.B) {
	e, th := hotpathEngine(true)
	defer th.ExitWork()
	a := th.Alloc(4 * e.LineSize())
	stride := uint64(e.LineSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		committed, _ := th.TryTx(htm.TxNormal, func() {
			for j := 0; j < 4; j++ {
				th.Store64(a+uint64(j)*stride, 1)
			}
			th.Abort()
		})
		if committed {
			b.Fatal("explicitly aborted transaction committed")
		}
	}
}

// BenchmarkHotpathNonTxLoad measures the strongly-isolated non-transactional
// load while a transaction is live on the engine (the path that scans the
// line table). POWER8's suspend/resume lets a single thread be both.
func BenchmarkHotpathNonTxLoad(b *testing.B) {
	e := htm.New(platform.New(platform.POWER8), htm.Config{
		Threads: 1, SpaceSize: 1 << 20, Seed: 99, Virtual: true, CostScale: 1,
	})
	th := e.Thread(0)
	th.Register()
	th.BeginWork()
	defer th.ExitWork()
	a := th.Alloc(64)
	b.ResetTimer()
	th.TryTx(htm.TxNormal, func() {
		_ = th.Load64(a)
		th.Suspend()
		for i := 0; i < b.N; i++ {
			_ = th.Load64(a) // suspended: non-transactional, tx still live
		}
		th.Resume()
	})
}

// BenchmarkHotpathSTM measures the NOrec software-transaction fast path
// (8 loads + 8 stores per transaction; ns per access).
func BenchmarkHotpathSTM(b *testing.B) {
	_, th := hotpathEngine(true)
	defer th.ExitWork()
	a := th.Alloc(16 * 64)
	b.ResetTimer()
	for i := 0; i < b.N; i += 16 {
		th.TrySTM(func() {
			for j := 0; j < 8; j++ {
				v := th.Load64(a + uint64(j*64))
				th.Store64(a+uint64((8+j)*64), v+1)
			}
		})
	}
}

// BenchmarkHotpathEngineLifecycle measures what every simulated run pays
// before and after its work: New plus Release at the harness's sizes (64 MiB
// arena, 64-byte lines, so a one-million-record line table), both recycled
// through the package pool.
func BenchmarkHotpathEngineLifecycle(b *testing.B) {
	spec := platform.New(platform.IntelCore)
	for i := 0; i < b.N; i++ {
		htm.New(spec, htm.Config{
			Threads: 4, SpaceSize: 64 << 20, Seed: 99, Virtual: true, CostScale: 1,
		}).Release()
	}
}

// benchLockConvoy is the shape of Figure 1's fallback under contention: one
// thread takes the global lock b.N times and does its work irrevocably while
// the others sit in the lemming guard. It reports host ns per critical
// section and how many of the scheduler's elections needed a goroutine
// switch (every one of them before SpinUntil; the spinners' share is what
// modes_serial and engine_serial were paying).
func benchLockConvoy(b *testing.B, threads int) {
	e := htm.New(platform.New(platform.IntelCore), htm.Config{
		Threads: threads, SpaceSize: 1 << 20, Seed: 99, Virtual: true,
		CostScale: 1, DisablePrefetch: true,
	})
	lock := tm.NewGlobalLock(e)
	for i := 0; i < threads; i++ {
		e.Thread(i).Register()
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	b.ResetTimer()
	for i := 1; i < threads; i++ {
		wg.Add(1)
		go func(th *htm.Thread) {
			defer wg.Done()
			th.BeginWork()
			defer th.ExitWork()
			for !done.Load() {
				lock.WaitUntilFree(th)
				th.Work(8)
			}
		}(e.Thread(i))
	}
	th := e.Thread(0)
	th.BeginWork()
	for i := 0; i < b.N; i++ {
		lock.Acquire(th)
		for k := 0; k < 16; k++ {
			th.Work(25)
		}
		lock.Release(th)
		th.Work(8)
	}
	done.Store(true)
	th.ExitWork()
	wg.Wait()
	b.ReportMetric(float64(e.SchedSwitches())/float64(e.SchedHandoffs()), "switch/handoff")
}

func BenchmarkHotpathLockConvoy4(b *testing.B)  { benchLockConvoy(b, 4) }
func BenchmarkHotpathLockConvoy16(b *testing.B) { benchLockConvoy(b, 16) }

// BenchmarkHotpathSweepSmall runs one full harness sweep cell (kmeans-low on
// Intel, 4 threads, test scale) per iteration: the end-to-end number the
// figure sweeps are made of.
func BenchmarkHotpathSweepSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Run(harness.RunSpec{
			Platform: platform.IntelCore, Benchmark: "kmeans-low",
			Threads: 4, Scale: stamp.ScaleTest, Repeats: 1, Seed: 42,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
