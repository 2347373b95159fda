package htm_test

// bench_hotpath: microbenchmarks over the engine's per-access hot path.
// These are engineering telemetry for the simulator itself (not paper
// figures): they track the host-side cost of transactional loads/stores,
// commit/abort bookkeeping, strongly-isolated non-transactional accesses,
// the NOrec STM fast path, and one full small sweep cell. CI runs them with
// -benchtime=1x as an execution gate and `make bench-hotpath` converts the
// output into BENCH_hotpath.json (see cmd/benchjson) so the performance
// trajectory is recorded PR over PR.

import (
	"testing"

	"htmcmp/internal/harness"
	"htmcmp/internal/htm"
	"htmcmp/internal/obs"
	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
	"htmcmp/internal/tm"
)

// hotpathEngine builds a single-thread engine with the stochastic models
// disabled, so every iteration does identical work.
func hotpathEngine() *htm.Engine {
	return htm.New(platform.New(platform.IntelCore), htm.Config{
		Threads: 1, SpaceSize: 1 << 20, Seed: 99,
		CostScale: 1, DisablePrefetch: true,
	})
}

// run1 runs fn on e's thread 0 as a one-thread scheduled region — where
// every access of a harness measurement executes.
func run1(e *htm.Engine, fn func(th *htm.Thread)) {
	e.Run(1, func(_ int, th *htm.Thread) { fn(th) })
}

// tracedChunk bounds how many b.N units (each at most one transaction) run on
// one traced engine: the event log grows with every transaction, so the
// traced benchmarks build a fresh engine per chunk to keep memory bounded at
// any b.N.
const tracedChunk = 1 << 16

// chunked runs b.N units of op in chunks of at most chunk, each on a fresh
// engine from mk. Building and releasing engines happens with the timer
// stopped; op starts and stops it around the measured loop.
func chunked(b *testing.B, mk func() *htm.Engine, chunk int, op func(e *htm.Engine, n int)) {
	b.StopTimer()
	b.ResetTimer()
	for done := 0; done < b.N; done += chunk {
		e := mk()
		op(e, min(chunk, b.N-done))
		e.Release()
	}
}

// txLoads runs n loads on e as transactions of `lines` distinct-line loads
// each (ns per load).
func txLoads(b *testing.B, lines int) func(e *htm.Engine, n int) {
	return func(e *htm.Engine, n int) {
		run1(e, func(th *htm.Thread) {
			a := th.Alloc(lines * e.LineSize())
			stride := uint64(e.LineSize())
			b.StartTimer()
			for i := 0; i < n; i += lines {
				th.TryTx(htm.TxNormal, func() {
					for j := 0; j < lines; j++ {
						_ = th.Load64(a + uint64(j)*stride)
					}
				})
			}
			b.StopTimer()
		})
	}
}

// txStores runs n stores on e as transactions of `lines` distinct-line
// stores each (ns per store).
func txStores(b *testing.B, lines int) func(e *htm.Engine, n int) {
	return func(e *htm.Engine, n int) {
		run1(e, func(th *htm.Thread) {
			a := th.Alloc(lines * e.LineSize())
			stride := uint64(e.LineSize())
			b.StartTimer()
			for i := 0; i < n; i += lines {
				th.TryTx(htm.TxNormal, func() {
					for j := 0; j < lines; j++ {
						th.Store64(a+uint64(j)*stride, uint64(i+j))
					}
				})
			}
			b.StopTimer()
		})
	}
}

// commits runs n minimal read-modify-write transactions on e (one line in
// the read and write set): begin+commit bookkeeping.
func commits(b *testing.B) func(e *htm.Engine, n int) {
	return func(e *htm.Engine, n int) {
		run1(e, func(th *htm.Thread) {
			a := th.Alloc(64)
			b.StartTimer()
			for i := 0; i < n; i++ {
				th.TryTx(htm.TxNormal, func() {
					th.Store64(a, th.Load64(a)+1)
				})
			}
			b.StopTimer()
		})
	}
}

// untraced runs op over all of b.N on one engine; traced runs it on a fresh
// traced engine every tracedChunk units.
func untraced(b *testing.B, op func(e *htm.Engine, n int)) { chunked(b, hotpathEngine, b.N, op) }
func traced(b *testing.B, op func(e *htm.Engine, n int))   { chunked(b, tracedEngine, tracedChunk, op) }

func BenchmarkHotpathTxLoad8(b *testing.B)   { untraced(b, txLoads(b, 8)) }
func BenchmarkHotpathTxLoad64(b *testing.B)  { untraced(b, txLoads(b, 64)) }
func BenchmarkHotpathTxStore8(b *testing.B)  { untraced(b, txStores(b, 8)) }
func BenchmarkHotpathTxStore64(b *testing.B) { untraced(b, txStores(b, 64)) }

// Traced counterparts: same work with an obs tracer attached. Events are
// recorded only at transaction boundaries, so the per-access numbers should
// be indistinguishable from the untraced runs; the <2% disabled-path
// contract is the untraced benchmarks staying on their BENCH_hotpath.json
// baselines (enforced by cmd/benchjson -gate in CI).
func BenchmarkHotpathTxLoad8Traced(b *testing.B)  { traced(b, txLoads(b, 8)) }
func BenchmarkHotpathTxStore8Traced(b *testing.B) { traced(b, txStores(b, 8)) }

func tracedEngine() *htm.Engine {
	return htm.New(platform.New(platform.IntelCore), htm.Config{
		Threads: 1, SpaceSize: 1 << 20, Seed: 99,
		CostScale: 1, DisablePrefetch: true,
		Tracer: obs.NewTracer(),
	})
}

// BenchmarkHotpathCommitTraced is BenchmarkHotpathCommit with tracing on:
// the cost of two log appends (begin + commit) per transaction.
func BenchmarkHotpathCommitTraced(b *testing.B) { traced(b, commits(b)) }

// BenchmarkHotpathCommit measures begin+commit bookkeeping around a minimal
// read-modify-write transaction (one line in the read and write set).
func BenchmarkHotpathCommit(b *testing.B) { untraced(b, commits(b)) }

// BenchmarkHotpathAbort measures the rollback path: each transaction builds
// a 4-line footprint and explicitly aborts.
func BenchmarkHotpathAbort(b *testing.B) {
	e := hotpathEngine()
	run1(e, func(th *htm.Thread) {
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
	})
}

// BenchmarkHotpathNonTxLoad measures the strongly-isolated non-transactional
// load while a transaction is live on the engine (the path that scans the
// line table). POWER8's suspend/resume lets a single thread be both.
func BenchmarkHotpathNonTxLoad(b *testing.B) {
	e := htm.New(platform.New(platform.POWER8), htm.Config{
		Threads: 1, SpaceSize: 1 << 20, Seed: 99, CostScale: 1,
	})
	run1(e, func(th *htm.Thread) {
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
	})
}

// BenchmarkHotpathSTM measures the NOrec software-transaction fast path
// (8 loads + 8 stores per transaction; ns per access).
func BenchmarkHotpathSTM(b *testing.B) {
	run1(hotpathEngine(), func(th *htm.Thread) {
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
	})
}

// BenchmarkHotpathEngineLifecycle measures what every simulated run pays
// before and after its work: New plus Release at the harness's sizes (64 MiB
// arena, 64-byte lines, so a one-million-record line table), both recycled
// through the package pool.
func BenchmarkHotpathEngineLifecycle(b *testing.B) {
	spec := platform.New(platform.IntelCore)
	for i := 0; i < b.N; i++ {
		htm.New(spec, htm.Config{
			Threads: 4, SpaceSize: 64 << 20, Seed: 99, CostScale: 1,
		}).Release()
	}
}

// benchLockConvoy is the shape of Figure 1's fallback under contention: one
// thread takes the global lock b.N times and does its work irrevocably while
// the others sit in the lemming guard. It reports host ns per critical
// section and how many of the scheduler's elections switched threads (every
// one of them before SpinUntil; the spinners' share is what modes_serial and
// engine_serial were paying).
func benchLockConvoy(b *testing.B, threads int) {
	e := htm.New(platform.New(platform.IntelCore), htm.Config{
		Threads: threads, SpaceSize: 1 << 20, Seed: 99,
		CostScale: 1, DisablePrefetch: true,
	})
	lock := tm.NewGlobalLock(e)
	done := false
	b.ResetTimer()
	e.Run(threads, func(tid int, th *htm.Thread) {
		if tid != 0 {
			for !done {
				lock.WaitUntilFree(th)
				th.Work(8)
			}
			return
		}
		for i := 0; i < b.N; i++ {
			lock.Acquire(th)
			for k := 0; k < 16; k++ {
				th.Work(25)
			}
			lock.Release(th)
			th.Work(8)
		}
		done = true
	})
	b.ReportMetric(float64(e.SchedSwitches())/float64(e.SchedHandoffs()), "switch/handoff")
}

func BenchmarkHotpathLockConvoy4(b *testing.B)  { benchLockConvoy(b, 4) }
func BenchmarkHotpathLockConvoy16(b *testing.B) { benchLockConvoy(b, 16) }

// benchHandoff is the election itself: every thread calls Work(1) at a
// quantum of one, so each call gives the baton away. It reports host ns per
// scheduler handoff on the path experiments use (bench/'s htm.handoffN_ns
// drives the Register/BeginWork/ExitWork adapter instead).
func benchHandoff(b *testing.B, threads int) {
	e := htm.New(platform.New(platform.POWER8), htm.Config{
		Threads: threads, SpaceSize: 1 << 20, Seed: 99, CostScale: 1, Quantum: 1,
	})
	each := b.N/threads + 1
	b.ResetTimer()
	e.Run(threads, func(_ int, th *htm.Thread) {
		for j := 0; j < each; j++ {
			th.Work(1)
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(e.SchedHandoffs()), "ns/handoff")
}

func BenchmarkHotpathHandoff2(b *testing.B)  { benchHandoff(b, 2) }
func BenchmarkHotpathHandoff16(b *testing.B) { benchHandoff(b, 16) }

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
