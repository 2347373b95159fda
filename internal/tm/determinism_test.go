package tm_test

// Determinism regression harness for the engine's hot-path optimizations.
//
// The virtual-time scheduler's contract is that results are bit-identical
// for a given seed: the same virtual clocks, the same conflict pattern, the
// same abort mix — on any host and, critically, across engine-internal
// refactors. This test pins that contract with golden values: a fixed-seed
// mixed workload (small contended read-modify-writes, occasional large
// read-mostly transactions that stress capacity, the Figure 1 retry
// mechanism with the global-lock fallback) runs on each platform at two
// thread counts, and MaxClock plus the engine counters must match the
// values recorded from the seed engine exactly. Any scheduling, conflict
// or cost change — intended or not — trips it.
//
// Golden values were captured from the pre-optimization engine (the PR 1
// tree) and must survive the map-free access sets, virtual-mode lock
// elision and the heap-based scheduler handoff unchanged. If a future PR
// changes virtual-time semantics *on purpose*, regenerate with:
//
//	go test ./internal/tm -run TestGoldenDeterminism -v -golden-print

import (
	"flag"
	"fmt"
	"testing"

	"htmcmp/internal/adapt"
	"htmcmp/internal/htm"
	"htmcmp/internal/obs"
	"htmcmp/internal/platform"
	"htmcmp/internal/tm"
	"htmcmp/internal/verify"
)

var goldenPrint = flag.Bool("golden-print", false, "print measured golden rows instead of asserting")

type goldenRow struct {
	kind     platform.Kind
	threads  int
	maxClock uint64
	begins   uint64
	commits  uint64
	aborts   uint64
	txLoads  uint64
	txStores uint64
}

// goldenRun executes the fixed workload and returns the measured row plus
// the engine's full counter set; a non-nil tracer or witness is attached to
// the engine (neither may perturb the row — see
// TestTracingPreservesDeterminism, TestWitnessPreservesDeterminism, and
// TestTelemetryPreservesDeterminism).
func goldenRun(kind platform.Kind, threads int, tracer *obs.Tracer, wit *htm.Witness) (goldenRow, htm.Stats) {
	spec := platform.New(kind)
	e := htm.New(spec, htm.Config{
		Threads: threads, SpaceSize: 8 << 20, Seed: 20250806,
		CostScale: 1, Tracer: tracer, Witness: wit,
	})
	lock := tm.NewGlobalLock(e)
	setup := e.Thread(0)
	const hotLines = 64
	line := uint64(e.LineSize())
	base := setup.Alloc(hotLines * e.LineSize())
	big := setup.Alloc(64 * e.LineSize())
	e.ResetClocks()
	if wit != nil {
		// Snapshot after setup allocation so the log covers the workload only.
		wit.Start()
	}
	e.Run(threads, func(tid int, th *htm.Thread) {
		x := tm.NewExecutor(th, lock, tm.DefaultPolicy(kind))
		rng := th.Rand()
		for j := 0; j < 200; j++ {
			th.Work(25)
			// Transaction shape is drawn before the attempt so retries
			// re-execute the identical body.
			if j%16 == tid&15 {
				// Large read-mostly transaction: stresses capacity
				// accounting (aborts persistently on POWER8's TMCAM).
				x.Run(func(t *htm.Thread) {
					for l := uint64(0); l < 40; l++ {
						_ = t.Load64(big + l*line)
					}
					t.Store64(big, t.Load64(big)+1)
				})
				continue
			}
			k := 1 + rng.Intn(6)
			off := uint64(rng.Intn(hotLines))
			x.Run(func(t *htm.Thread) {
				for l := uint64(0); l < uint64(k); l++ {
					a := base + ((off+l)%hotLines)*line
					t.Store64(a, t.Load64(a)+1)
				}
			})
		}
	})
	st := e.Stats()
	return goldenRow{
		kind: kind, threads: threads, maxClock: e.MaxClock(),
		begins: st.Begins, commits: st.Commits, aborts: st.Aborts,
		txLoads: st.TxLoads, txStores: st.TxStores,
	}, st
}

// golden holds the values measured on the seed engine (see file comment).
var golden = []goldenRow{
	{kind: platform.BlueGeneQ, threads: 1, maxClock: 64992, begins: 200, commits: 200, aborts: 0, txLoads: 1332, txStores: 612},
	{kind: platform.BlueGeneQ, threads: 2, maxClock: 76735, begins: 430, commits: 398, aborts: 32, txLoads: 2843, txStores: 1319},
	{kind: platform.BlueGeneQ, threads: 4, maxClock: 124663, begins: 1134, commits: 775, aborts: 359, txLoads: 7092, txStores: 3398},
	{kind: platform.BlueGeneQ, threads: 8, maxClock: 209758, begins: 2986, commits: 1506, aborts: 1480, txLoads: 19080, txStores: 8281},
	{kind: platform.ZEC12, threads: 1, maxClock: 17698, begins: 201, commits: 200, aborts: 1, txLoads: 1385, txStores: 664},
	{kind: platform.ZEC12, threads: 2, maxClock: 19950, begins: 434, commits: 399, aborts: 35, txLoads: 2949, txStores: 1389},
	{kind: platform.ZEC12, threads: 4, maxClock: 28538, begins: 1058, commits: 784, aborts: 274, txLoads: 6946, txStores: 3283},
	{kind: platform.ZEC12, threads: 8, maxClock: 48816, begins: 2986, commits: 1528, aborts: 1458, txLoads: 21067, txStores: 8279},
	{kind: platform.IntelCore, threads: 1, maxClock: 16560, begins: 200, commits: 200, aborts: 0, txLoads: 1355, txStores: 635},
	{kind: platform.IntelCore, threads: 2, maxClock: 23304, begins: 508, commits: 394, aborts: 114, txLoads: 3352, txStores: 1584},
	{kind: platform.IntelCore, threads: 4, maxClock: 33996, begins: 1309, commits: 769, aborts: 540, txLoads: 8281, txStores: 3895},
	{kind: platform.IntelCore, threads: 8, maxClock: 59800, begins: 4144, commits: 1444, aborts: 2700, txLoads: 25777, txStores: 11310},
	{kind: platform.POWER8, threads: 1, maxClock: 17976, begins: 200, commits: 200, aborts: 0, txLoads: 1332, txStores: 612},
	{kind: platform.POWER8, threads: 2, maxClock: 20050, begins: 424, commits: 399, aborts: 25, txLoads: 2838, txStores: 1316},
	{kind: platform.POWER8, threads: 4, maxClock: 32078, begins: 1146, commits: 782, aborts: 364, txLoads: 7315, txStores: 3453},
	{kind: platform.POWER8, threads: 8, maxClock: 58432, begins: 3190, commits: 1485, aborts: 1705, txLoads: 21236, txStores: 8573},
}

func TestGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("golden workload is not short")
	}
	if *goldenPrint {
		for _, kind := range []platform.Kind{platform.BlueGeneQ, platform.ZEC12, platform.IntelCore, platform.POWER8} {
			for _, n := range []int{1, 2, 4, 8} {
				g, _ := goldenRun(kind, n, nil, nil)
				fmt.Printf("\t{kind: platform.%v, threads: %d, maxClock: %d, begins: %d, commits: %d, aborts: %d, txLoads: %d, txStores: %d},\n",
					kindName(g.kind), g.threads, g.maxClock, g.begins, g.commits, g.aborts, g.txLoads, g.txStores)
			}
		}
		return
	}
	if len(golden) == 0 {
		t.Fatal("golden table is empty; regenerate with -golden-print")
	}
	for _, want := range golden {
		want := want
		t.Run(fmt.Sprintf("%s-%dt", want.kind.Short(), want.threads), func(t *testing.T) {
			t.Parallel()
			got, _ := goldenRun(want.kind, want.threads, nil, nil)
			if got != want {
				t.Errorf("virtual-time results diverge from the seed engine\n got: %+v\nwant: %+v", got, want)
			}
		})
	}
}

// TestTracingPreservesDeterminism pins the observability contract: attaching
// an event tracer records at transaction boundaries only and never advances
// virtual time, so a traced fixed-seed run must land on the exact golden row
// of the untraced engine — and the trace itself must agree with the engine's
// own counters.
func TestTracingPreservesDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("golden workload is not short")
	}
	for _, want := range golden {
		want := want
		if want.threads != 4 {
			continue // 4-thread rows have the richest conflict mix
		}
		t.Run(fmt.Sprintf("%s-%dt-traced", want.kind.Short(), want.threads), func(t *testing.T) {
			t.Parallel()
			tracer := obs.NewTracer()
			got, _ := goldenRun(want.kind, want.threads, tracer, nil)
			if got != want {
				t.Errorf("tracing perturbed the virtual-time results\n got: %+v\nwant: %+v", got, want)
			}
			var begins, commits, aborts uint64
			for _, ev := range tracer.Events() {
				switch ev.Kind {
				case obs.KindBegin:
					begins++
				case obs.KindCommit:
					commits++
				case obs.KindAbort:
					aborts++
				}
			}
			if begins != want.begins || commits != want.commits || aborts != want.aborts {
				t.Errorf("trace counts begins=%d commits=%d aborts=%d diverge from engine stats %d/%d/%d",
					begins, commits, aborts, want.begins, want.commits, want.aborts)
			}
		})
	}
}

// TestWitnessPreservesDeterminism pins the oracle's zero-overhead contract:
// attaching a commit-order witness records behind a nil check and charges no
// virtual time, so a witnessed fixed-seed run must land on the exact golden
// row of the bare engine — and the recorded log must replay serializably.
// (The golden workload allocates only during setup, so the witness's full
// final-state check applies.)
func TestWitnessPreservesDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("golden workload is not short")
	}
	for _, want := range golden {
		want := want
		if want.threads != 4 {
			continue // 4-thread rows have the richest conflict mix
		}
		t.Run(fmt.Sprintf("%s-%dt-witnessed", want.kind.Short(), want.threads), func(t *testing.T) {
			t.Parallel()
			wit := htm.NewWitness()
			got, _ := goldenRun(want.kind, want.threads, nil, wit)
			if got != want {
				t.Errorf("witnessing perturbed the virtual-time results\n got: %+v\nwant: %+v", got, want)
			}
			if v := verify.Replay(wit.Log()); v != nil {
				t.Errorf("golden workload log does not replay serializably: %v", v)
			}
		})
	}
}

// TestTelemetryPreservesDeterminism pins what a sweep's counters cost a run:
// one post-run publish of the engine's own Stats, as sweep.landed does. The
// engine has no metrics hook to switch on or off — the run must land on the
// golden row, and the published series must be those Stats: totals equal,
// every reason under its own label, per-reason values summing to the abort
// total.
func TestTelemetryPreservesDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("golden workload is not short")
	}
	for _, want := range golden {
		want := want
		if want.threads != 4 {
			continue // 4-thread rows have the richest conflict mix
		}
		t.Run(fmt.Sprintf("%s-%dt-metrics", want.kind.Short(), want.threads), func(t *testing.T) {
			t.Parallel()
			reg := obs.NewRegistry()
			met := obs.NewEngineMetrics(reg, htm.NumReasons, adapt.NumModes)
			got, st := goldenRun(want.kind, want.threads, nil, nil)
			met.Publish(st.Begins, st.Commits, st.Aborts, st.AbortsByReason[:], nil)
			if got != want {
				t.Errorf("the metrics run diverged from the golden row\n got: %+v\nwant: %+v", got, want)
			}
			if b, c, a := met.Begins.Value(), met.Commits.Value(), met.Aborts.Value(); b != want.begins || c != want.commits || a != want.aborts {
				t.Errorf("registry begins/commits/aborts = %d/%d/%d, engine stats = %d/%d/%d",
					b, c, a, want.begins, want.commits, want.aborts)
			}
			var byReason uint64
			for r, c := range met.ByReason {
				if c.Value() != st.AbortsByReason[r] {
					t.Errorf("%s = %d, engine stats = %d", c.Name(), c.Value(), st.AbortsByReason[r])
				}
				byReason += c.Value()
			}
			if byReason != want.aborts {
				t.Errorf("per-reason abort sum = %d, engine stats = %d", byReason, want.aborts)
			}
		})
	}
}

func kindName(k platform.Kind) string {
	switch k {
	case platform.BlueGeneQ:
		return "BlueGeneQ"
	case platform.ZEC12:
		return "ZEC12"
	case platform.IntelCore:
		return "IntelCore"
	case platform.POWER8:
		return "POWER8"
	}
	return "?"
}
