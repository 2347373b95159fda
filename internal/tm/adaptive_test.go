package tm_test

// Integration tests of the adaptive hybrid-TM runtime: all three execution
// modes (hardware TM, NOrec STM, global lock) coexisting in one virtual-time
// run, with the engine's hybrid-NOrec fences keeping them mutually isolated.
//
// The workload mixes a hot conflict-bound site with a capacity-bound site
// that overflows POWER8's TMCAM on every hardware attempt, so the controller
// demotes it to STM early — producing genuine concurrent HTM/STM execution
// whose atomicity the shared-counter checks and the serializability oracle
// then verify.

import (
	"bytes"
	"fmt"
	"testing"

	"htmcmp/internal/adapt"
	"htmcmp/internal/chaos"
	"htmcmp/internal/htm"
	"htmcmp/internal/obs"
	"htmcmp/internal/platform"
	"htmcmp/internal/tm"
	"htmcmp/internal/verify"
)

// adaptiveRun executes the mixed workload under the controller's fixed
// policy and returns the engine and the summed runtime stats.
func adaptiveRun(t *testing.T, kind platform.Kind, threads, iters int,
	tracer *obs.Tracer, wit *htm.Witness) (*htm.Engine, tm.Stats) {
	t.Helper()
	spec := platform.New(kind)
	e := htm.New(spec, htm.Config{
		Threads: threads, SpaceSize: 8 << 20, Seed: 20250808,
		CostScale: 1, Tracer: tracer, Witness: wit,
	})
	lock := tm.NewGlobalLock(e)
	ctl := adapt.NewController(nil)
	setup := e.Thread(0)
	line := uint64(e.LineSize())
	const hotLines = 8
	hot := setup.Alloc(hotLines * e.LineSize())
	// A footprint comfortably past POWER8's TMCAM line budget, so hardware
	// attempts of the big site abort persistently with capacity.
	bigLines := 2 * (spec.LoadCapacity / e.LineSize())
	if bigLines < 16 {
		bigLines = 16
	}
	big := setup.Alloc(bigLines * e.LineSize())
	total := setup.Alloc(8) // shared commit counter: every execution adds 1
	e.ResetClocks()
	if wit != nil {
		wit.Start()
	}

	// One source-level closure per transaction site (the controller keys
	// sites by the closure's code pointer). The big site also touches the
	// hot lines, so once it runs as STM its commits overlap in-flight
	// hardware transactions of the hot site — exercising the gate fence.
	stats := make([]tm.Stats, threads)
	e.Run(threads, func(tid int, th *htm.Thread) {
		x := tm.NewExecutorConfig(th, lock, tm.Config{
			Policy: tm.DefaultPolicy(kind),
			Adapt:  ctl,
		})
		rng := th.Rand()
		hotBody := func(t *htm.Thread) {
			off := uint64(rng.Intn(hotLines))
			for l := uint64(0); l < 3; l++ {
				a := hot + ((off+l)%hotLines)*line
				t.Store64(a, t.Load64(a)+1)
			}
			t.Store64(total, t.Load64(total)+1)
		}
		bigBody := func(t *htm.Thread) {
			var sum uint64
			for l := uint64(0); l < uint64(bigLines); l++ {
				sum += t.Load64(big + l*line)
			}
			a := hot + (sum%hotLines)*line
			t.Store64(a, t.Load64(a)+1)
			t.Store64(total, t.Load64(total)+1)
		}
		for j := 0; j < iters; j++ {
			th.Work(20)
			if j%8 == tid&7 {
				x.Run(bigBody)
			} else {
				x.Run(hotBody)
			}
		}
		stats[tid] = x.Stats
	})
	var sum tm.Stats
	for i := range stats {
		sum.Add(&stats[i])
	}
	// The total counter must equal the committed executions across all
	// modes: any HTM/STM/lock isolation failure shows up as a lost update.
	got := setup.Load64(total)
	want := uint64(threads * iters)
	if got != want {
		t.Fatalf("lost updates across hybrid modes: total counter = %d, want %d", got, want)
	}
	if sum.Commits() != want {
		t.Fatalf("commit accounting: Commits() = %d, want %d", sum.Commits(), want)
	}
	return e, sum
}

func TestAdaptiveHybridCorrectness(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptive workload is not short")
	}
	_, sum := adaptiveRun(t, platform.POWER8, 4, 160, nil, nil)
	if sum.STMCommits == 0 {
		t.Error("capacity-bound site never ran as STM; the demotion path was not exercised")
	}
	if sum.HTMCommits == 0 {
		t.Error("no hardware commits at all")
	}
	if sum.ModeSwitches == 0 {
		t.Error("controller recorded no mode switches")
	}
	// The per-target split is the same count: it sums to the total, and the
	// capacity-bound site's demotion away from HTM shows up under STM.
	var split uint64
	for _, n := range sum.ModeSwitchesTo {
		split += n
	}
	if split != sum.ModeSwitches || sum.ModeSwitchesTo[adapt.ModeSTM] == 0 {
		t.Errorf("ModeSwitchesTo = %v, want a sum of %d with STM demotions", sum.ModeSwitchesTo, sum.ModeSwitches)
	}
}

// TestAdaptiveDeterminism pins the virtual-time contract for hybrid runs:
// the controller's decisions depend only on per-site history and the
// per-thread PRNGs, so a fixed seed reproduces bit-identical results.
func TestAdaptiveDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptive workload is not short")
	}
	type row struct {
		maxClock                        uint64
		commits, aborts, stmC, htmC, sw uint64
	}
	run := func() row {
		e, sum := adaptiveRun(t, platform.POWER8, 4, 120, nil, nil)
		return row{
			maxClock: e.MaxClock(), commits: sum.Commits(), aborts: sum.Aborts,
			stmC: sum.STMCommits, htmC: sum.HTMCommits, sw: sum.ModeSwitches,
		}
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("adaptive runs diverge for a fixed seed\n first: %+v\nsecond: %+v", a, b)
	}
}

// TestAdaptiveWitnessSerializable runs the serializability oracle over a
// hybrid run: the commit-order log of interleaved HTM, STM and lock
// executions must replay serializably — the end-to-end check that the gate
// subscription, the writer fence and the lock fence compose correctly.
func TestAdaptiveWitnessSerializable(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptive workload is not short")
	}
	wit := htm.NewWitness()
	_, _ = adaptiveRun(t, platform.POWER8, 4, 120, nil, wit)
	if v := verify.Replay(wit.Log()); v != nil {
		t.Fatalf("hybrid run does not replay serializably: %v", v)
	}
}

// TestAdaptiveModeSwitchEvents checks the observability contract: every
// steady-mode transition is emitted as a KindModeSwitch event, the JSONL
// encoding round-trips, and the stream passes schema validation.
func TestAdaptiveModeSwitchEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptive workload is not short")
	}
	const threads = 4
	tracer := obs.NewTracer()
	_, sum := adaptiveRun(t, platform.POWER8, threads, 120, tracer, nil)
	events := tracer.Events()
	var switches uint64
	for _, ev := range events {
		if ev.Kind == obs.KindModeSwitch {
			switches++
			from, to := obs.ModeName(uint8(ev.Aborter)), obs.ModeName(ev.Reason)
			if from == to {
				t.Errorf("self-transition event %s -> %s", from, to)
			}
			for _, name := range []string{from, to} {
				switch name {
				case "htm", "stm", "lock":
				default:
					t.Errorf("unknown mode name %q in event", name)
				}
			}
		}
	}
	if switches != sum.ModeSwitches {
		t.Errorf("trace has %d mode-switch events, executors counted %d", switches, sum.ModeSwitches)
	}
	if switches == 0 {
		t.Error("no mode-switch events recorded")
	}
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, events); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	if n, err := obs.Validate(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("mode events fail schema validation after %d events: %v", n, err)
	}
	if r := obs.Aggregate(events, obs.ReportOptions{}); r.ModeSwitches != switches {
		t.Errorf("Aggregate counted %d mode switches, want %d", r.ModeSwitches, switches)
	}
}

// TestAdaptiveLockMode drives one site through every steady mode, the lock
// included: certain mode thrash (internal/chaos) rotates the site htm → stm
// → lock on every commit. Executions stay correct and the lock-mode ones
// are accounted as irrevocable.
func TestAdaptiveLockMode(t *testing.T) {
	e := htm.New(platform.New(platform.ZEC12), htm.Config{
		Threads: 1, SpaceSize: 1 << 20, Seed: 7, CostScale: 1,
	})
	lock := tm.NewGlobalLock(e)
	cfg := chaos.Config{Seed: 7}
	cfg.OpRates[chaos.ModeThrash] = 1
	ctl := adapt.NewController(chaos.New(cfg))
	th := e.Thread(0)
	c := th.Alloc(8)
	var stats tm.Stats
	e.Run(1, func(_ int, th *htm.Thread) {
		x := tm.NewExecutorConfig(th, lock, tm.Config{Adapt: ctl})
		body := func(t *htm.Thread) {
			t.Store64(c, t.Load64(c)+1)
		}
		for j := 0; j < 50; j++ {
			x.Run(body)
		}
		stats = x.Stats
	})
	if got := th.Load64(c); got != 50 {
		t.Fatalf("counter = %d, want 50", got)
	}
	if stats.Commits() != 50 {
		t.Fatalf("Commits() = %d, want 50", stats.Commits())
	}
	if stats.IrrevocableCommits == 0 || stats.ModeSwitchesTo[adapt.ModeLock] == 0 {
		t.Fatalf("site never ran in lock mode: irrevocable=%d switches=%v",
			stats.IrrevocableCommits, stats.ModeSwitchesTo)
	}
}

func ExampleConfig() {
	e := htm.New(platform.New(platform.IntelCore), htm.Config{
		Threads: 1, SpaceSize: 1 << 20,
	})
	lock := tm.NewGlobalLock(e)
	ctl := adapt.NewController(nil)
	a := e.Thread(0).Alloc(8)
	e.Run(1, func(_ int, th *htm.Thread) {
		x := tm.NewExecutorConfig(th, lock, tm.Config{
			Policy: tm.DefaultPolicy(platform.IntelCore),
			Adapt:  ctl,
		})
		x.Run(func(t *htm.Thread) { t.Store64(a, 41+1) })
	})
	fmt.Println(e.Thread(0).Load64(a))
	// Output: 42
}
