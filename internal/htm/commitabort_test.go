package htm

import (
	"testing"

	"htmcmp/internal/chaos"
	"htmcmp/internal/mem"
	"htmcmp/internal/obs"
	"htmcmp/internal/platform"
)

// Aborts found at commit — a doom that lands after the body's last access,
// an injected interrupt — return from commit instead of unwinding the body.
// These tests pin that TryTx's result and everything the abort leaves
// behind are those of the same abort raised mid-body.

// abortOutcome is what one aborted attempt on thread 0 leaves behind.
type abortOutcome struct {
	ok     bool
	abort  Abort
	stats  Stats
	clock  uint64
	event  obs.Event // thread 0's last abort event
	x, y   uint64    // the arena words the attempt read and wrote
	recs   [2]lineRec
	stmSeq uint64
	inTx   bool
}

// commitAbortEngine is a traced engine with platform costs on, so virtual
// clocks and the events' Dur tell the two abort paths apart if they differ.
func commitAbortEngine(faults *chaos.Injector) (*Engine, *obs.Tracer) {
	tr := obs.NewTracer()
	e := New(platform.New(platform.IntelCore), Config{
		Threads:                 2,
		SpaceSize:               1 << 20,
		Seed:                    42,
		CostScale:               1,
		DisableCacheFetchAborts: true,
		DisablePrefetch:         true,
		Tracer:                  tr,
		Faults:                  faults,
	})
	return e, tr
}

// attemptXY allocates words x and y on lines of their own, initialised to 1
// and 2, and runs body as one transaction attempt on thread 0.
func attemptXY(e *Engine, tr *obs.Tracer, body func(t0 *Thread, x, y mem.Addr)) abortOutcome {
	t0 := e.Thread(0)
	ls := e.LineSize()
	x, y := t0.AllocAligned(ls, ls), t0.AllocAligned(ls, ls)
	t0.Store64(x, 1)
	t0.Store64(y, 2)
	o := abortOutcome{}
	o.ok, o.abort = t0.TryTx(TxNormal, func() { body(t0, x, y) })
	o.stats, o.clock, o.inTx, o.stmSeq = t0.Stats(), t0.Clock(), t0.InTx(), e.stmSeq
	o.recs = [2]lineRec{*t0.rec(t0.lineOf(x)), *t0.rec(t0.lineOf(y))}
	for _, ev := range tr.Events() {
		if ev.Kind == obs.KindAbort && ev.Thread == 0 {
			o.event = ev
		}
	}
	o.x, o.y = e.Thread(1).Load64(x), e.Thread(1).Load64(y)
	return o
}

// doomOutcome has thread 0 read x and write y, then thread 1 commit a store
// to x, dooming thread 0 after its last access. With midBody thread 0 then
// loads x once more, so the doom is taken mid-body by that load's check
// (which runs before the load is counted or charged) instead of at commit.
func doomOutcome(t *testing.T, hybrid, midBody bool) abortOutcome {
	e, tr := commitAbortEngine(nil)
	if hybrid {
		e.EnableHybridSTM()
	}
	return attemptXY(e, tr, func(t0 *Thread, x, y mem.Addr) {
		_ = t0.Load64(x)
		t0.Store64(y, 20)
		t1 := e.Thread(1)
		if ok, _ := t1.TryTx(TxNormal, func() { t1.Store64(x, 10) }); !ok {
			t.Fatal("thread 1's writer aborted")
		}
		if midBody {
			_ = t0.Load64(x)
		}
	})
}

func TestDoomAtCommitReturnsLikeMidBodyAbort(t *testing.T) {
	for _, hybrid := range []bool{false, true} {
		atCommit, midBody := doomOutcome(t, hybrid, false), doomOutcome(t, hybrid, true)
		if atCommit.ok || atCommit.abort != (Abort{Reason: ReasonConflict, Persistent: false}) {
			t.Fatalf("hybrid=%v: TryTx = %v, %+v; want false, transient conflict", hybrid, atCommit.ok, atCommit.abort)
		}
		if atCommit.x != 10 || atCommit.y != 2 || atCommit.inTx {
			t.Errorf("hybrid=%v: x=%d y=%d inTx=%v after the abort; want thread 1's 10, the rolled-back 2, false",
				hybrid, atCommit.x, atCommit.y, atCommit.inTx)
		}
		if atCommit.event.Line == obs.NoLine || atCommit.event.Aborter != 1 {
			t.Errorf("hybrid=%v: abort event attributed to line %d, thread %d; want x's line, thread 1",
				hybrid, atCommit.event.Line, atCommit.event.Aborter)
		}
		if hybrid {
			if atCommit.stmSeq&1 != 0 {
				t.Errorf("the doomed hybrid committer left the sequence lock held (%d)", atCommit.stmSeq)
			}
			// A hybrid writer takes the sequence-lock fence before it sees
			// the doom: one fence's cycles and one lock bump are the only
			// difference from the mid-body abort.
			fence := uint64(hybridFenceCost) // CostScale 1
			midBody.clock += fence
			midBody.event.VClock += fence
			midBody.event.Dur += fence
			midBody.stmSeq += 2
		}
		if atCommit != midBody {
			t.Errorf("hybrid=%v: abort at commit left\n  %+v\nthe same abort mid-body\n  %+v", hybrid, atCommit, midBody)
		}
	}
}

// interruptOutcome runs thread 0's attempt under a certain injected
// interrupt at commit. With explicit the body instead aborts itself as its
// last step, so the attempt never reaches commit.
func interruptOutcome(explicit bool) (abortOutcome, *chaos.Injector) {
	var cfg chaos.Config
	cfg.Seed = 99
	cfg.OpRates[chaos.SpuriousAbort] = 1
	in := chaos.New(cfg)
	e, tr := commitAbortEngine(in)
	return attemptXY(e, tr, func(t0 *Thread, x, y mem.Addr) {
		_ = t0.Load64(x)
		t0.Store64(y, 20)
		if explicit {
			t0.Abort()
		}
	}), in
}

func TestInterruptAtCommitReturnsLikeMidBodyAbort(t *testing.T) {
	atCommit, in := interruptOutcome(false)
	if atCommit.ok || atCommit.abort != (Abort{Reason: ReasonInterrupt, Persistent: false}) {
		t.Fatalf("TryTx = %v, %+v; want false, transient interrupt", atCommit.ok, atCommit.abort)
	}
	if in.Fired(chaos.SpuriousAbort) != 1 {
		t.Fatalf("fired %d interrupts, want 1", in.Fired(chaos.SpuriousAbort))
	}
	if atCommit.x != 1 || atCommit.y != 2 || atCommit.inTx {
		t.Errorf("x=%d y=%d inTx=%v after the abort; want 1, the rolled-back 2, false", atCommit.x, atCommit.y, atCommit.inTx)
	}
	if atCommit.event.Line != obs.NoLine || atCommit.event.Aborter != obs.NoThread {
		t.Errorf("interrupt attributed to line %d, thread %d; want none", atCommit.event.Line, atCommit.event.Aborter)
	}
	// The mid-body twin is an explicit abort: the same path but for the
	// reason, which is moved into the interrupt's bucket before comparing.
	midBody, _ := interruptOutcome(true)
	if midBody.abort.Reason != ReasonExplicit {
		t.Fatalf("mid-body twin aborted with %v, want explicit", midBody.abort.Reason)
	}
	midBody.abort.Reason = ReasonInterrupt
	midBody.event.Reason = uint8(ReasonInterrupt)
	midBody.stats.AbortsByReason[ReasonInterrupt] = midBody.stats.AbortsByReason[ReasonExplicit]
	midBody.stats.AbortsByReason[ReasonExplicit] = 0
	if atCommit != midBody {
		t.Errorf("interrupt at commit left\n  %+v\nan abort mid-body\n  %+v", atCommit, midBody)
	}
}
