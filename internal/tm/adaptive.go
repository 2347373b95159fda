package tm

import (
	"reflect"

	"htmcmp/internal/adapt"
	"htmcmp/internal/htm"
	"htmcmp/internal/obs"
)

// Adaptive hybrid-TM execution: instead of the static Figure 1 retry
// counters, an online controller (internal/adapt) selects the execution
// mode — hardware transaction, NOrec software transaction, or the global
// lock — and the retry/backoff budgets per transaction site, from a sliding
// window of recent abort reasons.
//
// Correct coexistence of the three modes inside one run relies on the
// engine's hybrid-NOrec fences (internal/htm hybrid.go): hardware
// transactions subscribe to the hybrid gate line, software transactions
// subscribe to the global lock word by value, and lock acquisition issues
// an STM fence. NewExecutorConfig arms the fences (idempotently) when a
// controller is attached; this requires a virtual-time engine.

// Config bundles an Executor's policy inputs: the static retry policy and,
// optionally, the adaptive controller. With Adapt nil the executor behaves
// exactly like NewExecutor's (static-policy runs are unchanged down to the
// golden determinism rows); with Adapt set, Run routes through the
// controller and Policy is used only by the explicit RunSTM/RunHLE/
// RunIrrevocable entry points.
type Config struct {
	Policy Policy
	// Adapt, when non-nil, enables adaptive mode selection. One controller
	// is shared by all executors of a run.
	Adapt *adapt.Controller
}

// NewExecutorConfig is NewExecutor with an explicit Config. When cfg.Adapt
// is set it also enables the engine's hybrid HTM/STM mode (virtual-time
// engines only — the fences rely on the single-runner invariant).
func NewExecutorConfig(t *htm.Thread, lock *GlobalLock, cfg Config) *Executor {
	x := NewExecutor(t, lock, cfg.Policy)
	if cfg.Adapt != nil {
		t.Engine().EnableHybridSTM()
		x.Adapt = cfg.Adapt
	}
	return x
}

// siteKey identifies the static transaction site of a body closure: the
// closure's code pointer, shared by every execution of the same source-level
// atomic block and stable for the life of the process.
func siteKey(body func(t *htm.Thread)) uintptr {
	return reflect.ValueOf(body).Pointer()
}

// adaptClass maps an engine abort to the controller's vocabulary. Lock-word
// conflicts are identified exactly as the static mechanism does (Figure 1
// line 13: the lock is held at classification time).
func adaptClass(ab htm.Abort, lockHeld bool) adapt.Class {
	if lockHeld {
		return adapt.ClassLockConflict
	}
	switch ab.Reason.Category() {
	case htm.CategoryCapacity:
		return adapt.ClassCapacity
	case htm.CategoryDataConflict:
		return adapt.ClassConflict
	default:
		return adapt.ClassOther
	}
}

// noteTransition counts a steady-mode change and emits it as an obs event
// through the executing thread's engine event log (a nil-check no-op untraced).
func (x *Executor) noteTransition(tr adapt.Transition) {
	if !tr.Changed {
		return
	}
	x.Stats.ModeSwitches++
	x.Stats.ModeSwitchesTo[tr.To]++
	x.T.TraceEvent(obs.Event{
		Kind:    obs.KindModeSwitch,
		Reason:  uint8(tr.To),
		Aborter: int16(tr.From),
		Line:    tr.Site,
	})
}

// runAdaptive executes body under the controller's direction: each attempt
// runs in the mode the per-site cursor dictates, abort outcomes feed back
// into the site's window, and conflict retries honour the cursor's jittered
// exponential backoff.
func (x *Executor) runAdaptive(body func(t *htm.Thread)) {
	site := x.Adapt.SiteFor(siteKey(body))
	tx := site.Begin()
	for {
		switch tx.Mode() {
		case adapt.ModeHTM:
			if n := tx.Backoff(x.T.Rand().Intn); n > 0 {
				x.T.Pause(n)
			}
			x.Lock.WaitUntilFree(x.T) // lemming guard, as in Figure 1 line 9
			committed, ab := x.T.TryTx(htm.TxNormal, func() {
				x.T.SubscribeHybridGate()
				if x.Lock.SubscribedHeld(x.T) {
					x.T.Abort()
				}
				body(x.T)
			})
			if committed {
				x.Stats.TxCommits++
				x.Stats.HTMCommits++
				x.noteTransition(tx.Commit())
				return
			}
			x.Stats.Aborts++
			held := x.Lock.Held()
			if held {
				x.Stats.AbortsByCategory[htm.CategoryLockConflict]++
			} else {
				x.Stats.AbortsByCategory[ab.Reason.Category()]++
			}
			x.noteTransition(tx.Abort(adaptClass(ab, held)))

		case adapt.ModeSTM:
			if n := tx.Backoff(x.T.Rand().Intn); n > 0 {
				x.T.Pause(n)
			}
			x.Lock.WaitUntilFree(x.T)
			committed, _ := x.T.TrySTM(func() {
				// Value-logged lock subscription: Engine.STMFence at lock
				// acquisition forces revalidation, which sees the held lock.
				if x.Lock.SubscribedHeld(x.T) {
					x.T.Abort()
				}
				body(x.T)
			})
			if committed {
				x.Stats.TxCommits++
				x.Stats.STMCommits++
				x.noteTransition(tx.Commit())
				return
			}
			x.Stats.Aborts++
			if x.Lock.Held() {
				x.Stats.AbortsByCategory[htm.CategoryLockConflict]++
				x.noteTransition(tx.Abort(adapt.ClassLockConflict))
			} else {
				x.Stats.AbortsByCategory[htm.CategoryDataConflict]++
				x.noteTransition(tx.Abort(adapt.ClassSTMConflict))
			}

		case adapt.ModeLock:
			x.Lock.Acquire(x.T)
			// The fence makes every in-flight software transaction
			// revalidate and observe the held lock (hardware transactions
			// are doomed by the lock-word store itself).
			x.T.Engine().STMFence(x.T)
			body(x.T)
			x.Lock.Release(x.T)
			x.Stats.IrrevocableCommits++
			x.noteTransition(tx.Commit())
			return
		}
	}
}
