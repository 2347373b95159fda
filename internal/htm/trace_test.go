package htm

import (
	"testing"

	"htmcmp/internal/obs"
	"htmcmp/internal/platform"
)

// newTracedEngine is newTestEngine with an obs tracer attached.
func newTracedEngine(t *testing.T, k platform.Kind, threads int) (*Engine, *obs.Tracer) {
	t.Helper()
	tr := obs.NewTracer()
	e := New(platform.New(k), Config{
		Threads:                 threads,
		SpaceSize:               1 << 20,
		Seed:                    42,
		CostScale:               0,
		DisableCacheFetchAborts: true,
		DisablePrefetch:         true,
		Tracer:                  tr,
	})
	return e, tr
}

func TestTraceRecordsBoundaryEvents(t *testing.T) {
	e, tr := newTracedEngine(t, platform.IntelCore, 1)
	th := e.Thread(0)
	a := th.Alloc(3 * e.LineSize())

	// One committed transaction touching 2 read lines + 1 written line,
	// then one explicit abort.
	ok, _ := th.TryTx(TxNormal, func() {
		_ = th.Load64(a)
		_ = th.Load64(a + uint64(e.LineSize()))
		th.Store64(a+uint64(2*e.LineSize()), 1)
	})
	if !ok {
		t.Fatal("transaction aborted unexpectedly")
	}
	th.TryTx(TxNormal, func() { th.Abort() })

	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("recorded %d events, want 4 (begin, commit, begin, abort): %+v", len(evs), evs)
	}
	wantKinds := []obs.Kind{obs.KindBegin, obs.KindCommit, obs.KindBegin, obs.KindAbort}
	for i, ev := range evs {
		if ev.Kind != wantKinds[i] {
			t.Fatalf("event %d kind = %v, want %v", i, ev.Kind, wantKinds[i])
		}
		if ev.Thread != 0 {
			t.Fatalf("event %d thread = %d, want 0", i, ev.Thread)
		}
	}
	commit := evs[1]
	if commit.ReadLines != 2 || commit.WriteLines != 1 {
		t.Errorf("commit footprint = %d read, %d write lines; want 2, 1",
			commit.ReadLines, commit.WriteLines)
	}
	if commit.Line != obs.NoLine || commit.Aborter != obs.NoThread {
		t.Errorf("commit carries conflict attribution: %+v", commit)
	}
	abort := evs[3]
	if got := Reason(abort.Reason); got != ReasonExplicit {
		t.Errorf("abort reason code = %v, want explicit", got)
	}
	if abort.Line != obs.NoLine || abort.Aborter != obs.NoThread {
		t.Errorf("explicit abort should have no line/aborter: %+v", abort)
	}
	if abort.Retry != 0 || evs[2].Retry != 0 {
		t.Errorf("first attempts should have retry depth 0")
	}
}

func TestTraceRetryDepthAdvances(t *testing.T) {
	e, tr := newTracedEngine(t, platform.IntelCore, 1)
	th := e.Thread(0)
	attempt := 0
	for {
		ok, _ := th.TryTx(TxNormal, func() {
			if attempt < 3 {
				attempt++
				th.Abort()
			}
		})
		if ok {
			break
		}
	}
	var aborts, commits []obs.Event
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case obs.KindAbort:
			aborts = append(aborts, ev)
		case obs.KindCommit:
			commits = append(commits, ev)
		}
	}
	if len(aborts) != 3 || len(commits) != 1 {
		t.Fatalf("got %d aborts, %d commits; want 3, 1", len(aborts), len(commits))
	}
	for i, ev := range aborts {
		if int(ev.Retry) != i {
			t.Errorf("abort %d retry depth = %d, want %d", i, ev.Retry, i)
		}
	}
	if commits[0].Retry != 3 {
		t.Errorf("commit retry depth = %d, want 3 (after three aborts)", commits[0].Retry)
	}
}

func TestTraceAttributesConflictLineAndAborter(t *testing.T) {
	e, tr := newTracedEngine(t, platform.IntelCore, 2)
	t0, t1 := e.Thread(0), e.Thread(1)
	a := t0.Alloc(64)
	line := uint32(a) / uint32(e.LineSize())

	t0.TryTx(TxNormal, func() {
		_ = t0.Load64(a)
		if ok, _ := t1.TryTx(TxNormal, func() { t1.Store64(a, 5) }); !ok {
			t.Error("writer should have committed")
		}
		_ = t0.Load64(a) // doomed: takes the abort here
	})

	var abort *obs.Event
	for _, ev := range tr.Events() {
		if ev.Kind == obs.KindAbort && ev.Thread == 0 {
			cp := ev
			abort = &cp
		}
	}
	if abort == nil {
		t.Fatal("no abort event recorded for the doomed reader")
	}
	if got := Reason(abort.Reason); got != ReasonConflict {
		t.Errorf("abort reason = %v, want conflict", got)
	}
	if abort.Line != line {
		t.Errorf("abort line = %d, want %d", abort.Line, line)
	}
	if abort.Aborter != 1 {
		t.Errorf("aborter = %d, want thread 1", abort.Aborter)
	}
}

// TestTraceEventCountsMatchStats cross-checks the event stream against the
// engine's aggregate counters under a contended multi-threaded run.
func TestTraceEventCountsMatchStats(t *testing.T) {
	const threads = 4
	e, tr := newTracedEngine(t, platform.IntelCore, threads)
	setup := e.Thread(0)
	a := setup.Alloc(64)

	e.Run(threads, func(_ int, th *Thread) {
		for n := 0; n < 200; n++ {
			for {
				ok, _ := th.TryTx(TxNormal, func() {
					th.Store64(a, th.Load64(a)+1)
				})
				if ok {
					break
				}
			}
		}
	})

	st := e.Stats()
	rep := obs.Aggregate(tr.Events(), obs.ReportOptions{})
	if rep.Begins != st.Begins || rep.Commits != st.Commits || rep.Aborts != st.Aborts {
		t.Fatalf("event counts (b/c/a %d/%d/%d) != stats (%d/%d/%d)",
			rep.Begins, rep.Commits, rep.Aborts, st.Begins, st.Commits, st.Aborts)
	}
	if got := setup.Load64(a); got != 200*threads {
		t.Fatalf("counter = %d, want %d", got, 200*threads)
	}
}
