package adapt

import (
	"fmt"
	"testing"
)

// The tests below pin the fixed policy by behaviour: each rule is driven to
// its boundary with literal counts, so n−1 events leave the site alone and n
// fire the rule. Moving any threshold constant by one fails one of them.

// fixedIntn is a deterministic stand-in for the per-thread PRNG.
func fixedIntn(v int) func(int) int {
	return func(n int) int {
		if v >= n {
			return n - 1
		}
		return v
	}
}

// commitN runs n executions of s that commit at once, in whatever mode
// Begin picks, and fails on any transition or probe they produce.
func commitN(t *testing.T, s *Site, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		tx := s.Begin()
		if tx.probe {
			t.Fatalf("commit %d of %d started a probe", i+1, n)
		}
		if tr := tx.Commit(); tr.Changed {
			t.Fatalf("commit %d of %d transitioned: %+v", i+1, n, tr)
		}
	}
}

// capacityAbortThenCommit runs one execution that takes a single capacity
// abort and then commits, returning the abort's transition.
func capacityAbortThenCommit(s *Site) Transition {
	tx := s.Begin()
	tr := tx.Abort(ClassCapacity)
	tx.Commit()
	return tr
}

// demoteToSTM drives a fresh site to STM with four capacity aborts.
func demoteToSTM(t *testing.T, s *Site) {
	t.Helper()
	for i := 0; i < 4; i++ {
		capacityAbortThenCommit(s)
	}
	if s.mode != ModeSTM {
		t.Fatalf("setup: mode = %v, want stm", s.mode)
	}
}

// lockSiteDueToProbe drives a fresh site to the lock with hardware
// attempts in flight: sixteen conflict aborts turn its capacity demotion
// into a lock demotion, and the attempts begun before it abort with late
// after 63 lock commits have evicted every abort of the demotion. One more
// lock commit then serves the probation, so the site's next Begin probes.
func lockSiteDueToProbe(t *testing.T, late ...Class) *Site {
	t.Helper()
	s := NewController(nil).SiteFor(1)
	for i := 0; i < 16; i++ {
		tx := s.Begin()
		tx.Abort(ClassConflict)
		tx.Commit()
	}
	inFlight := make([]Txn, len(late))
	for i := range inFlight {
		inFlight[i] = s.Begin()
	}
	for i := 0; i < 4; i++ {
		capacityAbortThenCommit(s)
	}
	if s.mode != ModeLock {
		t.Fatalf("setup: mode = %v, want lock", s.mode)
	}
	commitN(t, s, 62)
	for i, c := range late {
		if tr := inFlight[i].Abort(c); tr.Changed {
			t.Fatalf("late %v abort transitioned: %+v", c, tr)
		}
	}
	commitN(t, s, 1)
	return s
}

// TestSiteTransitions drives each demotion rule to its boundary.
func TestSiteTransitions(t *testing.T) {
	t.Run("capacity demotes to STM", checkCapacityRetry)
	t.Run("window capacity aborts demote site to STM", checkCapacityDemote)
	t.Run("capacity with conflict-heavy window demotes to lock", checkCapacityDemoteToLock)
	t.Run("repeated lock fallback commits demote to lock", checkLockDemote)
	t.Run("stm conflicts demote to lock", checkSTMDemote)
}

// checkCapacityDemote: the fourth windowed capacity abort demotes an HTM
// site to STM; three do not.
func checkCapacityDemote(t *testing.T) {
	s := NewController(nil).SiteFor(1)
	for i := 1; i <= 3; i++ {
		if tr := capacityAbortThenCommit(s); tr.Changed {
			t.Fatalf("capacity abort %d demoted the site: %+v", i, tr)
		}
	}
	tx := s.Begin()
	tr := tx.Abort(ClassCapacity)
	if !tr.Changed || tr.From != ModeHTM || tr.To != ModeSTM || tx.Mode() != ModeSTM {
		t.Fatalf("capacity abort 4: %+v, execution in %v; want htm->stm", tr, tx.Mode())
	}
	if s.mode != ModeSTM {
		t.Fatalf("steady mode = %v, want stm", s.mode)
	}
}

// checkCapacityRetry: within one execution the first capacity abort retries
// in HTM and the second moves just that execution to STM.
func checkCapacityRetry(t *testing.T) {
	s := NewController(nil).SiteFor(1)
	tx := s.Begin()
	tx.Abort(ClassCapacity)
	if tx.Mode() != ModeHTM {
		t.Fatalf("after one capacity abort the execution runs %v, want htm", tx.Mode())
	}
	if tr := tx.Abort(ClassCapacity); tr.Changed {
		t.Fatalf("two capacity aborts demoted the site: %+v", tr)
	}
	if tx.Mode() != ModeSTM || s.mode != ModeHTM {
		t.Fatalf("after two capacity aborts: execution %v, site %v; want stm, htm", tx.Mode(), s.mode)
	}
}

// checkCapacityDemoteToLock: a capacity demotion goes to the lock instead of
// STM once sixteen conflict aborts sit in the window; fifteen leave it at
// STM.
func checkCapacityDemoteToLock(t *testing.T) {
	for _, tc := range []struct {
		conflicts int
		want      Mode
	}{{15, ModeSTM}, {16, ModeLock}} {
		s := NewController(nil).SiteFor(1)
		for i := 0; i < tc.conflicts; i++ {
			tx := s.Begin()
			tx.Abort(ClassConflict)
			tx.Commit()
		}
		for i := 0; i < 4; i++ {
			capacityAbortThenCommit(s)
		}
		if s.mode != tc.want {
			t.Errorf("%d conflicts then a capacity demotion: mode = %v, want %v", tc.conflicts, s.mode, tc.want)
		}
	}
}

// TestWindowEviction: the window holds the last 64 outcomes. Three
// capacity-abort executions (six entries), k commits and a fourth capacity
// abort demote the site while all four aborts fit (k = 57) and not once
// the oldest has been evicted (k = 58).
func TestWindowEviction(t *testing.T) {
	for _, tc := range []struct {
		commits int
		demote  bool
	}{{57, true}, {58, false}} {
		s := NewController(nil).SiteFor(1)
		for i := 0; i < 3; i++ {
			capacityAbortThenCommit(s)
		}
		commitN(t, s, tc.commits)
		tx := s.Begin()
		if tr := tx.Abort(ClassCapacity); tr.Changed != tc.demote {
			t.Errorf("%d commits between the aborts: demoted = %v, want %v", tc.commits, tr.Changed, tc.demote)
		}
	}
}

// TestHTMRetry: an execution makes eight hardware attempts before its
// one-shot fallback to the lock; every abort class counts toward them, and
// the fallback leaves the site's steady mode alone.
func TestHTMRetry(t *testing.T) {
	for _, c := range []Class{ClassConflict, ClassLockConflict, ClassOther} {
		s := NewController(nil).SiteFor(1)
		tx := s.Begin()
		for i := 1; i <= 7; i++ {
			tx.Abort(c)
			if tx.Mode() != ModeHTM {
				t.Fatalf("%v: execution left htm after %d aborts", c, i)
			}
		}
		if tr := tx.Abort(c); tr.Changed || tx.Mode() != ModeLock || s.mode != ModeHTM {
			t.Fatalf("%v: eighth abort gave %+v, execution %v, site %v; want a one-shot lock fallback",
				c, tr, tx.Mode(), s.mode)
		}
		if tr := tx.Commit(); tr.Changed {
			t.Fatalf("%v: one fallback commit demoted the site: %+v", c, tr)
		}
	}
}

// checkLockDemote: commits under the lock demote an HTM site to the lock
// once sixteen sit in the window. Each one-shot fallback brings eight
// aborts of its own, so the rule fires on a convoy: executions that
// exhausted their retries while the lock was taken, then commit under it
// one after another.
func checkLockDemote(t *testing.T) {
	s := NewController(nil).SiteFor(1)
	convoy := make([]Txn, 16)
	for i := range convoy {
		convoy[i] = s.Begin()
		for convoy[i].mode == ModeHTM {
			convoy[i].Abort(ClassConflict)
		}
	}
	for i := 0; i < 15; i++ {
		if tr := convoy[i].Commit(); tr.Changed {
			t.Fatalf("lock commit %d demoted the site: %+v", i+1, tr)
		}
	}
	if tr := convoy[15].Commit(); !tr.Changed || tr.From != ModeHTM || tr.To != ModeLock {
		t.Fatalf("lock commit 16: %+v, want htm->lock", tr)
	}
}

// checkSTMDemote: the thirty-second windowed NOrec validation conflict
// demotes an STM site to the lock; a lock-word abort of an STM attempt
// says nothing about STM and is not counted.
func checkSTMDemote(t *testing.T) {
	s := NewController(nil).SiteFor(1)
	demoteToSTM(t, s)
	tx := s.Begin()
	for i := 1; i <= 31; i++ {
		if tr := tx.Abort(ClassSTMConflict); tr.Changed {
			t.Fatalf("stm conflict %d demoted the site: %+v", i, tr)
		}
		if tr := tx.Abort(ClassLockConflict); tr.Changed || tx.Backoff(fixedIntn(0)) != 0 {
			t.Fatalf("lock abort after stm conflict %d: %+v, backoff %d", i, tr, tx.Backoff(fixedIntn(0)))
		}
	}
	tr := tx.Abort(ClassSTMConflict)
	if !tr.Changed || tr.From != ModeSTM || tr.To != ModeLock || tx.Mode() != ModeLock {
		t.Fatalf("stm conflict 32: %+v, execution %v; want stm->lock", tr, tx.Mode())
	}
}

// TestConflictBackoff pins the exponential-backoff-with-jitter contract:
// conflict aborts double the envelope from 16 cycles up to its cap of
// 16<<6, the jittered pause stays in [envelope/2, envelope), and a
// non-conflict abort clears it. STM conflicts back off on the same
// envelope.
func TestConflictBackoff(t *testing.T) {
	want := []int{16, 32, 64, 128, 256, 512, 1024, 1024}
	check := func(name string, tx *Txn, abort func()) {
		t.Helper()
		if got := tx.Backoff(fixedIntn(0)); got != 0 {
			t.Fatalf("%s: backoff before any abort = %d, want 0", name, got)
		}
		for i, env := range want {
			abort()
			lo := tx.Backoff(fixedIntn(0))
			hi := tx.Backoff(fixedIntn(1 << 30))
			if lo != env/2 || hi != env/2+(env+1)/2-1 {
				t.Fatalf("%s: abort %d: backoff in [%d, %d], want envelope %d", name, i+1, lo, hi, env)
			}
		}
	}
	htmTx := NewController(nil).SiteFor(1).Begin()
	check("htm", &htmTx, func() { htmTx.Abort(ClassConflict) })

	// The lock word is the right wait after a lock-conflict abort, not a
	// timed pause.
	tx := NewController(nil).SiteFor(1).Begin()
	tx.Abort(ClassConflict)
	tx.Abort(ClassLockConflict)
	if got := tx.Backoff(fixedIntn(0)); got != 0 {
		t.Fatalf("backoff after a lock abort = %d, want 0", got)
	}

	s := NewController(nil).SiteFor(1)
	demoteToSTM(t, s)
	stmTx := s.Begin()
	check("stm", &stmTx, func() { stmTx.Abort(ClassSTMConflict) })
}

// TestProbationReentry walks a demoted site through the probation cycle:
// the first 64 commits in the demoted mode stay there, the next execution
// probes HTM, and the fourth consecutive probe commit promotes the site.
func TestProbationReentry(t *testing.T) {
	s := NewController(nil).SiteFor(1)
	demoteToSTM(t, s)
	// The execution whose capacity abort demoted the site committed in STM
	// and counts toward the probation.
	commitN(t, s, 63)
	for i := 1; i <= 4; i++ {
		tx := s.Begin()
		if !tx.probe || tx.Mode() != ModeHTM {
			t.Fatalf("probe %d: mode=%v probing=%v, want a probe of htm", i, tx.Mode(), tx.probe)
		}
		tr := tx.Commit()
		if i < 4 && tr.Changed {
			t.Fatalf("promoted after only %d probe wins", i)
		}
		if i == 4 && (!tr.Changed || tr.From != ModeSTM || tr.To != ModeHTM) {
			t.Fatalf("fourth probe win: %+v, want stm->htm", tr)
		}
	}
}

// TestLockSiteProbesSTMWhenCapacityBound: a lock-mode site records only
// lock commits, so its window holds aborts at probe time only from hardware
// attempts that began before the demotion and aborted after it. When those
// hold more capacity than conflict aborts the site probes STM, and four
// STM probe wins promote it there; a tie probes HTM. A validation conflict
// fails an STM probe at once.
func TestLockSiteProbesSTMWhenCapacityBound(t *testing.T) {
	s := lockSiteDueToProbe(t, ClassCapacity, ClassConflict)
	if tx := s.Begin(); !tx.probe || tx.Mode() != ModeHTM {
		t.Fatalf("capacity/conflict tie: probe of %v (probing=%v), want htm", tx.Mode(), tx.probe)
	}

	s = lockSiteDueToProbe(t, ClassCapacity)
	tx := s.Begin()
	if !tx.probe || tx.Mode() != ModeSTM {
		t.Fatalf("capacity-bound lock site: probe of %v (probing=%v), want stm", tx.Mode(), tx.probe)
	}
	tx.Abort(ClassSTMConflict)
	if tx.probe || tx.Mode() != ModeLock || s.probation != 128 {
		t.Fatalf("stm probe conflict: mode=%v probing=%v probation=%d; want a failed probe",
			tx.Mode(), tx.probe, s.probation)
	}

	s = lockSiteDueToProbe(t, ClassCapacity)
	for i := 1; i <= 4; i++ {
		tx := s.Begin()
		if tx.Mode() != ModeSTM {
			t.Fatalf("probe %d runs %v, want stm", i, tx.Mode())
		}
		if tr := tx.Commit(); tr.Changed != (i == 4) || (i == 4 && tr.To != ModeSTM) {
			t.Fatalf("probe win %d: %+v", i, tr)
		}
	}
}

// TestProbeHysteresis pins the anti-flapping behaviour: a probe failed by a
// capacity abort returns the execution to the demoted mode and doubles the
// site's probation, 64 → 128 → … → 4096, where it stays.
func TestProbeHysteresis(t *testing.T) {
	s := NewController(nil).SiteFor(1)
	demoteToSTM(t, s)
	served := 1 // the demoting execution's STM commit
	for round, due := range []int{64, 128, 256, 512, 1024, 2048, 4096, 4096} {
		commitN(t, s, due-served)
		tx := s.Begin()
		if !tx.probe {
			t.Fatalf("round %d: no probe after %d probation commits", round, due)
		}
		if tr := tx.Abort(ClassCapacity); tr.Changed {
			t.Fatalf("round %d: probe failure transitioned: %+v", round, tr)
		}
		if tx.probe || tx.Mode() != ModeSTM {
			t.Fatalf("round %d: failed probe left the execution probing=%v in %v", round, tx.probe, tx.Mode())
		}
		tx.Commit()
		served = 1 // the failed probe's STM commit opens the next probation
	}
}

// TestProbeConflictRetries: a probe survives one transient conflict (with a backoff)
// and fails on the second attempt's abort, of any class, lengthening the
// probation.
func TestProbeConflictRetries(t *testing.T) {
	s := NewController(nil).SiteFor(1)
	demoteToSTM(t, s)
	commitN(t, s, 63)
	tx := s.Begin()
	tx.Abort(ClassConflict)
	if !tx.probe || tx.Mode() != ModeHTM {
		t.Fatalf("probe gave up on its first conflict: mode=%v probing=%v", tx.Mode(), tx.probe)
	}
	if got := tx.Backoff(fixedIntn(0)); got != 8 {
		t.Fatalf("probe conflict backoff = %d, want 8 (envelope 16)", got)
	}
	tx.Abort(ClassLockConflict) // any class spends an attempt
	if tx.probe || tx.Mode() != ModeSTM || tx.Backoff(fixedIntn(0)) != 0 {
		t.Fatalf("second probe abort: mode=%v probing=%v; want the probe failed back to stm", tx.Mode(), tx.probe)
	}
	if s.probation != 128 {
		t.Fatalf("probation after a failed probe = %d, want 128", s.probation)
	}
}

// TestPromotionResetsHistory: after a promotion the window is cleared, so
// the pre-demotion capacity aborts cannot re-demote the site: it takes
// four fresh ones.
func TestPromotionResetsHistory(t *testing.T) {
	s := NewController(nil).SiteFor(1)
	demoteToSTM(t, s)
	commitN(t, s, 63)
	for i := 0; i < 4; i++ {
		tx := s.Begin()
		tx.Commit()
	}
	if s.mode != ModeHTM {
		t.Fatalf("mode = %v, want htm after promotion", s.mode)
	}
	for i := 1; i <= 3; i++ {
		if tr := capacityAbortThenCommit(s); tr.Changed {
			t.Fatalf("stale history re-demoted the site at capacity abort %d: %+v", i, tr)
		}
	}
	if tr := capacityAbortThenCommit(s); !tr.Changed || tr.To != ModeSTM {
		t.Fatalf("fourth fresh capacity abort: %+v, want a demotion to stm", tr)
	}
}

// TestControllerBookkeeping: sites are keyed by the caller's key and numbered in
// first-use order (the number mode-switch events carry).
func TestControllerBookkeeping(t *testing.T) {
	ctl := NewController(nil)
	a, b := ctl.SiteFor(100), ctl.SiteFor(200)
	if a == b || a.id != 0 || b.id != 1 {
		t.Fatalf("distinct keys: ids %d and %d, want 0 and 1", a.id, b.id)
	}
	if ctl.SiteFor(100) != a {
		t.Fatal("same key must return the same site")
	}
	demoteToSTM(t, b)
	tx := b.Begin()
	for b.mode == ModeSTM {
		tx.Abort(ClassSTMConflict)
	}
	if a.mode != ModeHTM {
		t.Fatalf("site a moved to %v with site b's history", a.mode)
	}
}

// TestModeAndClassNames keeps the event vocabulary stable (events carry raw
// codes; names are the contract with trace tooling).
func TestModeAndClassNames(t *testing.T) {
	for _, tc := range []struct {
		m    Mode
		want string
	}{{ModeHTM, "htm"}, {ModeSTM, "stm"}, {ModeLock, "lock"}} {
		if got := tc.m.String(); got != tc.want {
			t.Errorf("Mode(%d).String() = %q, want %q", tc.m, got, tc.want)
		}
	}
	if got := Mode(9).String(); got != "mode(9)" {
		t.Errorf("out-of-range mode name = %q", got)
	}
}

func ExampleSite_Begin() {
	site := NewController(nil).SiteFor(1)
	for i := 1; i <= 4; i++ {
		tx := site.Begin()
		tx.Abort(ClassCapacity)
		tx.Commit()
		fmt.Println(i, site.mode)
	}
	// Output:
	// 1 htm
	// 2 htm
	// 3 htm
	// 4 stm
}
