package adapt

import (
	"fmt"
	"testing"
)

// fixedIntn is a deterministic stand-in for the per-thread PRNG.
func fixedIntn(v int) func(int) int {
	return func(n int) int {
		if v >= n {
			return n - 1
		}
		return v
	}
}

// step drives one whole execution of a site to a fixed outcome and returns
// any steady-mode transition it produced.
func commitOnce(s *Site) Transition {
	tx := s.Begin()
	return tx.Commit()
}

// TestSiteTransitions is the table-driven transition matrix the controller
// satellite requires: each case drives a fresh site through a scripted
// outcome sequence and asserts the resulting steady mode and probe state.
func TestSiteTransitions(t *testing.T) {
	cfg := Config{
		Window: 16, CapacityDemote: 3, LockDemote: 4, STMDemote: 4,
		HTMRetry: 4, CapacityRetry: 1, ProbeRetry: 2,
		BackoffBase: 16, BackoffMaxShift: 3,
		Probation: 4, ProbationGrowth: 2, ProbationMax: 64, ProbeWins: 2,
	}
	cases := []struct {
		name  string
		drive func(t *testing.T, s *Site)
		want  Mode
	}{
		{
			// Repeated capacity aborts in the window demote the site to STM:
			// the footprint will not shrink on retry.
			name: "capacity demotes to STM",
			drive: func(t *testing.T, s *Site) {
				var tr Transition
				for i := 0; i < cfg.CapacityDemote; i++ {
					tx := s.Begin()
					if got := tx.Mode(); got != ModeHTM {
						t.Fatalf("attempt %d started in %v, want htm", i, got)
					}
					tr = tx.Abort(ClassCapacity)
					if i < cfg.CapacityDemote-1 {
						if tr.Changed {
							t.Fatalf("demoted after only %d capacity aborts", i+1)
						}
						// Execution-local fallback: the second capacity abort
						// of one execution moves just this execution to STM.
						tx.Abort(ClassCapacity)
						if tx.Mode() != ModeSTM {
							t.Fatalf("execution not locally demoted to STM after exhausting CapacityRetry")
						}
						return // single-execution sub-behaviour verified
					}
				}
				if !tr.Changed || tr.From != ModeHTM || tr.To != ModeSTM {
					t.Fatalf("want HTM->STM transition, got %+v", tr)
				}
			},
			want: ModeHTM, // the early return above leaves the site steady
		},
		{
			name: "window capacity aborts demote site to STM",
			drive: func(t *testing.T, s *Site) {
				for i := 0; i < cfg.CapacityDemote; i++ {
					tx := s.Begin()
					if tr := tx.Abort(ClassCapacity); tr.Changed {
						if i != cfg.CapacityDemote-1 {
							t.Fatalf("demoted early at abort %d", i+1)
						}
						if tr.From != ModeHTM || tr.To != ModeSTM {
							t.Fatalf("want HTM->STM, got %+v", tr)
						}
						return
					}
				}
				t.Fatal("no demotion after CapacityDemote capacity aborts")
			},
			want: ModeSTM,
		},
		{
			// Capacity aborts with a conflict-heavy window skip STM and go
			// straight to the lock.
			name: "capacity with conflict-heavy window demotes to lock",
			drive: func(t *testing.T, s *Site) {
				for i := 0; i < cfg.LockDemote; i++ {
					tx := s.Begin()
					tx.Abort(ClassConflict)
					tx.Commit()
				}
				for i := 0; i < cfg.CapacityDemote; i++ {
					tx := s.Begin()
					if tr := tx.Abort(ClassCapacity); tr.Changed {
						if tr.To != ModeLock {
							t.Fatalf("want demotion to lock, got %+v", tr)
						}
						return
					}
				}
				t.Fatal("no demotion")
			},
			want: ModeLock,
		},
		{
			// Enough one-shot lock fallbacks demote the site: it is
			// serialising anyway.
			name: "repeated lock fallback commits demote to lock",
			drive: func(t *testing.T, s *Site) {
				for i := 0; i < cfg.LockDemote; i++ {
					tx := s.Begin()
					for tx.Mode() == ModeHTM {
						tx.Abort(ClassConflict)
					}
					if tx.Mode() != ModeLock {
						t.Fatalf("exhausted HTM retries should fall back to lock, got %v", tx.Mode())
					}
					if tr := tx.Commit(); tr.Changed {
						if tr.To != ModeLock || i != cfg.LockDemote-1 {
							t.Fatalf("unexpected transition %+v at fallback %d", tr, i+1)
						}
						return
					}
				}
				t.Fatal("no demotion after LockDemote fallback commits")
			},
			want: ModeLock,
		},
		{
			// STM validation conflicts piling up demote an STM site to lock.
			name: "stm conflicts demote to lock",
			drive: func(t *testing.T, s *Site) {
				// First demote to STM via capacity.
				for s.Mode() == ModeHTM {
					tx := s.Begin()
					tx.Abort(ClassCapacity)
				}
				for i := 0; i < cfg.STMDemote; i++ {
					tx := s.Begin()
					if got := tx.Mode(); got != ModeSTM {
						t.Fatalf("want STM attempts, got %v", got)
					}
					if tr := tx.Abort(ClassSTMConflict); tr.Changed {
						if tr.From != ModeSTM || tr.To != ModeLock {
							t.Fatalf("want STM->lock, got %+v", tr)
						}
						return
					}
				}
				t.Fatal("no demotion after STMDemote validation conflicts")
			},
			want: ModeLock,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctl := NewController(cfg)
			s := ctl.SiteFor(1)
			tc.drive(t, s)
			if got := s.Mode(); got != tc.want {
				t.Fatalf("steady mode = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestConflictBackoff pins the exponential-backoff-with-jitter contract:
// conflict aborts double the envelope up to the cap, the jittered pause
// stays in [envelope/2, envelope), and non-conflict aborts reset it.
func TestConflictBackoff(t *testing.T) {
	cfg := Config{BackoffBase: 16, BackoffMaxShift: 3, HTMRetry: 100}
	ctl := NewController(cfg)
	tx := ctl.SiteFor(1).Begin()

	if got := tx.Backoff(fixedIntn(0)); got != 0 {
		t.Fatalf("backoff before any abort = %d, want 0", got)
	}
	wantEnvelope := []int{16, 32, 64, 128, 128, 128} // doubles, then caps at base<<3
	for i, env := range wantEnvelope {
		tx.Abort(ClassConflict)
		lo := tx.Backoff(fixedIntn(0))
		hi := tx.Backoff(fixedIntn(1 << 30))
		if lo != env/2 {
			t.Fatalf("abort %d: min backoff = %d, want %d", i+1, lo, env/2)
		}
		if hi != env/2+(env+1)/2-1 {
			t.Fatalf("abort %d: max backoff = %d, want %d", i+1, hi, env-1)
		}
	}
	// A lock-conflict abort clears the pending backoff (WaitUntilFree is the
	// right wait, not a timed pause).
	tx.Abort(ClassLockConflict)
	if got := tx.Backoff(fixedIntn(0)); got != 0 {
		t.Fatalf("backoff after lock abort = %d, want 0", got)
	}
}

// TestProbationReentry walks a demoted site through the full probation
// cycle: commits in the demoted mode accumulate, a probe starts only after
// the probation elapses, and ProbeWins consecutive probe commits promote
// the site back to HTM.
func TestProbationReentry(t *testing.T) {
	cfg := Config{
		Window: 16, CapacityDemote: 2, Probation: 3, ProbationGrowth: 2,
		ProbationMax: 24, ProbeWins: 2, ProbeRetry: 2,
	}
	ctl := NewController(cfg)
	s := ctl.SiteFor(1)

	// Demote to STM.
	for s.Mode() == ModeHTM {
		tx := s.Begin()
		tx.Abort(ClassCapacity)
	}
	if s.Mode() != ModeSTM {
		t.Fatalf("setup: mode = %v, want stm", s.Mode())
	}

	// During probation every execution stays in STM.
	for i := 0; i < cfg.Probation; i++ {
		tx := s.Begin()
		if tx.Probing() || tx.Mode() != ModeSTM {
			t.Fatalf("execution %d during probation: mode=%v probing=%v", i, tx.Mode(), tx.Probing())
		}
		tx.Commit()
	}

	// Probation has elapsed: the next executions probe HTM; ProbeWins
	// consecutive commits promote.
	for i := 0; i < cfg.ProbeWins; i++ {
		tx := s.Begin()
		if !tx.Probing() || tx.Mode() != ModeHTM {
			t.Fatalf("probe %d: mode=%v probing=%v, want probing htm", i, tx.Mode(), tx.Probing())
		}
		tr := tx.Commit()
		if i < cfg.ProbeWins-1 {
			if tr.Changed {
				t.Fatalf("promoted after only %d probe wins", i+1)
			}
		} else if !tr.Changed || tr.From != ModeSTM || tr.To != ModeHTM {
			t.Fatalf("want STM->HTM promotion, got %+v", tr)
		}
	}
	if s.Mode() != ModeHTM {
		t.Fatalf("mode after promotion = %v, want htm", s.Mode())
	}
}

// TestProbeHysteresis pins the anti-flapping behaviour: a failed probe
// returns the site to its demoted mode and grows the probation window
// geometrically up to the cap, so a site that keeps failing probes probes
// geometrically less often.
func TestProbeHysteresis(t *testing.T) {
	cfg := Config{
		Window: 16, CapacityDemote: 2, Probation: 2, ProbationGrowth: 2,
		ProbationMax: 8, ProbeWins: 2, ProbeRetry: 2,
	}
	ctl := NewController(cfg)
	s := ctl.SiteFor(1)
	for s.Mode() == ModeHTM {
		tx := s.Begin()
		tx.Abort(ClassCapacity)
	}

	// Each round: serve the probation commits, then fail the probe with a
	// capacity abort (immediate probe failure). The probation must double:
	// 2, 4, 8, then stay capped at 8.
	served := 0 // STM commits already credited to the current probation
	for round, wantProbation := range []int{2, 4, 8, 8} {
		n := served
		var tx Txn
		for {
			tx = s.Begin()
			if tx.Probing() {
				break
			}
			tx.Commit()
			n++
			if n > wantProbation {
				t.Fatalf("round %d: no probe after %d probation commits, want %d", round, n, wantProbation)
			}
		}
		if n != wantProbation {
			t.Fatalf("round %d: probe started after %d probation commits, want %d", round, n, wantProbation)
		}
		if tr := tx.Abort(ClassCapacity); tr.Changed {
			t.Fatalf("round %d: probe failure must not transition, got %+v", round, tr)
		}
		if tx.Probing() || tx.Mode() != ModeSTM {
			t.Fatalf("round %d: failed probe should return execution to STM, got mode=%v probing=%v",
				round, tx.Mode(), tx.Probing())
		}
		tx.Commit()
		served = 1 // the post-failure commit counts toward the next window
	}
}

// TestProbeConflictRetries verifies a probe survives transient conflicts up
// to ProbeRetry before failing — conflicts during a probe do not prove the
// demotion cause persists.
func TestProbeConflictRetries(t *testing.T) {
	cfg := Config{
		Window: 16, CapacityDemote: 2, Probation: 1, ProbeWins: 1, ProbeRetry: 3,
	}
	ctl := NewController(cfg)
	s := ctl.SiteFor(1)
	for s.Mode() == ModeHTM {
		tx := s.Begin()
		tx.Abort(ClassCapacity)
	}
	commitOnce(s) // serve probation

	tx := s.Begin()
	if !tx.Probing() {
		t.Fatal("want probe")
	}
	tx.Abort(ClassConflict)
	if !tx.Probing() || tx.Mode() != ModeHTM {
		t.Fatalf("probe gave up on first conflict: mode=%v probing=%v", tx.Mode(), tx.Probing())
	}
	if tx.Backoff(fixedIntn(0)) == 0 {
		t.Fatal("probe conflict should set a backoff")
	}
	if tr := tx.Commit(); !tr.Changed || tr.To != ModeHTM {
		t.Fatalf("probe commit with ProbeWins=1 should promote, got %+v", tr)
	}
}

// TestLockSiteProbesSTMWhenCapacityBound: a lock-mode site whose window is
// dominated by capacity aborts probes STM, not HTM — hardware would just
// overflow again.
func TestLockSiteProbesSTMWhenCapacityBound(t *testing.T) {
	cfg := Config{
		Window: 16, CapacityDemote: 3, LockDemote: 2, STMDemote: 16,
		Probation: 1, ProbeWins: 1, HTMRetry: 8,
	}
	ctl := NewController(cfg)
	s := ctl.SiteFor(1)
	// Two conflict aborts in the window so the capacity demotion below picks
	// the lock, then three capacity aborts (dominating the abort record).
	for i := 0; i < cfg.LockDemote; i++ {
		tx := s.Begin()
		tx.Abort(ClassConflict)
		tx.Commit()
	}
	for s.Mode() == ModeHTM {
		tx := s.Begin()
		tx.Abort(ClassCapacity)
	}
	if s.Mode() != ModeLock {
		t.Fatalf("setup: mode = %v, want lock", s.Mode())
	}
	commitOnce(s) // serve probation
	tx := s.Begin()
	if !tx.Probing() || tx.Mode() != ModeSTM {
		t.Fatalf("capacity-bound lock site should probe STM, got mode=%v probing=%v",
			tx.Mode(), tx.Probing())
	}
}

// TestPromotionResetsHistory: after a promotion the window is cleared, so
// the pre-demotion abort record cannot instantly re-demote the site.
func TestPromotionResetsHistory(t *testing.T) {
	cfg := Config{Window: 16, CapacityDemote: 2, Probation: 1, ProbeWins: 1}
	ctl := NewController(cfg)
	s := ctl.SiteFor(1)
	for s.Mode() == ModeHTM {
		tx := s.Begin()
		tx.Abort(ClassCapacity)
	}
	commitOnce(s) // probation
	probe := s.Begin()
	probe.Commit() // winning probe → promotion
	if s.Mode() != ModeHTM {
		t.Fatalf("mode = %v, want htm after promotion", s.Mode())
	}
	// One capacity abort must NOT re-demote (window was reset; threshold 2).
	tx := s.Begin()
	if tr := tx.Abort(ClassCapacity); tr.Changed {
		t.Fatalf("stale history re-demoted the site: %+v", tr)
	}
	if s.Mode() != ModeHTM {
		t.Fatalf("mode = %v, want htm", s.Mode())
	}
}

// TestControllerBookkeeping covers site identity, switch counting and
// snapshots — the oracles tm's TestAdaptiveHybridCorrectness reads.
func TestControllerBookkeeping(t *testing.T) {
	ctl := NewController(Config{Window: 8, CapacityDemote: 2})
	a, b := ctl.SiteFor(100), ctl.SiteFor(200)
	if a == b || a.ID() == b.ID() {
		t.Fatal("distinct keys must get distinct sites")
	}
	if ctl.SiteFor(100) != a {
		t.Fatal("same key must return the same site")
	}
	for a.Mode() == ModeHTM {
		tx := a.Begin()
		tx.Abort(ClassCapacity)
	}
	if got := ctl.Switches(); got != 1 {
		t.Fatalf("Switches() = %d, want 1", got)
	}
	snaps := ctl.Sites()
	if len(snaps) != 2 {
		t.Fatalf("Sites() returned %d snapshots, want 2", len(snaps))
	}
	if snaps[0].ID != a.ID() || snaps[0].Mode != ModeSTM || snaps[0].Transitions != 1 {
		t.Fatalf("snapshot 0 = %+v", snaps[0])
	}
	if snaps[0].Aborts == 0 {
		t.Fatal("snapshot should count aborts")
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
	for _, tc := range []struct {
		c    Class
		want string
	}{
		{ClassConflict, "conflict"}, {ClassCapacity, "capacity"},
		{ClassLockConflict, "lock"}, {ClassOther, "other"}, {ClassSTMConflict, "stm-conflict"},
	} {
		if got := tc.c.String(); got != tc.want {
			t.Errorf("Class(%d).String() = %q, want %q", tc.c, got, tc.want)
		}
	}
	if got := Class(9).String(); got != "class(9)" {
		t.Errorf("out-of-range class name = %q", got)
	}
}

// TestDefaultsAreSane pins the documented defaults.
func TestDefaultsAreSane(t *testing.T) {
	d := DefaultConfig()
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"Window", d.Window, 64},
		{"CapacityDemote", d.CapacityDemote, 4},
		{"LockDemote", d.LockDemote, 16},
		{"STMDemote", d.STMDemote, 32},
		{"HTMRetry", d.HTMRetry, 8},
		{"ProbeWins", d.ProbeWins, 4},
		{"Probation", d.Probation, 64},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("default %s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

func ExampleSite_Begin() {
	ctl := NewController(Config{CapacityDemote: 2})
	site := ctl.SiteFor(1)
	for i := 0; i < 2; i++ {
		tx := site.Begin()
		tx.Abort(ClassCapacity)
	}
	fmt.Println(site.Mode())
	// Output: stm
}
