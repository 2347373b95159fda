package adapt

import (
	"testing"

	"htmcmp/internal/chaos"
)

// TestChaosModeThrash drives a healthy, always-committing site under a
// certain thrash injection: every commit forces a steady-mode rotation, the
// transitions flow through the ordinary transition path,
// and the site keeps executing in whatever mode the thrash lands it in.
func TestChaosModeThrash(t *testing.T) {
	cfg := chaos.Config{Seed: 3}
	cfg.OpRates[chaos.ModeThrash] = 1
	in := chaos.New(cfg)
	site := NewController(in).SiteFor(0xbeef)

	modes := map[Mode]bool{}
	var transitions uint64
	for i := 0; i < 9; i++ {
		txn := site.Begin()
		modes[txn.Mode()] = true
		if tr := txn.Commit(); tr.Changed {
			transitions++
			if tr.From == tr.To {
				t.Fatalf("self-transition %v -> %v", tr.From, tr.To)
			}
		}
	}
	if transitions == 0 {
		t.Fatal("certain thrash never forced a transition")
	}
	if in.Fired(chaos.ModeThrash) != transitions {
		t.Fatalf("injector fired %d, transitions %d", in.Fired(chaos.ModeThrash), transitions)
	}
	// Rotation visits every mode given enough commits.
	if len(modes) != NumModes {
		t.Fatalf("thrash visited %d modes, want %d", len(modes), NumModes)
	}
}

// TestChaosThrashDeterministic pins that two controllers with the same seed
// thrash identically — the per-site streams are derived, not shared.
func TestChaosThrashDeterministic(t *testing.T) {
	run := func() []Mode {
		cfg := chaos.Config{Seed: 17}
		cfg.OpRates[chaos.ModeThrash] = 0.5
		site := NewController(chaos.New(cfg)).SiteFor(1)
		var seq []Mode
		for i := 0; i < 50; i++ {
			txn := site.Begin()
			seq = append(seq, txn.Mode())
			txn.Commit()
		}
		return seq
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("mode sequence diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
