//go:build mutate_isolation

package verify

// Mutation smoke test: built with -tags mutate_isolation the engine's
// txStore writes through to the arena instead of the per-transaction
// buffer (see internal/htm/mutate_on.go), breaking write-set isolation —
// aborted transactions leak their stores and committed transactions publish
// stale buffers. This file proves the oracle actually fires on a broken
// engine: both the witness replay and the three-way differential must
// detect the bug, and the shrinker must hand back a still-failing
// reproducer. It is the "does the smoke detector beep" test for the whole
// verification stack; it never runs in a clean build.

import (
	"strings"
	"testing"

	"htmcmp/internal/platform"
)

// TestMutationCaught runs contended generated programs on every platform
// model and requires the oracle to flag the seeded isolation bug. Single
// seeds can get lucky (no abort ever leaks a store the digest notices), so
// each platform gets several; every platform must be caught at least once
// and the overall catch rate must be overwhelming.
func TestMutationCaught(t *testing.T) {
	const threads = 4
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	total, caught := 0, 0
	for _, kind := range allPlatforms {
		kindCaught := 0
		for _, seed := range seeds {
			total++
			if err := checkDifferential(seed, kind, threads); err != nil {
				caught++
				kindCaught++
			}
		}
		if kindCaught == 0 {
			t.Errorf("%s: seeded isolation bug never detected over %d seeds",
				kind.Short(), len(seeds))
		}
	}
	if caught*4 < total*3 {
		t.Errorf("oracle caught the mutation in only %d/%d runs", caught, total)
	}
	t.Logf("mutation caught in %d/%d runs", caught, total)
}

// TestMutationCaughtByExhaustiveSchedules mutation-tests the schedule
// oracle: the box TestSmallSchedulesExhaustive passes on a sound engine must
// reject the seeded bug on every platform.
func TestMutationCaughtByExhaustiveSchedules(t *testing.T) {
	for _, kind := range allPlatforms {
		_, failed := exploreSchedules(t, kind)
		if len(failed) == 0 {
			t.Errorf("%s: no schedule of the box detected the seeded isolation bug", kind.Short())
			continue
		}
		t.Logf("%s: mutation caught on %d schedules, e.g. %v", kind.Short(), len(failed), failed[0])
	}
}

// TestMutationCaughtByReplay pins that the witness replay alone (no
// cross-mode digest comparison) sees the bug: a leaked or stale line shows
// up as a read whose contents disagree with commit order.
func TestMutationCaughtByReplay(t *testing.T) {
	hit := false
	for seed := uint64(1); seed <= 8 && !hit; seed++ {
		p := GenProgramThreads(seed, 4)
		res, err := p.Run(platform.IntelCore, ModeHTM, true)
		if err != nil {
			t.Fatal(err)
		}
		if v := Replay(res.Log); v != nil {
			hit = true
			if v.Kind != StaleRead && v.Kind != DirtyRead && v.Kind != FinalStateMismatch {
				t.Fatalf("unexpected violation kind %v: %v", v.Kind, v)
			}
			t.Logf("replay violation: %v", v)
		}
	}
	if !hit {
		t.Fatal("witness replay never detected the seeded isolation bug")
	}
}

// TestMutationShrinksToRepro exercises the full failure pipeline on a real
// (seeded) engine bug: shrink a caught counterexample and emit a runnable
// repro test, exactly as the fuzz targets do.
func TestMutationShrinksToRepro(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		kind := platform.IntelCore
		p := GenProgramThreads(seed, 4)
		if Differential(p, kind) == nil {
			continue
		}
		s := Shrink(p, func(q *Program) bool { return Differential(q, kind) != nil })
		if Differential(s, kind) == nil {
			t.Fatal("shrunk program no longer fails")
		}
		if s.NumOps() > p.NumOps() {
			t.Fatalf("shrink grew the program: %d -> %d ops", p.NumOps(), s.NumOps())
		}
		var b strings.Builder
		if err := WriteReproTest(&b, "Mutation", s, kind); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), "func TestReproMutation") {
			t.Fatalf("malformed repro source:\n%s", b.String())
		}
		t.Logf("seed %d shrunk from %d to %d ops", seed, p.NumOps(), s.NumOps())
		return
	}
	t.Fatal("no seed produced a differential failure to shrink")
}
