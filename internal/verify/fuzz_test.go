package verify

import (
	"fmt"
	"testing"

	"htmcmp/internal/platform"
)

// Native Go fuzz targets. Each decodes its raw inputs into a deterministic
// generated program, runs the oracle, and on failure shrinks the program to
// a minimal counterexample and writes a runnable repro test before failing.
// The check bodies are shared, error-returning functions so the mutation
// smoke test (mutation_test.go, -tags mutate_isolation) can assert they
// fire on a broken engine without invoking the fuzz driver.

func kindFor(sel uint8) platform.Kind { return allPlatforms[int(sel)%len(allPlatforms)] }

func threadsFor(sel uint8) int { return []int{1, 2, 4, 8}[int(sel)%4] }

// checkDifferential is the FuzzDifferential body: full three-mode
// differential plus witness replay.
func checkDifferential(seed uint64, kind platform.Kind, threads int) error {
	return Differential(GenProgramThreads(seed, threads), kind)
}

// checkHTMReplay is the FuzzProgramHTM and FuzzSchedules body: an HTM run
// under the witness, replayed, and cross-checked against a lock-mode
// execution.
func checkHTMReplay(p *Program, kind platform.Kind) error {
	res, err := p.Run(kind, ModeHTM, true)
	if err != nil {
		return err
	}
	if v := Replay(res.Log); v != nil {
		return v
	}
	lockRes, err := p.Run(kind, ModeLock, false)
	if err != nil {
		return err
	}
	if res.Digest != lockRes.Digest {
		return fmt.Errorf("%s: HTM digest %#x != lock digest %#x",
			kind.Short(), res.Digest, lockRes.Digest)
	}
	return nil
}

// withSchedule replaces p's generator-drawn schedule inputs with the
// fuzzer's: quantum 1, 2 or 8 and one start offset per thread taken from
// raw (cycled; all zero when raw is empty).
func withSchedule(p *Program, quantumSel uint8, raw []byte) *Program {
	p.Quantum = []int{1, 2, 8}[int(quantumSel)%3]
	for t := range p.Offsets {
		p.Offsets[t] = 0
		if len(raw) > 0 {
			p.Offsets[t] = int(raw[t%len(raw)])
		}
	}
	return p
}

// failShrunk shrinks the failing program under the full differential check
// (it subsumes replay and digest comparison, so any engine bug the
// individual targets catch keeps failing it) and reports the minimal
// counterexample plus the path of an emitted runnable repro test.
func failShrunk(t *testing.T, err error, p *Program, kind platform.Kind) {
	t.Helper()
	shrunk := Shrink(p, func(q *Program) bool {
		return Differential(q, kind) != nil
	})
	path := SaveRepro("Shrunk", shrunk, kind)
	t.Fatalf("%v\nshrunk to %d threads / %d ops; repro test: %s",
		err, shrunk.Threads, shrunk.NumOps(), path)
}

func FuzzDifferential(f *testing.F) {
	for i := uint8(0); i < 4; i++ {
		f.Add(uint64(i)+1, i, i)
	}
	f.Fuzz(func(t *testing.T, seed uint64, kindSel, threadSel uint8) {
		kind, threads := kindFor(kindSel), threadsFor(threadSel)
		if err := checkDifferential(seed, kind, threads); err != nil {
			failShrunk(t, err, GenProgramThreads(seed, threads), kind)
		}
	})
}

func FuzzProgramHTM(f *testing.F) {
	for i := uint8(0); i < 4; i++ {
		f.Add(uint64(i)+101, i, i)
	}
	f.Fuzz(func(t *testing.T, seed uint64, kindSel, threadSel uint8) {
		kind, p := kindFor(kindSel), GenProgramThreads(seed, threadsFor(threadSel))
		if err := checkHTMReplay(p, kind); err != nil {
			failShrunk(t, err, p, kind)
		}
	})
}

// FuzzSchedules explores interleavings the min-clock rule would not pick on
// its own: besides the program it draws the yield quantum and every
// thread's start offset, the two inputs that steer the elector.
func FuzzSchedules(f *testing.F) {
	for i := uint8(0); i < 4; i++ {
		f.Add(uint64(i)+201, i, i, i, []byte{i, 7 * i, 31 * i})
	}
	f.Fuzz(func(t *testing.T, seed uint64, kindSel, threadSel, quantumSel uint8, offsets []byte) {
		kind := kindFor(kindSel)
		p := withSchedule(GenProgramThreads(seed, threadsFor(threadSel)), quantumSel, offsets)
		if err := checkHTMReplay(p, kind); err != nil {
			failShrunk(t, err, p, kind)
		}
	})
}
