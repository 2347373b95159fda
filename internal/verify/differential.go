package verify

import (
	"fmt"

	"htmcmp/internal/platform"
)

// Differential runs the program to completion under each of {platform HTM,
// NOrec STM, global lock} with the same seed and schedule inputs and asserts
// that the final shared-memory state (per-array digests) matches across all
// three and that every run's witness log replays serializably. A non-nil
// error is a correctness bug in the engine (or a shrunk reproducer of one).
func Differential(p *Program, kind platform.Kind) error {
	type run struct {
		mode Mode
		res  *RunResult
	}
	runs := make([]run, 0, 3)
	for _, mode := range []Mode{ModeHTM, ModeSTM, ModeLock} {
		res, err := p.Run(kind, mode, true)
		if err != nil {
			return fmt.Errorf("%s/%s run failed: %w", kind.Short(), mode, err)
		}
		// STM logs are write-only records: replay still validates that
		// applying them reproduces the final arena.
		if v := Replay(res.Log); v != nil {
			return fmt.Errorf("%s/%s: %w", kind.Short(), mode, v)
		}
		runs = append(runs, run{mode, res})
	}
	base := runs[len(runs)-1] // lock run: the non-speculative reference
	for _, r := range runs[:len(runs)-1] {
		if r.res.Digest != base.res.Digest {
			return fmt.Errorf("%s: final-state digest diverges: %s=%#x, %s=%#x (array sums %v vs %v)",
				kind.Short(), r.mode, r.res.Digest, base.mode, base.res.Digest,
				r.res.ArraySums, base.res.ArraySums)
		}
	}
	return nil
}
