package harness

import (
	"fmt"

	"htmcmp/internal/htm"
	"htmcmp/internal/stamp"
	"htmcmp/internal/tm"
)

// Verify cross-checks one experiment cell: the benchmark runs to completion
// from the same seed under the cell's own transactional runtime, the NOrec
// STM, and the degenerate single-global-lock baseline. Every execution must
// pass the benchmark's own Validate consistency check and all three must
// complete the same number of work units. A non-nil error means the modes
// disagree — a correctness bug in the engine or runtime, not a workload
// property.
//
// Final memory images are deliberately NOT compared: STAMP data structures
// are interleaving-dependent (tree shapes, list orders, allocation
// addresses), so bit-identity across modes is not part of the contract —
// semantic consistency (Validate) and completed work (Units) are. For
// benchmarks that declare stamp.DynamicWork (yada: processing one item can
// spawn new ones, so the total is schedule-dependent), the Units comparison
// is skipped too and Validate alone carries the contract.
func Verify(spec RunSpec) error {
	spec = spec.withDefaults()
	modes := []string{"tm", "stm", "lock"}
	switch {
	case spec.UseSTM:
		modes = []string{"stm", "lock"}
	case spec.UseHLE:
		modes = []string{"hle", "stm", "lock"}
	}
	units := make([]int, len(modes))
	dynamic := false
	for i, mode := range modes {
		u, dyn, err := spec.runVerifyOnce(mode)
		if err != nil {
			return err
		}
		units[i] = u
		dynamic = dynamic || dyn
	}
	if dynamic {
		return nil
	}
	for i := 1; i < len(modes); i++ {
		if units[i] != units[0] {
			return fmt.Errorf("verify %s: completed units diverge: %s=%d, %s=%d",
				spec.Label(), modes[0], units[0], modes[i], units[i])
		}
	}
	return nil
}

// runVerifyOnce executes one parallel run with every critical section
// dispatched through the named runner mode and returns the completed work
// units after a successful Validate, plus whether the benchmark declares
// its unit count interleaving-dependent (stamp.DynamicWork).
func (s RunSpec) runVerifyOnce(mode string) (int, bool, error) {
	b, err := stamp.New(s.Benchmark, s.benchConfig(s.Seed))
	if err != nil {
		return 0, false, err
	}
	cfg := s.engineConfig(s.Threads, s.Seed)
	// Chaos rides into the verification runs too: the differential modes
	// must agree under injected aborts, not only on clean executions.
	cfg.Faults = s.Faults
	e := htm.New(s.platformSpec(), cfg)
	b.Setup(e.Thread(0))
	lock := tm.NewGlobalLock(e)
	pol := s.policy()
	runners := make([]stamp.Runner, s.Threads)
	for i := range runners {
		x := tm.NewExecutor(e.Thread(i), lock, pol)
		switch mode {
		case "stm":
			runners[i] = stamp.STMRunner{X: x}
		case "hle":
			runners[i] = stamp.HLERunner{X: x}
		case "lock":
			runners[i] = stamp.LockRunner{X: x}
		default:
			runners[i] = stamp.TMRunner{X: x}
		}
	}
	b.Run(runners)
	if err := b.Validate(e.Thread(0)); err != nil {
		return 0, false, fmt.Errorf("verify %s under %s: %w", s.Label(), mode, err)
	}
	dyn, _ := b.(stamp.DynamicWork)
	units := b.Units()
	e.Release()
	return units, dyn != nil && dyn.UnitsDynamic(), nil
}
