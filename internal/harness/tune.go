package harness

import (
	"htmcmp/internal/platform"
	"htmcmp/internal/tm"
)

// policyGrid is the retry-count search space for zEC12, Intel and POWER8 —
// a compact version of the paper's per-test-case optimisation ("we optimized
// the parameter values for each test case", Section 5.1). The persistent
// counter includes the value 1 because the paper found yada needs it
// ("reducing the maximum persistent-retry count improves the performance").
var policyGrid = []tm.Policy{
	{LockRetry: 2, PersistentRetry: 1, TransientRetry: 4},
	{LockRetry: 4, PersistentRetry: 1, TransientRetry: 16},
	{LockRetry: 8, PersistentRetry: 2, TransientRetry: 8},
	{LockRetry: 16, PersistentRetry: 2, TransientRetry: 32},
	{LockRetry: 4, PersistentRetry: 8, TransientRetry: 16},
}

// bgqGrid is Blue Gene/Q's search space: the single system retry counter
// crossed with the running mode (Section 5.1 tunes "the maximum retry count
// and the running mode for each benchmark").
var bgqGrid = []struct {
	retries int
	mode    platform.BGQMode
}{
	{4, platform.ShortRunning},
	{16, platform.ShortRunning},
	{4, platform.LongRunning},
	{16, platform.LongRunning},
}

// genomeChunks is the CHUNK_STEP_1 candidates; the paper selects 9 for Blue
// Gene/Q and 2 for the other processors (Section 4).
var genomeChunks = []int{2, 9}

// Retry-count clamps for Neighbours' moves. The grids stay well inside
// them; they only stop runaway doubling.
const (
	maxLockRetry      = 64
	maxPersistRetry   = 32
	maxTransientRetry = 128
)

// Tune searches the retry-policy space for spec (single-repeat trials of
// TuneGrid) and returns the winner re-measured at the requested repeat
// count; its Spec carries the winning Policy, Mode and ChunkStep1. It is the
// scaled-down analogue of the paper's exhaustive per-test-case optimisation.
// The trials and the re-measure are folds over regions obtained through r,
// so the trials share their sequential baseline and the re-measure's first
// repeat is the winning trial.
func (r *Regions) Tune(spec RunSpec) (Result, error) {
	spec = spec.withDefaults()
	win, _, err := Search(TuneGrid(spec), 0, func(trials []RunSpec) ([]Result, error) {
		out := make([]Result, len(trials))
		for i, c := range trials {
			res, err := r.Run(c)
			if err != nil {
				return nil, err
			}
			out[i] = res
		}
		return out, nil
	}, nil)
	if err != nil {
		return Result{}, err
	}
	win.Repeats = spec.Repeats
	return r.Run(win)
}

// TuneGrid lists the single-repeat trials of the paper-grid search for spec:
// policyGrid (Blue Gene/Q: bgqGrid's counter × mode), each crossed with
// genomeChunks for a genome spec that does not fix its chunk.
func TuneGrid(spec RunSpec) []RunSpec {
	trial := spec
	trial.Repeats = 1

	var candidates []RunSpec
	if spec.Platform == platform.BlueGeneQ {
		for _, g := range bgqGrid {
			c := trial
			pol := tm.DefaultPolicy(platform.BlueGeneQ)
			pol.TransientRetry = g.retries
			pol.LazySubscription = g.mode == platform.LongRunning
			c.Policy = &pol
			c.Mode = g.mode
			candidates = append(candidates, c)
		}
	} else {
		for i := range policyGrid {
			c := trial
			c.Policy = &policyGrid[i]
			candidates = append(candidates, c)
		}
	}
	// genome additionally tunes its insertion chunk.
	if spec.Benchmark == "genome" && spec.ChunkStep1 == 0 {
		var expanded []RunSpec
		for _, c := range candidates {
			for _, chunk := range genomeChunks {
				cc := c
				cc.ChunkStep1 = chunk
				expanded = append(expanded, cc)
			}
		}
		candidates = expanded
	}
	return candidates
}

// Neighbours returns the refinement moves around trial: each retry counter
// halved and doubled within the clamps, in lock, persistent, transient
// order. On Blue Gene/Q only the system (transient) counter moves, and the
// running mode flips together with LazySubscription. The chunk is kept: a
// grid already separates the chunk values.
func Neighbours(trial RunSpec) []RunSpec {
	p := trial.policy()
	var out []RunSpec
	move := func(v, max int, set func(*tm.Policy, int)) {
		for _, nv := range []int{v / 2, v * 2} {
			if nv < 1 || nv > max || nv == v {
				continue
			}
			n, np := trial, p
			set(&np, nv)
			n.Policy = &np
			out = append(out, n)
		}
	}
	transient := func(q *tm.Policy, v int) { q.TransientRetry = v }
	if trial.Platform == platform.BlueGeneQ {
		move(p.TransientRetry, maxTransientRetry, transient)
		flip, fp := trial, p
		flip.Mode = platform.ShortRunning
		if trial.Mode == platform.ShortRunning {
			flip.Mode = platform.LongRunning
		}
		fp.LazySubscription = flip.Mode == platform.LongRunning
		flip.Policy = &fp
		return append(out, flip)
	}
	move(p.LockRetry, maxLockRetry, func(q *tm.Policy, v int) { q.LockRetry = v })
	move(p.PersistentRetry, maxPersistRetry, func(q *tm.Policy, v int) { q.PersistentRetry = v })
	move(p.TransientRetry, maxTransientRetry, transient)
	return out
}

// trialKey is what separates two search points: the resolved policy, the
// running mode and genome's chunk.
type trialKey struct {
	policy tm.Policy
	mode   platform.BGQMode
	chunk  int
}

// Search measures grid as one batch through eval, then up to rounds batches
// of the incumbent's Neighbours that it has not measured yet, and returns
// the fastest trial with its result; the first of equal trials wins. eval
// returns one result per spec, in order. logf, when non-nil, sees every
// measured trial with its round and whether it became the incumbent.
func Search(grid []RunSpec, rounds int, eval func([]RunSpec) ([]Result, error),
	logf func(round int, trial RunSpec, res Result, best bool)) (RunSpec, Result, error) {
	seen := map[trialKey]bool{}
	var best RunSpec
	var bestRes Result
	have := false
	batch := grid
	for round := 0; ; round++ {
		var fresh []RunSpec
		for _, s := range batch {
			if k := (trialKey{s.policy(), s.Mode, s.ChunkStep1}); !seen[k] {
				seen[k] = true
				fresh = append(fresh, s)
			}
		}
		if len(fresh) == 0 {
			break
		}
		results, err := eval(fresh)
		if err != nil {
			return best, bestRes, err
		}
		for i, s := range fresh {
			improved := !have || results[i].Speedup > bestRes.Speedup
			if improved {
				best, bestRes, have = s, results[i], true
			}
			if logf != nil {
				logf(round, s, results[i], improved)
			}
		}
		if round >= rounds {
			break
		}
		batch = Neighbours(best)
	}
	return best, bestRes, nil
}
