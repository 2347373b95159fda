package harness

import (
	"htmcmp/internal/platform"
	"htmcmp/internal/tm"
)

// TuneResult records the winning configuration of a tuning search.
type TuneResult struct {
	Policy tm.Policy
	Mode   platform.BGQMode
	Chunk  int // genome CHUNK_STEP_1 (0 when not applicable)
	Result Result
}

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

// Tune searches spec's retry-policy space through a memo of its own (see
// Regions.Tune).
func Tune(spec RunSpec) (TuneResult, error) { return NewRegions().Tune(spec) }

// Tune searches the retry-policy space for spec (single-repeat trials) and
// returns the best configuration together with its re-measured result at the
// requested repeat count. It is the scaled-down analogue of the paper's
// exhaustive per-test-case optimisation. The trials and the re-measure are
// folds over regions obtained through r, so the trials share their
// sequential baseline and the re-measure's first repeat is the winning
// trial.
func (r *Regions) Tune(spec RunSpec) (TuneResult, error) {
	spec = spec.withDefaults()
	candidates := tuneCandidates(spec)
	best := -1
	bestSpeed := 0.0
	for i, c := range candidates {
		res, err := r.Run(c)
		if err != nil {
			return TuneResult{}, err
		}
		if res.Speedup > bestSpeed {
			bestSpeed = res.Speedup
			best = i
		}
	}
	win := candidates[best]
	win.Repeats = spec.Repeats
	final, err := r.Run(win)
	if err != nil {
		return TuneResult{}, err
	}
	return TuneResult{
		Policy: *win.Policy,
		Mode:   win.Mode,
		Chunk:  win.ChunkStep1,
		Result: final,
	}, nil
}

// tuneCandidates lists the single-repeat trials of the search for spec
// (already defaulted).
func tuneCandidates(spec RunSpec) []RunSpec {
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
