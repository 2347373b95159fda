package harness

import (
	"fmt"
	"sync"
	"sync/atomic"

	"htmcmp/internal/chaos"
	"htmcmp/internal/htm"
	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
	"htmcmp/internal/tm"
)

// Regions is a single-flight, in-memory memo of engine regions: one
// sequential baseline or one parallel repeat, keyed by exactly what that
// region reads. Cells that need the same region share one simulation: one
// baseline per benchmark workload serves every platform, mode and thread
// count, a tuning search's trials share their baseline, the re-measure of
// the winner starts with the winning trial, and a default cell whose policy
// is in the grid is one of the trials. Concurrent requests for a region that
// is being simulated wait for it, so how many regions are simulated depends
// on the requests alone, not on how many goroutines make them. A region that
// errors or panics wakes its waiters with the error and is forgotten, so the
// next request simulates it afresh. Regions never request regions, so
// waiting cannot deadlock.
//
// A Regions lives as long as its owner (a sweep scheduler, or one experiment
// call) and is safe for concurrent use. Nothing in it is persisted.
type Regions struct {
	mu        sync.Mutex
	flights   map[regionKey]*flight
	simulated atomic.Int64
}

// NewRegions returns an empty memo.
func NewRegions() *Regions {
	return &Regions{flights: map[regionKey]*flight{}}
}

// Simulated reports how many regions r has simulated: one per distinct
// region requested, plus one per retry of a region that failed.
func (r *Regions) Simulated() int { return int(r.simulated.Load()) }

// Measure implements Exec by running the cell on the spot, through r.
func (r *Regions) Measure(spec RunSpec, tune bool) (Result, error) {
	if tune {
		return r.Tune(spec)
	}
	return r.Run(spec)
}

// regionKey is what one region reads: the RunSpec fields that reach its
// engine, benchmark and runtime, and the repeat's derived seed. Repeats is
// not in it (a region is one repeat), and neither is anything else a region
// does not read, so cells that differ only there share the region.
//
// A sequential baseline sets only the workload fields (seqKey): one
// untraced, clean thread pays no platform cost, so its cycles are equal on
// every platform model and under every engine option
// (TestSeqBaselinePlatformFree holds this). A parallel region sets every
// field. traceName hashes the JSON encoding, so the field order is frozen.
type regionKey struct {
	Platform          platform.Kind
	Benchmark         string
	Scale             stamp.Scale
	Variant           stamp.Variant
	Seed              uint64
	Mode              platform.BGQMode
	CostScale         float64
	DisablePrefetch   bool
	DisableSMTSharing bool
	ResponderWins     bool
	ChunkStep1        int
	TMCAMEntries      int
	SpaceSize         int

	// What a parallel region reads besides the platform and engine fields
	// above; all zero for a sequential baseline, which runs one thread,
	// untraced and clean.
	Threads int
	// Policy is resolved, so a nil RunSpec.Policy and an explicit copy of
	// the default are one region.
	Policy   tm.Policy
	UseHLE   bool
	UseSTM   bool
	Adaptive bool
	// The injector is part of a faulted region's identity, so it is never
	// served to a clean request. Neither field goes into a trace file name.
	Faults   *chaos.Injector `json:"-"`
	TraceDir string          `json:"-"`
}

// region is one simulated region's answer: its duration in virtual cycles
// and, for a parallel region, the runtime and engine counters.
type region struct {
	cycles float64
	tm     tm.Stats
	engine htm.Stats
}

// flight is one region, in progress until done is closed.
type flight struct {
	done    chan struct{}
	waiters int // requests that found it in flight or memoised (guarded by Regions.mu)
	region
	err error
}

// seqKey is the key of spec's sequential baseline under seed: the workload
// alone, shared by every platform and engine option.
func (s RunSpec) seqKey(seed uint64) regionKey {
	return regionKey{
		Benchmark:  s.Benchmark,
		Scale:      s.Scale,
		Variant:    s.Variant,
		Seed:       seed,
		ChunkStep1: s.ChunkStep1,
		SpaceSize:  s.SpaceSize,
	}
}

// parKey is the key of spec's parallel run under seed.
func (s RunSpec) parKey(seed uint64) regionKey {
	k := s.seqKey(seed)
	k.Platform, k.Mode, k.CostScale = s.Platform, s.Mode, s.CostScale
	k.DisablePrefetch, k.DisableSMTSharing, k.ResponderWins = s.DisablePrefetch, s.DisableSMTSharing, s.ResponderWins
	k.TMCAMEntries = s.TMCAMEntries
	k.Threads = s.Threads
	k.Policy = s.policy()
	k.UseHLE, k.UseSTM, k.Adaptive = s.UseHLE, s.UseSTM, s.Adaptive
	k.Faults, k.TraceDir = s.Faults, s.TraceDir
	return k
}

// do returns the region under k: memoised, awaited from the request already
// simulating it, or simulated here by sim. A panic in sim is re-raised to
// this caller after the waiters have been woken with it as an error.
func (r *Regions) do(k regionKey, sim func() (region, error)) (region, error) {
	r.mu.Lock()
	f, ok := r.flights[k]
	if ok {
		f.waiters++
	} else {
		f = &flight{done: make(chan struct{})}
		r.flights[k] = f
	}
	r.mu.Unlock()
	if ok {
		<-f.done
		return f.region, f.err
	}
	r.simulated.Add(1)
	defer func() {
		p := recover()
		if p != nil {
			f.err = fmt.Errorf("harness: engine region panicked: %v", p)
		}
		if f.err != nil {
			r.mu.Lock()
			delete(r.flights, k)
			r.mu.Unlock()
		}
		close(f.done)
		if p != nil {
			panic(p)
		}
	}()
	f.region, f.err = sim()
	return f.region, f.err
}

// seq returns spec's sequential baseline under seed, in virtual cycles.
func (r *Regions) seq(spec RunSpec, seed uint64) (float64, error) {
	g, err := r.do(spec.seqKey(seed), func() (region, error) {
		cycles, err := spec.runSeqOnce(seed)
		return region{cycles: cycles}, err
	})
	return g.cycles, err
}

// par returns spec's parallel run under seed.
func (r *Regions) par(spec RunSpec, seed uint64) (region, error) {
	return r.do(spec.parKey(seed), func() (region, error) { return spec.runParOnce(seed) })
}
