package harness

import (
	"fmt"
	"sync"

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
// is in the grid is one of the trials.
//
// Parallel regions that differ only in their retry budgets and TMCAM size
// form a budget family, and a simulated member answers any other member
// whose budgets it never reached (flight.serves): that member would replay
// it event for event. An exact key is the trivial case. A request waits
// for every member of its family in flight before it decides, so how many
// regions are simulated depends on the requests alone, not on how many
// goroutines make them or in what order. A region that errors or panics
// wakes its waiters with the error and is forgotten, so the next request
// simulates it afresh. Regions never request regions, so waiting cannot
// deadlock.
//
// A Regions lives as long as its owner (a sweep scheduler, or one experiment
// call) and is safe for concurrent use. Nothing in it is persisted.
type Regions struct {
	mu        sync.Mutex
	families  map[regionKey][]*flight // by regionKey.family
	simulated int                     // guarded by mu, as served is
	served    int
}

// NewRegions returns an empty memo.
func NewRegions() *Regions {
	return &Regions{families: map[regionKey][]*flight{}}
}

// Simulated reports how many regions r has simulated: one per class of
// requested regions that serve each other, plus one per retry of a region
// that failed.
func (r *Regions) Simulated() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.simulated
}

// Served reports how many distinct regions r answered from another member
// of their budget family instead of simulating them.
func (r *Regions) Served() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.served
}

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
// and, for a parallel region, the runtime and engine counters, plus what it
// spent of its retry budgets and the capacity it needed (flight.serves).
type region struct {
	cycles float64
	tm     tm.Stats
	engine htm.Stats
	use    tm.RetryUse
	need   int
}

// flight is one member of a budget family: a region in progress until done
// is closed, or one answered by another member.
type flight struct {
	key     regionKey
	done    chan struct{}
	waiters int // requests that found it in flight or memoised (guarded by Regions.mu)
	region
	err error
}

// family is the budget family of k: k without its retry budgets and TMCAM
// size. A faulted or traced region is a family of its own, served to its
// exact key only.
func (k regionKey) family() regionKey {
	if k.Faults != nil || k.TraceDir != "" {
		return k
	}
	k.Policy.LockRetry, k.Policy.PersistentRetry, k.Policy.TransientRetry = 0, 0, 0
	k.TMCAMEntries = 0
	return k
}

// capLines is the capacity, in lines, that k's capacity checks compare
// against: TMCAMEntries on POWER8, the platform's own elsewhere.
func (k regionKey) capLines() int {
	spec := RunSpec{Platform: k.Platform, TMCAMEntries: k.TMCAMEntries}.platformSpec()
	return min(spec.LoadCapacityLines(), spec.StoreCapacityLines())
}

// serves reports whether f's landed region is the one want, a member of its
// family, would simulate: every retry counter whose budget differs stayed
// below both budgets, and a capacity that differs covers what every
// capacity check needed under both.
func (f *flight) serves(want regionKey) bool {
	have := f.key
	if have == want {
		return true
	}
	if !f.use.Fits(have.Policy, want.Policy) {
		return false
	}
	hc, wc := have.capLines(), want.capLines()
	return hc == wc || f.need <= hc && f.need <= wc
}

// landed reports whether f's region is done.
func (f *flight) landed() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
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
// simulating it, served by another member of its budget family, or
// simulated here by sim. A panic in sim is re-raised to this caller after
// the waiters have been woken with it as an error.
func (r *Regions) do(k regionKey, sim func() (region, error)) (region, error) {
	fam := k.family()
	r.mu.Lock()
	for {
		var busy *flight
		for _, f := range r.families[fam] {
			if f.key == k {
				f.waiters++
				r.mu.Unlock()
				<-f.done
				return f.region, f.err
			}
			if busy == nil && !f.landed() {
				busy = f
			}
		}
		if busy == nil {
			break
		}
		// Decide only once the family has landed: a member in flight may
		// serve k.
		r.mu.Unlock()
		<-busy.done
		r.mu.Lock()
	}
	for _, f := range r.families[fam] {
		if f.serves(k) {
			// Memoise k itself, so a repeat of k is an exact hit.
			r.families[fam] = append(r.families[fam], &flight{key: k, done: f.done, region: f.region})
			r.served++
			r.mu.Unlock()
			return f.region, nil
		}
	}
	f := &flight{key: k, done: make(chan struct{})}
	r.families[fam] = append(r.families[fam], f)
	r.simulated++
	r.mu.Unlock()
	defer func() {
		p := recover()
		if p != nil {
			f.err = fmt.Errorf("harness: engine region panicked: %v", p)
		}
		if f.err != nil {
			r.mu.Lock()
			r.forget(fam, f)
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

// forget drops the failed flight f from its family; callers hold mu.
func (r *Regions) forget(fam regionKey, f *flight) {
	members := r.families[fam]
	for i, m := range members {
		if m == f {
			r.families[fam] = append(members[:i:i], members[i+1:]...)
			break
		}
	}
	if len(r.families[fam]) == 0 {
		delete(r.families, fam)
	}
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
