// Package trace collects per-transaction footprint distributions — the
// reproduction of the paper's Figures 10 and 11, which plot each
// (benchmark, processor) pair's 90-percentile transactional load and store
// sizes against its abort ratio. The paper gathered addresses with a
// tracing tool on one machine and mapped them onto each processor's cache
// lines; we do the equivalent by running each benchmark single-threaded on
// each platform model and reading the footprints off the commit events of
// the engine's event log.
package trace

import (
	"path/filepath"

	"htmcmp/internal/htm"
	"htmcmp/internal/obs"
	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
	"htmcmp/internal/stats"
	"htmcmp/internal/tm"
)

// Footprint is the per-(benchmark, platform) result: 90-percentile
// transactional load/store sizes in KB, plus capacity verdicts.
type Footprint struct {
	Benchmark string
	Platform  platform.Kind
	// P90LoadKB and P90StoreKB are the 90th-percentile committed
	// transaction footprints, in kilobytes of conflict-detection lines.
	P90LoadKB  float64
	P90StoreKB float64
	// MaxLoadKB/MaxStoreKB are the largest observed footprints.
	MaxLoadKB  float64
	MaxStoreKB float64
	// Transactions is the number of sampled (committed) transactions.
	Transactions int
	// ExceedsLoadCap/ExceedsStoreCap report whether the 90-percentile size
	// exceeds the platform's capacity (the capacity lines drawn in the
	// figures).
	ExceedsLoadCap  bool
	ExceedsStoreCap bool
}

// Collector abstracts how footprint collections are executed. CollectAll
// requests every (benchmark, platform) pair through it, which lets a sweep
// scheduler record the pairs as cells and later serve them from a
// concurrently precomputed, cached result set. A nil Collector collects
// on the spot via Collect.
type Collector interface {
	Collect(bench string, k platform.Kind, opts Options) (Footprint, error)
}

// inline is the default Collector: it runs every collection on the spot.
type inline struct{}

func (inline) Collect(bench string, k platform.Kind, opts Options) (Footprint, error) {
	return Collect(bench, k, opts)
}

// Options configure a trace collection. The JSON encoding feeds sweep
// cache keys (footprint cells embed it), so runtime-only fields carry
// json:"-" and new serialized fields must be ,omitempty; Scale and Seed
// predate that rule and are frozen into existing keys (TestInvariants in
// the root package checks this).
type Options struct {
	Scale stamp.Scale
	Seed  uint64
	// Exec executes collections (sweep scheduling / caching); nil collects
	// on the spot via Collect.
	Exec Collector `json:"-"`
	// TraceDir, when non-empty, writes the run's event log as a per-pair
	// JSONL event file <bench>-<platform>.jsonl into it.
	// Excluded from JSON so sweep cache keys are unaffected by tracing.
	TraceDir string `json:"-"`
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Exec == nil {
		o.Exec = inline{}
	}
	return o
}

// Collect runs benchmark bench single-threaded on platform k with an event
// log attached and returns the footprint distribution of its commit events.
// Transactions are executed through the normal runtime so fallbacks and
// retries behave as in measurement runs, but with one thread every
// transaction commits.
func Collect(bench string, k platform.Kind, opts Options) (Footprint, error) {
	opts = opts.withDefaults()
	b, err := stamp.New(bench, stamp.Config{Scale: opts.Scale, Seed: opts.Seed})
	if err != nil {
		return Footprint{}, err
	}
	tracer := obs.NewTracer()
	e := htm.New(platform.New(k), htm.Config{
		Threads:   1,
		SpaceSize: 96 << 20,
		Seed:      opts.Seed,
		CostScale: 0,
		Tracer:    tracer,
		// The paper's trace tool measured transaction sizes without any
		// capacity limit, then compared them against each platform's
		// budget; we do the same.
		UnboundedCapacity: true,
	})
	b.Setup(e.Thread(0))
	lock := tm.NewGlobalLock(e)
	x := tm.NewExecutor(e.Thread(0), lock, tm.DefaultPolicy(k))
	b.Run([]stamp.Runner{stamp.TMRunner{X: x}})
	if err := b.Validate(e.Thread(0)); err != nil {
		return Footprint{}, err
	}

	// Only hardware commits emit commit events, so this is exactly the set
	// of committed transactions' footprints in distinct lines.
	events := tracer.Events()
	var loads, stores []int
	for _, ev := range events {
		if ev.Kind == obs.KindCommit {
			loads = append(loads, int(ev.ReadLines))
			stores = append(stores, int(ev.WriteLines))
		}
	}
	line := float64(e.LineSize())
	toKB := func(lines float64) float64 { return lines * line / 1024 }
	spec := e.Platform()
	fp := Footprint{
		Benchmark:    bench,
		Platform:     k,
		P90LoadKB:    toKB(stats.PercentileInts(loads, 90)),
		P90StoreKB:   toKB(stats.PercentileInts(stores, 90)),
		MaxLoadKB:    toKB(stats.PercentileInts(loads, 100)),
		MaxStoreKB:   toKB(stats.PercentileInts(stores, 100)),
		Transactions: len(loads),
	}
	fp.ExceedsLoadCap = fp.P90LoadKB > float64(spec.LoadCapacity)/1024
	fp.ExceedsStoreCap = fp.P90StoreKB > float64(spec.StoreCapacity)/1024
	if opts.TraceDir != "" {
		path := filepath.Join(opts.TraceDir, bench+"-"+k.Short()+".jsonl")
		if err := obs.WriteJSONLFile(path, events); err != nil {
			return Footprint{}, err
		}
	}
	e.Release()
	return fp, nil
}

// CollectAll gathers footprints for every benchmark × platform pair
// (Figures 10 and 11 use all pairs except bayes, which the paper drops from
// analysis; it is included here and callers may filter). Options are
// normalised before dispatch so that an Exec sees canonical cell inputs.
func CollectAll(opts Options) ([]Footprint, error) {
	opts = opts.withDefaults()
	var out []Footprint
	for _, bench := range stamp.Names() {
		for _, k := range platform.Kinds() {
			fp, err := opts.Exec.Collect(bench, k, opts)
			if err != nil {
				return nil, err
			}
			out = append(out, fp)
		}
	}
	return out, nil
}
