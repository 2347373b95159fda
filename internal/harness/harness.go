// Package harness runs the paper's experiments: it assembles engines,
// runtimes and benchmarks into measured runs, tunes the per-(platform,
// benchmark) retry counts the way Section 5 does, and renders each table and
// figure of the evaluation as text/CSV.
package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"

	"htmcmp/internal/adapt"
	"htmcmp/internal/chaos"
	"htmcmp/internal/htm"
	"htmcmp/internal/obs"
	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
	"htmcmp/internal/stats"
	"htmcmp/internal/tm"
)

// RunSpec describes one measured configuration: a benchmark on a platform
// model with a thread count and policy. Its JSON encoding is the sweep
// cache key, so its untagged fields are frozen: their zero values are
// already baked into existing on-disk keys. Any NEW field must be tagged
// ,omitempty, and a handle field json:"-"; TestInvariants in the root
// package holds the frozen list and checks both rules.
type RunSpec struct {
	Platform  platform.Kind
	Benchmark string
	Threads   int
	Scale     stamp.Scale
	Variant   stamp.Variant
	Seed      uint64
	// Policy is the retry policy; zero means DefaultPolicy(Platform).
	// Unlike the other pointer fields it IS serialized: the policy alters
	// measured results, so it belongs to cache identity (nil encodes as
	// null, which existing keys rely on).
	Policy *tm.Policy
	// Mode is Blue Gene/Q's running mode.
	Mode platform.BGQMode
	// CostScale scales injected platform overheads (default 1).
	CostScale float64
	// Repeats is how many measured runs to average (paper: 4).
	Repeats int
	// UseHLE runs critical sections through hardware lock elision instead
	// of RTM (Figure 7; Intel only).
	UseHLE bool
	// UseSTM runs critical sections as NOrec software transactions instead
	// of HTM (the STM-overhead comparison of the paper's introduction).
	UseSTM bool
	// Adaptive routes every transaction site through the online mode
	// controller (internal/adapt) instead of the static retry policy; one
	// controller is shared by all threads of a run. Omitted from JSON when
	// false so existing sweep cache keys are unchanged.
	Adaptive bool `json:",omitempty"`
	// DisablePrefetch is the Section 5.1 hardware-prefetch ablation.
	DisablePrefetch bool
	// DisableSMTSharing is the Section 7 SMT ablation.
	DisableSMTSharing bool
	// ResponderWins flips the conflict-resolution policy (ablation).
	ResponderWins bool
	// ChunkStep1 overrides genome's chunking (tuned per platform).
	ChunkStep1 int
	// TMCAMEntries overrides POWER8's 64-entry TMCAM (the Section 7
	// capacity-sweep extension); zero keeps the real hardware value.
	TMCAMEntries int
	// SpaceSize overrides the arena size (bytes).
	SpaceSize int
	// TraceDir, when non-empty, attaches an event tracer to every parallel
	// run and writes one <label>-<digest>.jsonl event file per simulated
	// parallel region into it. Excluded from JSON so sweep cache keys are
	// unaffected by tracing.
	TraceDir string `json:"-"`
	// Faults, when set, attaches the chaos injector to every parallel run's
	// engine (and, for adaptive runs, the mode controller): injected
	// spurious aborts, forced capacity overflows, STM seqlock contention
	// and controller thrash. The sequential baseline always runs clean, so
	// an afflicted run's speedup reflects the faults' cost. Excluded from
	// JSON so sweep cache keys are unchanged — the sweep never caches a
	// result whose faults fired (it runs the cell once more clean).
	Faults *chaos.Injector `json:"-"`
}

// Label is a short human-readable identifier for progress reporting.
func (s RunSpec) Label() string {
	l := fmt.Sprintf("%s/%s/t%d", s.Benchmark, s.Platform.Short(), s.Threads)
	switch {
	case s.UseHLE:
		l += "/hle"
	case s.UseSTM:
		l += "/stm"
	case s.Adaptive:
		l += "/adapt"
	}
	if s.DisablePrefetch {
		l += "/nopf"
	}
	if s.TMCAMEntries > 0 {
		l += fmt.Sprintf("/cam%d", s.TMCAMEntries)
	}
	return l
}

func (s RunSpec) withDefaults() RunSpec {
	if s.Repeats <= 0 {
		s.Repeats = 2
	}
	if s.CostScale == 0 {
		s.CostScale = 1
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	if s.SpaceSize == 0 {
		s.SpaceSize = 64 << 20
	}
	if s.Threads <= 0 {
		s.Threads = 4
	}
	return s
}

// platformSpec builds the (possibly capacity-overridden) platform model.
func (s RunSpec) platformSpec() *platform.Spec {
	spec := platform.New(s.Platform)
	if s.TMCAMEntries > 0 && s.Platform == platform.POWER8 {
		spec.LoadCapacity = s.TMCAMEntries * spec.LineSize
		spec.StoreCapacity = spec.LoadCapacity
	}
	return spec
}

func (s RunSpec) policy() tm.Policy {
	if s.Policy != nil {
		return *s.Policy
	}
	p := tm.DefaultPolicy(s.Platform)
	if s.Platform == platform.BlueGeneQ && s.Mode == platform.LongRunning {
		p.LazySubscription = true
	}
	return p
}

// Result is the outcome of a measured RunSpec.
type Result struct {
	Spec RunSpec
	// SeqSeconds and ParSeconds are the mean sequential and parallel
	// region-of-interest durations in virtual cycles (the unit cancels in
	// Speedup).
	SeqSeconds float64
	ParSeconds float64
	// Speedup is the paper's metric: sequential non-HTM time over
	// transactional time on the same platform model.
	Speedup float64
	// SpeedupCI is the 95% confidence half-width over the repeats.
	SpeedupCI float64
	// AbortRatio is the percentage of transaction attempts that aborted.
	AbortRatio float64
	// Breakdown splits the abort ratio into Figure 3's categories.
	Breakdown [htm.NumCategories]float64
	// SerializationRatio is the percentage of commits taken under the
	// global lock.
	SerializationRatio float64
	// TM aggregates the runtime counters of the parallel runs.
	TM tm.Stats
	// Engine aggregates the engine counters of the parallel runs.
	Engine htm.Stats
}

func (s RunSpec) engineConfig(threads int, seed uint64) htm.Config {
	return htm.Config{
		Threads:           threads,
		SpaceSize:         s.SpaceSize,
		Seed:              seed,
		Mode:              s.Mode,
		DisablePrefetch:   s.DisablePrefetch,
		DisableSMTSharing: s.DisableSMTSharing,
		ResponderWins:     s.ResponderWins,
		CostScale:         s.CostScale,
	}
}

func (s RunSpec) benchConfig(seed uint64) stamp.Config {
	return stamp.Config{
		Scale:      s.Scale,
		Variant:    s.Variant,
		Seed:       seed,
		ChunkStep1: s.ChunkStep1,
	}
}

// traceName is the event-file name of spec's parallel region under seed:
// the human-readable label plus a short digest of the region's key. The
// label alone does not separate everything a region reads (original and
// modified variants share one label), and the key names the region, not
// the cell that asked for it first, so the name does not depend on which
// cell simulated it.
func (s RunSpec) traceName(seed uint64) string {
	b, _ := json.Marshal(s.parKey(seed))
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%s-%s.jsonl",
		strings.ReplaceAll(s.Label(), "/", "-"), hex.EncodeToString(sum[:4]))
}

// repeatSeed is the workload seed of repeat i. Virtual-time runs are
// deterministic for a fixed seed, so repeats vary the workload seed (the
// paper instead averaged repeated runs of one noisy hardware execution).
func (s RunSpec) repeatSeed(i int) uint64 { return s.Seed + uint64(i)*1009 }

// runSeqOnce runs one sequential (non-HTM) execution and returns the region
// duration in virtual cycles.
func (s RunSpec) runSeqOnce(seed uint64) (float64, error) {
	// Benchmark before engine: a rejected name must not strand a leased
	// arena and line table outside the pool.
	b, err := stamp.New(s.Benchmark, s.benchConfig(seed))
	if err != nil {
		return 0, err
	}
	e := htm.New(s.platformSpec(), s.engineConfig(1, seed))
	b.Setup(e.Thread(0))
	e.ResetClocks()
	b.Run([]stamp.Runner{stamp.SeqRunner{T: e.Thread(0)}})
	elapsed := float64(e.MaxClock())
	if err := b.Validate(e.Thread(0)); err != nil {
		return 0, fmt.Errorf("sequential %s: %w", s.Benchmark, err)
	}
	// Recycle the engine's big allocations. Error/panic paths above skip
	// this and fall back to the GC.
	e.Release()
	return elapsed, nil
}

// runParOnce runs one parallel execution and returns its region: the
// duration in virtual cycles and the accumulated runtime/engine statistics.
func (s RunSpec) runParOnce(seed uint64) (region, error) {
	b, err := stamp.New(s.Benchmark, s.benchConfig(seed))
	if err != nil {
		return region{}, err
	}
	cfg := s.engineConfig(s.Threads, seed)
	cfg.Faults = s.Faults
	if s.TraceDir != "" {
		cfg.Tracer = obs.NewTracer()
	}
	e := htm.New(s.platformSpec(), cfg)
	b.Setup(e.Thread(0))
	lock := tm.NewGlobalLock(e)
	pol := s.policy()
	var ctl *adapt.Controller
	if s.Adaptive {
		// One controller per run: every thread's executor feeds the same
		// per-site windows, so demotion decisions reflect run-wide history.
		ctl = adapt.NewController(s.Faults)
	}
	runners := make([]stamp.Runner, s.Threads)
	execs := make([]*tm.Executor, s.Threads)
	for i := range runners {
		execs[i] = tm.NewExecutorConfig(e.Thread(i), lock, tm.Config{Policy: pol, Adapt: ctl})
		switch {
		case s.UseSTM:
			runners[i] = stamp.STMRunner{X: execs[i]}
		case s.UseHLE:
			runners[i] = stamp.HLERunner{X: execs[i]}
		default:
			runners[i] = stamp.TMRunner{X: execs[i]}
		}
	}
	e.ResetStats()
	e.ResetClocks()
	b.Run(runners)
	elapsed := float64(e.MaxClock())
	if err := b.Validate(e.Thread(0)); err != nil {
		return region{}, fmt.Errorf("parallel %s on %s (%d threads): %w",
			s.Benchmark, s.Platform, s.Threads, err)
	}
	var agg tm.Stats
	var use tm.RetryUse
	for _, x := range execs {
		agg.Add(&x.Stats)
		use.Merge(x.RetryUse())
	}
	if tracer := cfg.Tracer; tracer != nil {
		if err := obs.WriteJSONLFile(filepath.Join(s.TraceDir, s.traceName(seed)), tracer.Events()); err != nil {
			return region{}, err
		}
	}
	engStats, need := e.Stats(), e.CapacityNeed()
	e.Release()
	return region{cycles: elapsed, tm: agg, engine: engStats, use: use, need: need}, nil
}

// Run measures spec through a memo of its own (see Regions.Run).
func Run(spec RunSpec) (Result, error) { return NewRegions().Run(spec) }

// Run measures spec: Repeats sequential baselines and Repeats parallel runs,
// each an engine region obtained through r, and reports the mean speedup
// with its 95% confidence interval plus the abort statistics of the
// parallel runs.
func (r *Regions) Run(spec RunSpec) (Result, error) {
	spec = spec.withDefaults()
	res := Result{Spec: spec}

	seqTimes := make([]float64, 0, spec.Repeats)
	for i := 0; i < spec.Repeats; i++ {
		s, err := r.seq(spec, spec.repeatSeed(i))
		if err != nil {
			return res, err
		}
		seqTimes = append(seqTimes, s)
	}
	res.SeqSeconds = stats.Mean(seqTimes)

	parTimes := make([]float64, 0, spec.Repeats)
	speedups := make([]float64, 0, spec.Repeats)
	for i := 0; i < spec.Repeats; i++ {
		p, err := r.par(spec, spec.repeatSeed(i))
		if err != nil {
			return res, err
		}
		parTimes = append(parTimes, p.cycles)
		speedups = append(speedups, seqTimes[i]/p.cycles)
		res.TM.Add(&p.tm)
		res.Engine.Add(&p.engine)
	}
	res.ParSeconds = stats.Mean(parTimes)
	res.Speedup = stats.Mean(speedups)
	res.SpeedupCI = stats.CI95(speedups)
	res.AbortRatio = res.TM.AbortRatio()
	res.Breakdown = res.TM.CategoryBreakdown()
	res.SerializationRatio = res.TM.SerializationRatio()
	return res, nil
}
