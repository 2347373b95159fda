// Package sweep schedules experiment sweeps. Every figure of the paper is a
// sweep over benchmark × platform × thread-count cells, and each cell is an
// independent, deterministic simulation — so instead of walking them one at
// a time, the harness decomposes an experiment into a flat list of Cell
// jobs (a planning pass records each requested point), a bounded worker
// pool executes the cells concurrently with per-cell panic recovery and
// timeouts, and the experiment then renders its tables from the precomputed
// results. Because every cell is seeded from its own spec and never shares
// state with its neighbours, the parallel results are bit-identical to the
// serial path.
//
// A content-addressed on-disk cache (internal/cache) sits underneath the
// scheduler: a rerun — or a sweep interrupted halfway — resumes by loading
// completed cells instead of recomputing them.
package sweep

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"htmcmp/internal/adapt"
	"htmcmp/internal/cache"
	"htmcmp/internal/chaos"
	"htmcmp/internal/features"
	"htmcmp/internal/harness"
	"htmcmp/internal/htm"
	"htmcmp/internal/obs"
	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
	"htmcmp/internal/trace"
)

// ResultsVersion versions the semantics of cached results. Bump it whenever
// the simulation, the benchmarks, or the Result encoding change in a way
// that makes previously cached cells stale; it is folded into every cache
// key, so old records simply stop matching.
const ResultsVersion = "htmcmp-results-v1"

// Kind discriminates the unit of work a Cell carries.
type Kind int

const (
	// Measure is one harness.Run of the cell's RunSpec.
	Measure Kind = iota
	// TuneMeasure is a harness.Regions.Tune search over the cell's RunSpec
	// followed by a re-measured Run of the winner.
	TuneMeasure
	// Footprint is one trace.Collect footprint pass.
	Footprint
	// CLQRun and TLSRun are one point of Figure 6 / Figure 9: one engine
	// run, the grain of a Measure cell, or for Figure 6's OptRetryTM the
	// retry-count search. New kinds go last: the values are in cache keys.
	CLQRun
	TLSRun
)

func (k Kind) String() string {
	switch k {
	case Measure:
		return "measure"
	case TuneMeasure:
		return "tune"
	case Footprint:
		return "footprint"
	case CLQRun:
		return "clq"
	case TLSRun:
		return "tls"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// HasSpec reports whether cells of this kind carry a harness.RunSpec: only
// those trace, take engine-level faults and can go through harness.Verify.
func (k Kind) HasSpec() bool { return k == Measure || k == TuneMeasure }

// Cell is one independent job of a sweep: a (benchmark, platform, threads,
// variant, seed) measurement or a footprint collection. Its JSON encoding,
// together with ResultsVersion, is its cache identity.
type Cell struct {
	Kind Kind `json:"kind"`
	// Spec is the measured configuration (Measure and TuneMeasure).
	Spec harness.RunSpec `json:"spec,omitempty"`
	// Bench/Platform/Scale/Seed identify a Footprint collection.
	Bench    string        `json:"bench,omitempty"`
	Platform platform.Kind `json:"platform,omitempty"`
	Scale    stamp.Scale   `json:"scale,omitempty"`
	Seed     uint64        `json:"seed,omitempty"`
	// CLQ/TLS is the point of a CLQRun/TLSRun cell. Pointers, because a
	// struct-valued field ignores omitempty and would change every old key.
	CLQ *features.CLQPoint `json:"clq,omitempty"`
	TLS *features.TLSPoint `json:"tls,omitempty"`
	// TraceDir is injected by the scheduler after the cache key is
	// computed; excluded from JSON so it never affects cache identity.
	TraceDir string `json:"-"`
}

// Key returns the cell's content address under ResultsVersion.
func (c Cell) Key() (string, error) {
	return cache.Key(ResultsVersion, c)
}

// Label is a short identifier for progress and error reporting.
func (c Cell) Label() string {
	switch {
	case c.Kind == Footprint:
		return fmt.Sprintf("trace/%s/%s", c.Bench, c.Platform.Short())
	case c.Kind == CLQRun && c.CLQ != nil:
		return c.CLQ.Label()
	case c.Kind == TLSRun && c.TLS != nil:
		return c.TLS.Label()
	case !c.Kind.HasSpec():
		return c.Kind.String() + "/<no point>"
	}
	l := c.Spec.Label()
	if c.Kind == TuneMeasure {
		l += "/tuned"
	}
	return l
}

// record is the on-disk cache payload: the cell (for human debugging of the
// cache directory) plus its result. Seconds is the wall-clock compute time
// of the cell when it was produced, the only per-cell host-time record; the
// sweep itself never reads it back.
type record struct {
	Cell      Cell             `json:"cell"`
	Result    *harness.Result  `json:"result,omitempty"`
	Footprint *trace.Footprint `json:"footprint,omitempty"`
	Seconds   float64          `json:"seconds,omitempty"`
}

// outcome is the in-memory result of a cell.
type outcome struct {
	res harness.Result
	fp  trace.Footprint
	err error
}

// Config configures a Scheduler. TestInvariants in the root package checks
// it like a cache key because its handle fields ride next to the cell grid
// that IS keyed: excluding them via json:"-" keeps any future serialization
// of sweep state (resume manifests, torn-record repros) from coupling
// identity to runtime attachments. Its untagged fields are frozen there.
type Config struct {
	// Jobs is the worker-pool size; <= 0 means GOMAXPROCS.
	Jobs int
	// Cache, when non-nil, persists results between runs.
	Cache *cache.Store `json:"-"`
	// Resume reads previously cached results (a fresh or interrupted
	// sweep skips completed cells). When false, every cell is recomputed
	// and, if Cache is set, its record overwritten.
	Resume bool
	// Timeout bounds each cell's wall-clock time; 0 means unbounded. A
	// timed-out cell fails with an error (its goroutine is abandoned —
	// the simulator has no preemption points).
	Timeout time.Duration
	// Progress, when non-nil, receives live progress/ETA lines.
	Progress io.Writer `json:"-"`
	// TraceDir, when non-empty, writes one JSONL event file per parallel
	// engine region simulated in this process. Cache hits execute nothing
	// and produce no files; the directory is injected into cells only after
	// their cache keys are computed, so tracing never perturbs identity.
	TraceDir string
	// Retries and Seed are ignored. Every cell is computed once (heal.go);
	// the fields stay only because the benchmark program under bench/ still
	// sets them.
	Retries int
	Seed    uint64
	// Faults, when non-nil, injects deterministic faults into the sweep
	// (internal/chaos, heal.go): engine-level faults ride into afflicted
	// cells' RunSpecs (injected after Key(), like TraceDir, so cache
	// identity is unchanged), and CacheCorrupt tears written records. An
	// afflicted run must complete and validate or its cell fails; only the
	// clean run that follows it is kept, so rendered tables are
	// byte-identical to a fault-free sweep.
	Faults *chaos.Injector `json:"-"`
}

// Summary reports what a Prewarm pass did.
type Summary struct {
	Cells    int // unique cells scheduled
	Computed int // executed in this pass
	Cached   int // satisfied from the on-disk cache
	Failed   int // ended in error (an error, a panic, a timeout)
	// Evicted counts cache records evicted as corrupt or stale; each one's
	// recompute is counted in Computed.
	Evicted int
	// Regions counts the engine regions the pass simulated: sequential
	// baselines and parallel repeats, each once however many cells share
	// it, plus the parallel repeats of fault-afflicted runs. It depends on
	// the plan and the cache, not on Jobs; an all-hit pass simulates none.
	Regions int
	// Served counts the parallel regions the pass answered from another
	// member of their budget family (harness.Regions) instead of
	// simulating them. Like Regions, it does not depend on Jobs.
	Served  int
	Elapsed time.Duration
}

// HitRatio is the fraction of cells served from cache, in percent.
func (s Summary) HitRatio() float64 {
	if s.Cells == 0 {
		return 0
	}
	return 100 * float64(s.Cached) / float64(s.Cells)
}

func (s Summary) String() string {
	out := fmt.Sprintf("cells=%d computed=%d cached=%d failed=%d hit=%.1f%% regions=%d elapsed=%s",
		s.Cells, s.Computed, s.Cached, s.Failed, s.HitRatio(), s.Regions, s.Elapsed.Round(time.Millisecond))
	if s.Evicted > 0 {
		out += fmt.Sprintf(" evicted=%d", s.Evicted)
	}
	if s.Served > 0 {
		out += fmt.Sprintf(" served=%d", s.Served)
	}
	return out
}

// Scheduler executes cells through a bounded worker pool and memoises their
// outcomes. Through requests (plan.go) it implements harness.Exec,
// trace.Collector and features.Exec, so experiments rendered with it
// transparently read the precomputed results; a cell that was never
// prewarmed (plan drift) is computed inline on first request, so rendering
// is always correct, just slower.
type Scheduler struct {
	requests // served by obtain

	cfg Config
	reg *obs.Registry
	// regions is what every computed Measure and TuneMeasure cell takes its
	// engine regions from, for the scheduler's lifetime: cells that share a
	// sequential baseline or a tuning trial simulate it once.
	regions *harness.Regions

	// The scheduler's registry handles. Every cell outcome is counted by one
	// statement into count; Summary, the progress line and the ETA read the
	// same counters back. engine receives each computed cell's engine and
	// runtime counts.
	count  [numTallies]*obs.Counter
	engine *obs.EngineMetrics

	mu       sync.Mutex
	memo     map[string]outcome
	lastLine time.Time

	// The current Prewarm pass (guarded by mu). The counters run for the
	// scheduler's lifetime; base is their reading at the top of the pass,
	// and a per-pass figure is the advance since then (inPass). The weights
	// are cellPrior sums over the pass's pooled cells, for the ETA.
	total       int
	start       time.Time
	base        [numTallies]uint64
	totalWeight float64
	doneWeight  float64
	regionsBase int // regions.Simulated() at the top of the pass
	servedBase  int // regions.Served() at the top of the pass
	// writes is the pass's record writer (Prewarm): the pool hands it every
	// record to store. Set before the workers start, nil outside a pass.
	writes chan<- put
}

// put is one computed cell's record on its way to the cache.
type put struct {
	j   job
	rec record
}

// tally names one of the scheduler's outcome counters.
type tally int

const (
	cellsDone tally = iota // obtained by any route: cellsCached + cellsComputed
	cellsCached
	cellsComputed
	cellsFailed
	cacheEvictions
	numTallies
)

var tallyNames = [numTallies]string{
	cellsDone:      "sweep_cells_done_total",
	cellsCached:    "sweep_cells_cached_total",
	cellsComputed:  "sweep_cells_computed_total",
	cellsFailed:    "sweep_cells_failed_total",
	cacheEvictions: "sweep_cache_evictions_total",
}

// New builds a Scheduler from cfg.
func New(cfg Config) *Scheduler {
	if cfg.Jobs <= 0 {
		cfg.Jobs = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{
		cfg: cfg, memo: map[string]outcome{}, reg: obs.NewRegistry(),
		regions: harness.NewRegions(),
	}
	s.requests.get = s.request
	for t, name := range tallyNames {
		s.count[t] = s.reg.Counter(name)
	}
	s.engine = obs.NewEngineMetrics(s.reg, htm.NumReasons, adapt.NumModes)
	if cfg.Cache != nil {
		// Evictions — Get detecting a torn record, or the identity check in
		// lookup catching a stale one — are logged and counted; the cell is
		// then recomputed.
		prev := cfg.Cache.OnEvict
		cfg.Cache.OnEvict = func(key string, reason error) {
			s.noteEviction(key, reason)
			if prev != nil {
				prev(key, reason)
			}
		}
	}
	return s
}

// Registry returns the registry the scheduler counts into: the sweep_*
// outcome counters and the htm_tx_* / by-reason / tm_mode_switches_total
// counts of every cell computed here.
func (s *Scheduler) Registry() *obs.Registry { return s.reg }

// inPass returns how far counter t has advanced in the current Prewarm pass;
// callers hold mu.
func (s *Scheduler) inPass(t tally) int {
	return int(s.count[t].Value() - s.base[t])
}

// cellRunner is the signature of the runCellHook test seam.
type cellRunner func(Cell) (harness.Result, trace.Footprint, error)

// runCellHook, when set, replaces cell execution (test seam for panic and
// timeout injection). Accessed atomically: a timed-out cell's abandoned
// goroutine may still read it after the test that installed it has restored
// the previous value.
var runCellHook atomic.Pointer[cellRunner]

// runCell executes one cell inline; Measure and TuneMeasure cells take their
// engine regions from regions.
func runCell(regions *harness.Regions, c Cell) outcome {
	if h := runCellHook.Load(); h != nil {
		r, fp, err := (*h)(c)
		return outcome{res: r, fp: fp, err: err}
	}
	switch c.Kind {
	case Measure, TuneMeasure:
		r, err := regions.Measure(c.Spec, c.Kind == TuneMeasure)
		return outcome{res: r, err: err}
	case Footprint:
		fp, err := trace.Collect(c.Bench, c.Platform,
			trace.Options{Scale: c.Scale, Seed: c.Seed, TraceDir: c.TraceDir})
		return outcome{fp: fp, err: err}
	case CLQRun:
		if c.CLQ == nil {
			return outcome{err: fmt.Errorf("sweep: clq cell carries no point")}
		}
		return pointOutcome(features.RunCLQPoint(*c.CLQ))
	case TLSRun:
		if c.TLS == nil {
			return outcome{err: fmt.Errorf("sweep: tls cell carries no point")}
		}
		return pointOutcome(features.RunTLSPoint(*c.TLS))
	}
	return outcome{err: fmt.Errorf("sweep: unknown cell kind %d", int(c.Kind))}
}

// pointOutcome carries a feature run's answer in the harness.Result every
// record stores, so landed publishes its transactions like any cell's.
func pointOutcome(r features.PointResult, err error) outcome {
	return outcome{res: harness.Result{ParSeconds: r.Seconds, AbortRatio: r.Engine.AbortRatio(), Engine: r.Engine}, err: err}
}

func (o outcome) point() (features.PointResult, error) {
	return features.PointResult{Seconds: o.res.ParSeconds, Engine: o.res.Engine}, o.err
}

// execCell runs a cell with panic recovery and the configured timeout.
func (s *Scheduler) execCell(c Cell) outcome {
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{err: fmt.Errorf("sweep: cell %s panicked: %v\n%s", c.Label(), r, debug.Stack())}
			}
		}()
		ch <- runCell(s.regions, c)
	}()
	if s.cfg.Timeout <= 0 {
		return <-ch
	}
	select {
	case o := <-ch:
		return o
	case <-time.After(s.cfg.Timeout):
		return outcome{err: fmt.Errorf("sweep: cell %s timed out after %v", c.Label(), s.cfg.Timeout)}
	}
}

// request serves one render-pass request: key the cell, then obtain it. A
// prewarmed cell is a memo hit; one that was never prewarmed (plan drift) is
// looked up or computed here.
func (s *Scheduler) request(c Cell) outcome {
	key, err := c.Key()
	if err != nil {
		return outcome{err: fmt.Errorf("sweep: cell %s: %w", c.Label(), err)}
	}
	return s.obtain(job{c, key}, false)
}

// obtain returns the job's outcome: memo hit, cache hit, or computed now.
// fromPool marks calls from the Prewarm workers (they drive the progress
// line and the ETA).
func (s *Scheduler) obtain(j job, fromPool bool) outcome {
	s.mu.Lock()
	o, ok := s.memo[j.key]
	s.mu.Unlock()
	if ok {
		return o
	}
	if o, ok := s.lookup(j); ok {
		return s.account(j, o, fromPool, cellsCached)
	}

	// TraceDir is injected after the key is computed so tracing never changes
	// what a cell IS.
	j.TraceDir = s.cfg.TraceDir
	if j.Kind.HasSpec() {
		j.Spec.TraceDir = s.cfg.TraceDir
	}
	o, seconds := s.compute(j)
	if o.err != nil {
		return s.account(j, o, fromPool, cellsComputed, cellsFailed)
	}
	s.landed(j, o, seconds, fromPool)
	return s.account(j, o, fromPool, cellsComputed)
}

// lookup reads the job's record from the cache; ok is false when there is no
// usable one and the cell must be computed.
func (s *Scheduler) lookup(j job) (o outcome, ok bool) {
	if s.cfg.Cache == nil || !s.cfg.Resume {
		return outcome{}, false
	}
	var rec record
	if found, err := s.cfg.Cache.Get(j.key, &rec); err != nil || !found {
		return outcome{}, false
	}
	// Identity check: the record parsed, but does its content still hash to
	// the key it was stored under? A stale record — a writer that keyed one
	// cell and stored another, or a record rewritten in place — fails here
	// and is evicted. (Torn and garbage records never reach this point; Get
	// evicts those itself.) An evicted cell is recomputed, not failed.
	if k2, err := rec.Cell.Key(); err != nil || k2 != j.key {
		s.cfg.Cache.Evict(j.key, fmt.Errorf("record content does not match its key (stale or corrupt)"))
		return outcome{}, false
	}
	switch {
	case j.Kind == Footprint && rec.Footprint != nil:
		o = outcome{fp: *rec.Footprint}
	case j.Kind != Footprint && rec.Result != nil:
		o = outcome{res: *rec.Result}
	default:
		return outcome{}, false // wrong shape: treat as corrupt → recompute
	}
	return o, true
}

// account memoises the job's outcome and counts it: as done, by the route
// that produced it (cellsCached or cellsComputed) and, if it did not end
// well, by how it ended. All of it happens under mu, so the progress line
// sees each cell exactly once, in order.
func (s *Scheduler) account(j job, o outcome, fromPool bool, route tally, ended ...tally) outcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.memo[j.key] = o
	s.count[cellsDone].Inc()
	s.count[route].Inc()
	for _, t := range ended {
		s.count[t].Inc()
	}
	if fromPool {
		s.doneWeight += cellPrior(j.Cell)
		s.emitProgressLocked(j.Cell, route == cellsCached)
	}
	return o
}

// landed banks a successfully computed cell: the registry receives its
// engine and runtime counts — here and nowhere else, so a cache hit
// publishes nothing and a warm sweep does not look like an abort storm —
// and the record goes to the cache: through the pass's writer for a pool
// worker, on the spot for a render-pass request.
func (s *Scheduler) landed(j job, o outcome, seconds float64, fromPool bool) {
	rec := record{Cell: j.Cell, Seconds: seconds}
	if j.Kind == Footprint {
		rec.Footprint = &o.fp
	} else {
		rec.Result = &o.res
		eng, tm := &o.res.Engine, &o.res.TM
		s.engine.Publish(eng.Begins, eng.Commits, eng.Aborts, eng.AbortsByReason[:], tm.ModeSwitchesTo[:])
	}
	if s.cfg.Cache == nil {
		return
	}
	if fromPool {
		s.writes <- put{j, rec}
		return
	}
	s.store(put{j, rec})
}

// store writes one record, then lets the chaos injector tear it
// (afflictRecord). A failed Put (e.g. unencodable value) only costs a
// recompute next run; it must not fail the sweep.
func (s *Scheduler) store(p put) {
	if err := s.cfg.Cache.Put(p.j.key, p.rec); err != nil {
		s.progressf("sweep: warning: %v", err)
		return
	}
	s.afflictRecord(p.j)
}

// etaLocked estimates the rest of the current Prewarm pass (callers hold
// mu): the wall time so far, scaled by the prior weight still pending over
// the prior weight finished. The prior is tuned to order the queue, not to
// predict seconds, so the figure is rough. ok is false before the first
// cell and after the last.
func (s *Scheduler) etaLocked(now time.Time) (time.Duration, bool) {
	if s.inPass(cellsDone) >= s.total || s.doneWeight <= 0 {
		return 0, false
	}
	return time.Duration(float64(now.Sub(s.start)) * (s.totalWeight - s.doneWeight) / s.doneWeight), true
}

// emitProgressLocked prints a live progress/ETA line; callers hold mu. Lines
// are throttled to one per 250ms, except the final one.
func (s *Scheduler) emitProgressLocked(c Cell, cached bool) {
	if s.cfg.Progress == nil {
		return
	}
	done := s.inPass(cellsDone)
	now := time.Now()
	if done < s.total && now.Sub(s.lastLine) < 250*time.Millisecond {
		return
	}
	s.lastLine = now
	line := fmt.Sprintf("sweep %d/%d (%.0f%%)", done, s.total,
		100*float64(done)/float64(s.total))
	field := func(name string, t tally) {
		if n := s.inPass(t); n > 0 {
			line += fmt.Sprintf(" %s=%d", name, n)
		}
	}
	field("cached", cellsCached)
	field("failed", cellsFailed)
	if eta, ok := s.etaLocked(now); ok {
		line += fmt.Sprintf(" eta=%s", eta.Round(time.Second))
	}
	// The engine counters also feed the line, so a watcher sees the
	// simulated abort volume of the cells computed so far.
	if aborts := s.engine.Aborts.Value(); aborts > 0 {
		line += fmt.Sprintf(" aborts=%d", aborts)
	}
	line += " last=" + c.Label()
	if cached {
		line += " (cached)"
	}
	fmt.Fprintln(s.cfg.Progress, line)
}

func (s *Scheduler) progressf(format string, args ...any) {
	if s.cfg.Progress != nil {
		fmt.Fprintf(s.cfg.Progress, format+"\n", args...)
	}
}

// Prewarm executes cells through the worker pool — dedupe by cache key,
// queue longest-first, and let every worker pop and obtain until the queue is
// empty — and memoises every outcome for the render pass. Failed cells are
// recorded (the render pass surfaces their errors) but do not stop the
// sweep, so an interrupted or partially failing run still banks every
// completed cell in the cache. It returns once every record the pool
// computed is written.
func (s *Scheduler) Prewarm(cells []Cell) Summary {
	unique := make([]job, 0, len(cells))
	seen := map[string]bool{}
	for _, c := range cells {
		key, err := c.Key()
		if err != nil {
			// A cell without a key can be neither deduplicated nor cached;
			// the render pass reports the error when the cell is requested.
			s.progressf("sweep: cell %s not scheduled: %v", c.Label(), err)
			continue
		}
		if !seen[key] {
			seen[key] = true
			unique = append(unique, job{c, key})
		}
	}

	jobs := s.cfg.Jobs
	if jobs > len(unique) {
		jobs = len(unique)
	}
	if jobs < 1 {
		jobs = 1
	}

	// Queue the cells longest-expected-first by their static prior
	// (queue.go); the same weights measure the pass's progress for the ETA.
	priors := make([]float64, len(unique))
	var weight float64
	for i, j := range unique {
		priors[i] = cellPrior(j.Cell)
		weight += priors[i]
	}
	q := newQueue(unique, priors)

	s.mu.Lock()
	s.total = len(unique)
	for t := range s.base {
		s.base[t] = s.count[t].Value()
	}
	s.totalWeight, s.doneWeight = weight, 0
	s.regionsBase, s.servedBase = s.regions.Simulated(), s.regions.Served()
	s.start = time.Now()
	s.mu.Unlock()

	// One goroutine writes every record the pool computes. Creating a file
	// costs far more kernel time than the rest of a Put, and it costs more
	// still from several goroutines at once. The channel's jobs slots bound
	// the records held in memory, and so what a kill can lose.
	writes, written := make(chan put, jobs), make(chan struct{})
	go func() {
		defer close(written)
		for p := range writes {
			s.store(p)
		}
	}()
	s.writes = writes

	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j, ok := q.pop(); ok; j, ok = q.pop() {
				s.obtain(j, true)
			}
		}()
	}
	wg.Wait()
	close(writes)
	<-written
	s.writes = nil

	s.mu.Lock()
	defer s.mu.Unlock()
	return Summary{
		Cells:    s.total,
		Computed: s.inPass(cellsComputed),
		Cached:   s.inPass(cellsCached),
		Failed:   s.inPass(cellsFailed),
		Evicted:  s.inPass(cacheEvictions),
		Regions:  s.regions.Simulated() - s.regionsBase,
		Served:   s.regions.Served() - s.servedBase,
		Elapsed:  time.Since(s.start),
	}
}
