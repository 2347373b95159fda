package sweep

import (
	"sync"

	"htmcmp/internal/cache"
)

// Cell-duration estimation. Two consumers:
//
//   - The sweep queue (queue.go) orders cells longest-first (LPT), which
//     needs a relative cost estimate before any cell of this run has
//     executed.
//   - The progress line's ETA, which the old code derived from the global
//     mean duration of completed cells. That estimator is wildly optimistic
//     early in a sweep: the paper sweep mixes ~ms ssca2 cells with
//     multi-second labyrinth/yada cells, and whichever class happens to
//     finish first dominates the mean. The estimator below keeps one EWMA
//     per cell class — (kind, benchmark, scale, threads) — and weights the
//     remaining-work sum by how many cells of each class are still pending.
//
// Estimates persist across runs through the sweep's content-addressed cache
// store under a fixed key, so even the first progress line of a rerun knows
// that labyrinth cells are expensive.

// etaAlpha is the EWMA smoothing factor: high enough to adapt when a class
// estimate carried over from a differently-loaded machine, low enough that
// one noisy cell does not whipsaw the ETA.
const etaAlpha = 0.3

// durationsVersion keys the persisted class-duration file in the cache
// store (it shares the directory with result records but not their
// versioning: durations are advisory and survive result-schema bumps).
const durationsVersion = "htmcmp-durations-v1"

// durationsKey is the fixed content address of the persisted estimates.
func durationsKey() (string, error) {
	return cache.Key(durationsVersion, "class-duration-ewma")
}

// cellClass buckets cells whose cost is expected to be similar. Seed and
// variant are deliberately excluded: they perturb conflict behaviour, not
// order-of-magnitude cost.
func cellClass(c Cell) string {
	switch c.Kind {
	case Footprint:
		return "footprint/" + c.Bench + "/" + c.Scale.String()
	case CLQRun, TLSRun:
		return c.Kind.String() + "/" + itoa(featureThreads(c))
	}
	return c.Kind.String() + "/" + c.Spec.Benchmark + "/" + c.Spec.Scale.String() +
		"/" + itoa(c.Spec.Threads)
}

// itoa avoids pulling strconv into the hot progress path for tiny ints.
func itoa(n int) string {
	if n < 0 {
		return "-" + itoa(-n)
	}
	if n < 10 {
		return string(rune('0' + n))
	}
	return itoa(n/10) + string(rune('0'+n%10))
}

// benchWeight is the cold-start relative cost prior per benchmark: with no
// recorded durations at all, LPT still schedules the known-heavy STAMP
// benchmarks first. Values are coarse ratios from the checked-in
// results_sim.txt sweep; precision is irrelevant, ordering is what matters.
var benchWeight = map[string]float64{
	"labyrinth": 12,
	"yada":      6,
	"bayes":     4,
	"genome":    2,
}

// featureThreads is the thread count of a CLQRun/TLSRun cell's point.
func featureThreads(c Cell) int {
	switch {
	case c.CLQ != nil:
		return c.CLQ.Threads
	case c.TLS != nil:
		return c.TLS.Threads
	}
	return 0
}

// cellPrior is the relative cost prior of one cell.
func cellPrior(c Cell) float64 {
	switch c.Kind {
	case CLQRun:
		// Cost grows with the thread count and not with -scale: at test
		// scale a 16-thread run is the sweep's longest cell.
		return 2 * float64(featureThreads(c))
	case TLSRun:
		return 0.1 * float64(1+featureThreads(c))
	}
	bench := c.Spec.Benchmark
	if c.Kind == Footprint {
		bench = c.Bench
	}
	w, ok := benchWeight[bench]
	if !ok {
		w = 1
	}
	if c.Kind == TuneMeasure {
		// A tune cell is a whole grid search of measured runs.
		w *= 6
	}
	// Repeats multiply runs directly.
	if r := c.Spec.Repeats; r > 1 {
		w *= float64(r)
	}
	return w
}

// ewma is one exponentially weighted moving average.
type ewma struct {
	v float64
	n int
}

func (e *ewma) observe(x float64) {
	if e.n == 0 {
		e.v = x
	} else {
		e.v = (1-etaAlpha)*e.v + etaAlpha*x
	}
	e.n++
}

// estimator tracks per-class EWMA durations plus the pending-cell census of
// the current Prewarm pass. All methods are safe for concurrent use.
type estimator struct {
	mu      sync.Mutex
	classes map[string]*ewma
	global  ewma // cross-class fallback, in seconds per unit of prior weight

	pending map[string]int     // class -> cells not yet finished this pass
	priors  map[string]float64 // class -> cold-start relative weight
}

func newEstimator() *estimator {
	return &estimator{
		classes: map[string]*ewma{},
		pending: map[string]int{},
		priors:  map[string]float64{},
	}
}

// beginPlan registers the cells of a Prewarm pass for remaining-work
// accounting (replacing any previous census).
func (e *estimator) beginPlan(jobs []job) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pending = map[string]int{}
	e.priors = map[string]float64{}
	for _, j := range jobs {
		cl := cellClass(j.Cell)
		e.pending[cl]++
		e.priors[cl] = cellPrior(j.Cell)
	}
}

// estimateLocked returns the expected duration of one cell of the class, in
// seconds — or, before any observation exists anywhere, in pure prior
// units (still a valid LPT ordering key).
func (e *estimator) estimateLocked(class string, prior float64) float64 {
	if w, ok := e.classes[class]; ok && w.n > 0 {
		return w.v
	}
	if e.global.n > 0 {
		// The global EWMA is normalised per unit of prior weight, so an
		// unobserved heavy class still estimates heavier than a light one.
		return e.global.v * prior
	}
	return prior
}

// estimate is the exported-shape wrapper used by the scheduler.
func (e *estimator) estimate(c Cell) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.estimateLocked(cellClass(c), cellPrior(c))
}

// observe records a finished cell's measured duration. computed=false marks
// durations replayed from cache records of earlier runs: they train the
// estimates but with the same EWMA path (they are real measurements).
func (e *estimator) observe(c Cell, seconds float64) {
	if seconds <= 0 {
		return
	}
	cl := cellClass(c)
	e.mu.Lock()
	w, ok := e.classes[cl]
	if !ok {
		w = &ewma{}
		e.classes[cl] = w
	}
	w.observe(seconds)
	if p := cellPrior(c); p > 0 {
		e.global.observe(seconds / p)
	}
	e.mu.Unlock()
}

// cellDone retires one pending cell of the census.
func (e *estimator) cellDone(c Cell) {
	cl := cellClass(c)
	e.mu.Lock()
	if e.pending[cl] > 0 {
		e.pending[cl]--
	}
	e.mu.Unlock()
}

// calibrated reports whether at least one real duration has been observed
// (from this run or a loaded history) — before that, estimates are in
// arbitrary prior units and must not be shown as an ETA.
func (e *estimator) calibrated() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.global.n > 0
}

// remainingSeconds sums the expected durations of all pending cells: the
// EWMA of completed-cell durations weighted by the remaining planned work.
func (e *estimator) remainingSeconds() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var sum float64
	for cl, n := range e.pending {
		if n > 0 {
			sum += float64(n) * e.estimateLocked(cl, e.priors[cl])
		}
	}
	return sum
}

// durationsRecord is the persisted payload: the EWMA state per class.
type durationsRecord struct {
	Classes map[string]float64 `json:"classes"`
	Counts  map[string]int     `json:"counts"`
	Global  float64            `json:"global"`
	GlobalN int                `json:"global_n"`
}

// load merges persisted estimates into the estimator; in-memory
// observations from the current process win. Missing or corrupt records
// are ignored — durations are advisory.
func (e *estimator) load(st *cache.Store) {
	if st == nil {
		return
	}
	key, err := durationsKey()
	if err != nil {
		return
	}
	var rec durationsRecord
	if ok, err := st.Get(key, &rec); err != nil || !ok {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for cl, v := range rec.Classes {
		if _, ok := e.classes[cl]; !ok && v > 0 {
			n := rec.Counts[cl]
			if n <= 0 {
				n = 1
			}
			e.classes[cl] = &ewma{v: v, n: n}
		}
	}
	if e.global.n == 0 && rec.GlobalN > 0 {
		e.global = ewma{v: rec.Global, n: rec.GlobalN}
	}
}

// save persists the current estimates. Failures are silently dropped for
// the same reason load ignores them.
func (e *estimator) save(st *cache.Store) {
	if st == nil {
		return
	}
	key, err := durationsKey()
	if err != nil {
		return
	}
	e.mu.Lock()
	rec := durationsRecord{
		Classes: make(map[string]float64, len(e.classes)),
		Counts:  make(map[string]int, len(e.classes)),
		Global:  e.global.v,
		GlobalN: e.global.n,
	}
	for cl, w := range e.classes {
		rec.Classes[cl] = w.v
		rec.Counts[cl] = w.n
	}
	e.mu.Unlock()
	_ = st.Put(key, rec)
}
