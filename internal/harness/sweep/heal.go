package sweep

// Self-healing cell execution. A sweep that only counts failures is fragile
// in exactly the ways the paper's platforms are: transient events (an
// interrupt-style abort, a crashed worker, a torn cache record) would fail a
// cell that a bounded retry recovers for free. This file wraps cell
// execution in that retry loop — jittered exponential backoff between
// attempts, a quarantine list for cells that exhaust the pool's budget, and
// corrupt-cache eviction/recompute — and is also where the chaos injector's
// harness-level faults land, so every recovery path is exercised on purpose
// by the chaos/soak suite.
//
// Determinism contract: with Config.Faults nil and Retries 0 nothing here
// runs — compute is exactly one execCell, so the fault-free sweep is
// byte-identical to the pre-healing scheduler. With chaos on, an
// engine-afflicted attempt must COMPLETE and validate (that is the recovery
// proof), but its fault-perturbed measurements are discarded and the cell is
// retried clean, so rendered tables and cached records never contain an
// injected fault's fingerprint.

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"htmcmp/internal/chaos"
	"htmcmp/internal/harness"
)

// affliction carries one attempt's injected harness-level faults into
// execCell. The zero value is a clean attempt.
type affliction struct {
	panics bool
	stall  time.Duration // sleep this long instead of running (0 = none)
	engine *chaos.Injector
}

// healInfo reports what compute did for one cell.
type healInfo struct {
	seconds    float64 // compute time of the final attempt (backoff excluded)
	recovered  bool    // succeeded after at least one retry
	quarantine bool    // retry budget exhausted (only when Retries > 0)
}

// The retry backoff starts at backoffBase and doubles per attempt up to
// backoffCap. Its jitter is drawn from a pure hash of (Config.Seed, cell key,
// attempt), so a sweep's retry schedule is deterministic for a given seed.
const (
	backoffBase = 5 * time.Millisecond
	backoffCap  = 250 * time.Millisecond
)

// workerCrash is the panic payload of an injected worker crash; the
// supervisor in Prewarm recognises it and restarts the worker.
type workerCrash struct{}

// compute executes the job: one attempt, then, while it fails, up to Retries
// more, separated by deterministic jittered exponential backoff. The first
// attempt is unconditional, so no retry budget, however hostile, can make an
// outcome out of nothing. The attempt number feeds the chaos injector, whose
// afflictions expire after Persist attempts — which is what makes injected
// faults recoverable by bounded retry rather than by luck.
func (s *Scheduler) compute(j job) (outcome, healInfo) {
	for a := 0; ; a++ {
		began := time.Now()
		o := s.attempt(j, a)
		hi := healInfo{seconds: time.Since(began).Seconds()}
		if o.err == nil {
			hi.recovered = a > 0
			return o, hi
		}
		if a >= s.cfg.Retries {
			hi.quarantine = s.cfg.Retries > 0
			return o, hi
		}
		s.progressf("sweep: cell %s attempt %d/%d failed: %s (retrying)",
			j.Label(), a+1, 1+s.cfg.Retries, firstLine(o.err.Error()))
		time.Sleep(chaos.Backoff(s.cfg.Seed, j.key, a, backoffBase, backoffCap))
		s.count[cellsRetried].Inc()
	}
}

// attempt runs one attempt of the job, applying whatever faults the injector
// assigns to this (key, attempt) pair.
func (s *Scheduler) attempt(j job, attempt int) outcome {
	inj := s.cfg.Faults
	if inj == nil {
		return s.execCell(j.Cell, affliction{})
	}
	var af affliction
	if inj.Afflicts(chaos.CellPanic, j.key, attempt) {
		af.panics = true
		inj.Note(chaos.CellPanic)
	}
	if s.cfg.Timeout > 0 && inj.Afflicts(chaos.CellStall, j.key, attempt) {
		af.stall = s.cfg.Timeout + 50*time.Millisecond
		inj.Note(chaos.CellStall)
	}
	if j.Kind.HasSpec() {
		// Only a RunSpec attaches the engine-level injector.
		af.engine = inj.EngineFor(j.key, attempt)
		j.Spec.Faults = af.engine // nil on a clean attempt: zero overhead
	}
	o := s.execCell(j.Cell, af)
	if af.engine != nil {
		for cl := chaos.SpuriousAbort; cl <= chaos.ModeThrash; cl++ {
			inj.NoteN(cl, af.engine.Fired(cl))
		}
		if o.err == nil && af.engine.TotalFired() > 0 {
			// Shakedown: the afflicted run completed and validated — the
			// recovery proof — but its measurements carry injected aborts.
			// Discard and retry clean so tables stay byte-identical to a
			// fault-free sweep and only clean results are ever cached.
			o = outcome{err: fmt.Errorf("sweep: cell %s: chaos: %d engine fault(s) fired; measurement discarded for clean retry",
				j.Label(), af.engine.TotalFired())}
		}
	}
	return o
}

// retryQuarantined is the serial pass after the pool drains: each
// quarantined cell gets one more attempt, numbered past both the pool's
// budget and any injector Persist horizon, so it always runs clean unless
// the failure is real. Success overwrites the memoised failure and lands in
// the cache; failure is final and counts as Failed.
func (s *Scheduler) retryQuarantined() {
	s.mu.Lock()
	quar := s.quarantine
	s.quarantine = nil
	s.mu.Unlock()
	if len(quar) == 0 {
		return
	}
	s.progressf("sweep: %d cell(s) quarantined; serial retry pass", len(quar))
	for _, j := range quar {
		began := time.Now()
		o := s.attempt(j, s.cfg.Retries+1)
		if o.err == nil {
			s.landed(j, o, time.Since(began).Seconds(), true)
			s.progressf("sweep: quarantine: %s recovered", j.Label())
		} else {
			s.count[cellsFailed].Inc()
			s.progressf("sweep: quarantine: %s failed for good: %s", j.Label(), firstLine(o.err.Error()))
		}
		s.mu.Lock()
		s.memo[j.key] = o
		s.mu.Unlock()
	}
}

// maybeCrashWorker kills the calling worker (via a workerCrash panic the
// supervisor catches) when the chaos injector crashes it over this job. The
// job is requeued first, so the restarted worker or another one computes it —
// an injected crash costs a retry, never a result.
func (s *Scheduler) maybeCrashWorker(q *queue, j job) {
	inj := s.cfg.Faults
	if inj == nil || !inj.Afflicts(chaos.WorkerCrash, j.key, 0) {
		return
	}
	if !s.markCrashed(j.key) {
		return // this cell already took a worker down once
	}
	inj.Note(chaos.WorkerCrash)
	s.count[cellsRetried].Inc() // the requeue is a re-executed attempt
	s.markDisrupted(j.key)
	q.requeue(j)
	panic(workerCrash{})
}

// afflictRecord tears the just-written cache record when the cell is
// afflicted by CacheCorrupt: truncation (a torn write), garbage bytes (rot),
// or a stale record whose content no longer hashes to its key. All three
// must be detected on the next resume pass — the first two by Get itself,
// the stale one by obtain's identity check — then evicted and recomputed.
func (s *Scheduler) afflictRecord(j job) {
	inj := s.cfg.Faults
	if inj == nil || s.cfg.Cache == nil || !inj.Afflicts(chaos.CacheCorrupt, j.key, 0) {
		return
	}
	path := s.cfg.Cache.Path(j.key)
	data, err := os.ReadFile(path)
	if err != nil {
		return
	}
	var torn []byte
	switch j.key[0] % 3 {
	case 0:
		torn = data[:len(data)/2]
	case 1:
		torn = []byte("\x00\xffnot json at all")
	default:
		stale := j.Cell
		stale.Seed ^= 0x5a5a
		stale.Spec.Seed ^= 0x5a5a
		torn, err = json.Marshal(record{Cell: stale, Result: &harness.Result{}, Seconds: 0.001})
		if err != nil {
			torn = data[:len(data)/2]
		}
	}
	if os.WriteFile(path, torn, 0o644) == nil {
		inj.Note(chaos.CacheCorrupt)
		s.progressf("sweep: chaos: tore cache record for %s", j.Label())
	}
}

// noteEviction observes a cache-record eviction (wired as the store's
// OnEvict hook in New): log it, count it, and mark the key disrupted so its
// successful recompute is credited as Recovered.
func (s *Scheduler) noteEviction(key string, reason error) {
	short := key
	if len(short) > 12 {
		short = short[:12]
	}
	s.progressf("sweep: cache: evicted record %s: %v (will recompute)", short, reason)
	s.count[cacheEvictions].Inc()
	s.markDisrupted(key)
}

// markCrashed records that the cell's key crashed a worker; reports false if
// it already did once (each cell crashes at most one worker, so a crashing
// cell cannot grind the pool down forever).
func (s *Scheduler) markCrashed(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed[key] {
		return false
	}
	s.crashed[key] = true
	return true
}

// markDisrupted flags the key as recovering from a disruption (eviction or
// worker crash); takeDisrupted consumes the flag when the recompute lands.
func (s *Scheduler) markDisrupted(key string) {
	s.mu.Lock()
	s.disrupted[key] = true
	s.mu.Unlock()
}

func (s *Scheduler) takeDisrupted(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.disrupted[key] {
		return false
	}
	delete(s.disrupted, key)
	return true
}

// firstLine trims a multi-line error (e.g. a panic with its stack) to its
// first line for progress output.
func firstLine(msg string) string {
	for i := 0; i < len(msg); i++ {
		if msg[i] == '\n' {
			return msg[:i]
		}
	}
	return msg
}
