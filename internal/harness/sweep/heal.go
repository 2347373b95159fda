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
// runs — computeHealed collapses to exactly one execCell, so the fault-free
// sweep is byte-identical to the pre-healing scheduler. With chaos on, an
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

// healInfo reports what computeHealed did for one cell.
type healInfo struct {
	attempts   int
	seconds    float64 // compute time of the final attempt (backoff excluded)
	recovered  bool    // succeeded after at least one retry
	quarantine bool    // retry budget exhausted (only when Retries > 0)
}

// quarCell is one quarantined cell awaiting the serial retry pass.
type quarCell struct {
	c   Cell
	key string
}

// workerCrash is the panic payload of an injected worker crash; the
// supervisor in Prewarm recognises it and restarts the worker.
type workerCrash struct{}

// computeHealed executes the cell with the configured retry budget: up to
// 1+Retries attempts, separated by deterministic jittered exponential
// backoff. The attempt number feeds the chaos injector, whose afflictions
// expire after Persist attempts — which is what makes injected faults
// recoverable by bounded retry rather than by luck.
func (s *Scheduler) computeHealed(c Cell, key string) (outcome, healInfo) {
	var hi healInfo
	attempts := 1 + s.cfg.Retries
	var o outcome
	for a := 0; a < attempts; a++ {
		if a > 0 {
			time.Sleep(chaos.Backoff(s.cfg.Seed, key, a-1, s.cfg.RetryBackoff, s.cfg.RetryBackoffCap))
			s.count[cellsRetried].Inc()
		}
		hi.attempts = a + 1
		began := time.Now()
		o = s.executeAttempt(c, key, a)
		hi.seconds = time.Since(began).Seconds()
		if o.err == nil {
			hi.recovered = a > 0
			return o, hi
		}
		if a < attempts-1 {
			s.progressf("sweep: cell %s attempt %d/%d failed: %s (retrying)",
				c.Label(), a+1, attempts, firstLine(o.err.Error()))
		}
	}
	hi.quarantine = s.cfg.Retries > 0
	return o, hi
}

// executeAttempt runs one attempt of the cell, applying whatever faults the
// injector assigns to this (key, attempt) pair. Without an injector it is
// exactly execCell with a zero affliction.
func (s *Scheduler) executeAttempt(c Cell, key string, attempt int) outcome {
	var af affliction
	inj := s.cfg.Faults
	if inj != nil {
		if inj.Afflicts(chaos.CellPanic, key, attempt) {
			af.panics = true
			inj.Note(chaos.CellPanic)
		}
		if s.cfg.Timeout > 0 && inj.Afflicts(chaos.CellStall, key, attempt) {
			af.stall = s.cfg.Timeout + 50*time.Millisecond
			inj.Note(chaos.CellStall)
		}
		if c.Kind.HasSpec() {
			// Only a RunSpec attaches the engine-level injector.
			af.engine = inj.EngineFor(key, attempt)
			c.Spec.Faults = af.engine // nil on a clean attempt: zero overhead
		}
	}
	o := s.execCell(c, af)
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
				c.Label(), af.engine.TotalFired())}
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
	for _, q := range quar {
		began := time.Now()
		o := s.executeAttempt(q.c, q.key, s.cfg.Retries+1)
		if o.err == nil {
			s.landed(q.c, q.key, o, time.Since(began).Seconds(), true)
			s.progressf("sweep: quarantine: %s recovered", q.c.Label())
		} else {
			s.count[cellsFailed].Inc()
			s.progressf("sweep: quarantine: %s failed for good: %s", q.c.Label(), firstLine(o.err.Error()))
		}
		s.mu.Lock()
		s.memo[q.key] = o
		s.mu.Unlock()
	}
}

// maybeCrashWorker kills the calling worker (via a workerCrash panic the
// supervisor catches) when the chaos injector crashes it over this cell. The
// cell is requeued first, so it is computed by the restarted worker or a
// thief — an injected crash costs a retry, never a result.
func (s *Scheduler) maybeCrashWorker(deques []*deque, self int, c Cell) {
	inj := s.cfg.Faults
	if inj == nil {
		return
	}
	key, err := c.Key()
	if err != nil || !inj.Afflicts(chaos.WorkerCrash, key, 0) {
		return
	}
	if !s.markCrashed(key) {
		return // this cell already took a worker down once
	}
	inj.Note(chaos.WorkerCrash)
	s.count[cellsRetried].Inc() // the requeue is a re-executed attempt
	s.markDisrupted(key)
	deques[self].push(c)
	panic(workerCrash{})
}

// afflictRecord tears the just-written cache record when the cell is
// afflicted by CacheCorrupt: truncation (a torn write), garbage bytes (rot),
// or a stale record whose content no longer hashes to its key. All three
// must be detected on the next resume pass — the first two by Get itself,
// the stale one by obtain's identity check — then evicted and recomputed.
func (s *Scheduler) afflictRecord(c Cell, key string) {
	inj := s.cfg.Faults
	if inj == nil || s.cfg.Cache == nil || key == "" || !inj.Afflicts(chaos.CacheCorrupt, key, 0) {
		return
	}
	path := s.cfg.Cache.Path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return
	}
	var torn []byte
	switch key[0] % 3 {
	case 0:
		torn = data[:len(data)/2]
	case 1:
		torn = []byte("\x00\xffnot json at all")
	default:
		stale := c
		stale.Seed ^= 0x5a5a
		stale.Spec.Seed ^= 0x5a5a
		torn, err = json.Marshal(record{Cell: stale, Result: &harness.Result{}, Seconds: 0.001})
		if err != nil {
			torn = data[:len(data)/2]
		}
	}
	if os.WriteFile(path, torn, 0o644) == nil {
		inj.Note(chaos.CacheCorrupt)
		s.progressf("sweep: chaos: tore cache record for %s", c.Label())
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
