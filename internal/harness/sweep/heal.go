package sweep

// Fault injection at the sweep (internal/chaos). A cell is a deterministic
// simulation, so running it again reproduces its outcome: the sweep computes
// each cell once and never retries. What -chaos checks is the runtime, not
// the scheduler. A Measure or TuneMeasure cell the injector afflicts runs
// under its engine faults first, and that run must complete and validate —
// the software retry of the paper's Figure 1 has to survive aborts the
// program did not cause — or the cell fails, naming what fired. If faults
// fired, the cell then runs once more without them, a fixed second step
// rather than a retry, and only that clean outcome is memoised and cached,
// so rendered tables and cache records never carry an injected fault's
// fingerprint. The fifth class, CacheCorrupt, tears a record after it is
// written; the next resumed pass evicts and recomputes it.
//
// With Config.Faults nil nothing here runs but one execCell per cell, so a
// fault-free sweep is unchanged by this file.

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"htmcmp/internal/chaos"
	"htmcmp/internal/harness"
)

// compute runs the job and reports its outcome and the wall-clock seconds of
// the run that produced it. An engine-afflicted cell runs twice: afflicted,
// where any error fails the cell, then clean when anything fired.
func (s *Scheduler) compute(j job) (outcome, float64) {
	began := time.Now()
	if inj := s.cfg.Faults; inj != nil && j.Kind.HasSpec() {
		if eng := inj.EngineFor(j.key); eng != nil {
			af := j.Cell
			af.Spec.Faults = eng
			o := s.execCell(af)
			for cl := chaos.SpuriousAbort; cl <= chaos.ModeThrash; cl++ {
				inj.NoteN(cl, eng.Fired(cl))
			}
			if o.err != nil {
				return outcome{err: fmt.Errorf("sweep: cell %s failed under injected faults (%s): %w",
					j.Label(), firedList(eng), o.err)}, 0
			}
			if eng.TotalFired() == 0 {
				// Nothing fired, so the run is a clean one; only the spec it
				// echoes still names the injector.
				o.res.Spec.Faults = nil
				return o, time.Since(began).Seconds()
			}
			began = time.Now()
		}
	}
	o := s.execCell(j.Cell)
	return o, time.Since(began).Seconds()
}

// firedList names the classes an engine injector fired, with their counts.
func firedList(eng *chaos.Injector) string {
	var parts []string
	for cl := chaos.SpuriousAbort; cl <= chaos.ModeThrash; cl++ {
		if n := eng.Fired(cl); n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", cl, n))
		}
	}
	if parts == nil {
		return "none fired"
	}
	return strings.Join(parts, " ")
}

// afflictRecord tears the just-written cache record when the cell is
// afflicted by CacheCorrupt: truncation (a torn write), garbage bytes (rot),
// or a stale record that holds another cell's canonical bytes. All three
// must be detected on the next resume pass — the first two by Get itself,
// the stale one by lookup's identity check — then evicted and recomputed.
func (s *Scheduler) afflictRecord(j job) {
	inj := s.cfg.Faults
	if inj == nil || s.cfg.Cache == nil || !inj.Afflicts(chaos.CacheCorrupt, j.key) {
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
		var canon []byte
		if canon, err = json.Marshal(stale); err == nil {
			torn, err = json.Marshal(record{Cell: canon, Result: &harness.Result{}, Seconds: 0.001})
		}
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
// OnEvict hook in New): log it and count it. The recompute that follows
// counts as computed.
func (s *Scheduler) noteEviction(key string, reason error) {
	short := key
	if len(short) > 12 {
		short = short[:12]
	}
	s.progressf("sweep: cache: evicted record %s: %v (will recompute)", short, reason)
	s.mu.Lock()
	s.count[cacheEvictions]++
	s.mu.Unlock()
}
