package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"htmcmp/internal/harness"
	"htmcmp/internal/harness/sweep"
	"htmcmp/internal/htm"
	"htmcmp/internal/stamp"
	"htmcmp/internal/stats"
	"htmcmp/internal/tm"
	"htmcmp/internal/trace"
)

// cacheRecord mirrors the JSON the sweep stores per cell (its own type is
// unexported): the cell, its result or footprint, and the host seconds the
// cell took to compute.
type cacheRecord struct {
	Cell      sweep.Cell       `json:"cell"`
	Result    *harness.Result  `json:"result,omitempty"`
	Footprint *trace.Footprint `json:"footprint,omitempty"`
	Seconds   float64          `json:"seconds,omitempty"`
}

// readRecords loads every cell record under a cache directory, keyed by
// cache key, and the bytes they occupy. A cell record is a file whose
// content hashes back to its own name; the duration estimator's state file,
// which shares the directory, does not and is skipped.
func readRecords(dir string) (map[string]cacheRecord, int64, error) {
	recs := map[string]cacheRecord{}
	var size int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var rec cacheRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		if key, err := rec.Cell.Key(); err != nil || key != name {
			return nil
		}
		recs[name] = rec
		size += int64(len(data))
		return nil
	})
	return recs, size, err
}

// runMetrics derives the outside-in layer metrics of one finished htmbench
// process from its rusage, its summary line and the cache it left.
func runMetrics(r procResult, jobs int) (values, error) {
	recs, size, err := readRecords(r.CacheDir)
	if err != nil {
		return nil, fmt.Errorf("reading cache %s: %w", r.CacheDir, err)
	}
	s := r.Summary
	prewarm := s.Prewarm.Seconds()
	v := values{
		"cmd.cpu_s":           r.CPU.Seconds(),
		"cmd.peak_rss_mb":     r.PeakRSS,
		"cmd.outside_sweep_s": r.Wall.Seconds() - prewarm,
		"sweep.prewarm_s":     prewarm,
		"sweep.cells":         float64(s.Cells),
		"sweep.computed":      float64(s.Computed),
		"sweep.cached":        float64(s.Cached),
		"sweep.failed":        float64(s.Failed),
		"sweep.steals":        float64(s.Steals),
		"sweep.retried":       float64(s.Retried),
		"cache.records":       float64(len(recs)),
		"cache.bytes":         float64(size),
	}

	var (
		cellS                  []float64
		byKind                 [3]float64
		byProg                 = map[string]float64{}
		eng                    htm.Stats
		tmStats                tm.Stats
		measureS, measureTxAcc float64
	)
	for _, rec := range recs {
		cellS = append(cellS, rec.Seconds)
		c := rec.Cell
		if k := int(c.Kind); k >= 0 && k < len(byKind) {
			byKind[k] += rec.Seconds
		}
		if c.Kind == sweep.Footprint {
			byProg[c.Bench] += rec.Seconds
			continue
		}
		byProg[c.Spec.Benchmark] += rec.Seconds
		if rec.Result == nil {
			continue
		}
		e := rec.Result.Engine
		eng.Begins += e.Begins
		eng.Commits += e.Commits
		eng.Aborts += e.Aborts
		eng.TxLoads += e.TxLoads
		eng.TxStores += e.TxStores
		tmStats.Add(&rec.Result.TM)
		if c.Kind == sweep.Measure {
			measureS += rec.Seconds
			measureTxAcc += float64(e.TxLoads + e.TxStores)
		}
	}
	v["sweep.cell_s_sum"] = sum(cellS)
	v["sweep.cell_s_p50"] = median(cellS)
	v["sweep.cell_s_p95"], _ = percentile(cellS, 95)
	v["sweep.cell_s_max"] = stats.Max(cellS)
	// Pool metrics describe cells this process computed; a run that computed
	// none (warm) has no pool to rate.
	v["sweep.pool_efficiency"], v["sweep.tail_share"] = 0, 0
	if s.Computed > 0 {
		v["sweep.pool_efficiency"] = ratio(sum(cellS), float64(jobs)*prewarm)
		v["sweep.tail_share"] = ratio(stats.Max(cellS), prewarm)
	}
	v["harness.measure_s"] = byKind[sweep.Measure]
	v["harness.tune_s"] = byKind[sweep.TuneMeasure]
	v["trace.collect_s"] = byKind[sweep.Footprint]
	for _, prog := range stamp.Names() {
		v["stamp.cell_s."+prog] = byProg[prog]
	}
	v["htm.begins"] = float64(eng.Begins)
	v["htm.commits"] = float64(eng.Commits)
	v["htm.aborts"] = float64(eng.Aborts)
	v["htm.tx_accesses"] = float64(eng.TxLoads + eng.TxStores)
	v["htm.commit_ratio"] = ratio(float64(eng.Commits), float64(eng.Begins))
	v["htm.us_per_tx_access"] = ratio(measureS*1e6, measureTxAcc)
	v["tm.abort_ratio"] = tmStats.AbortRatio()
	v["tm.serialization_ratio"] = tmStats.SerializationRatio()
	v["adapt.mode_switches"] = float64(tmStats.ModeSwitches)
	v["adapt.stm_commit_share"] = ratio(float64(tmStats.STMCommits), float64(tmStats.HTMCommits+tmStats.STMCommits))
	return v, nil
}
