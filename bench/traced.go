package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"htmcmp/internal/stamp"
)

// tracedPass produces every per-layer metric for one workload: one untraced
// rep read from outside, the two twins with the recorder off and on, the
// cache probes and the micro-drivers. Spans go to bench/out/.
func (e *env) tracedPass(w workload, buildS float64) (resultLine, error) {
	line := resultLine{Metrics: map[string]metricValue{}}
	res := e.runWorkload(w, 0, 1, buildS)
	line.Attempted, line.Failed = res.Attempted, res.Failed
	_, v, err := e.report(res)
	if err != nil || !res.correct() {
		return line, err
	}

	scale := stamp.ScaleTest
	if e.Scale == "sim" {
		scale = stamp.ScaleSim
	}
	// The CLI run the engine twin is held against: the same 40 cells, one
	// worker, its own fresh cache.
	engine, _ := findWorkload("engine_serial")
	ref := e.runHtmbench(engine, e.Seed, e.freshPath("twin-ref"))
	if bad := checkRun(ref, false, nil, nil); len(bad) > 0 {
		return line, fmt.Errorf("reference run for the engine twin: %s", strings.Join(bad, "; "))
	}

	// Each twin runs with the recorder off, then on; the difference is the
	// tracing overhead. settle puts the heap back where a fresh process has
	// it, or each pass would run slower than the one before.
	settle()
	engOff, err := engineTwin(nil, scale, e.Seed, e.freshPath("twin-engine"))
	if err != nil {
		return line, fmt.Errorf("engine twin: %w", err)
	}
	settle()
	engRec, warmRec := newRecorder(), newRecorder()
	engOn, err := engineTwin(engRec, scale, e.Seed, e.freshPath("twin-engine"))
	if err != nil {
		return line, fmt.Errorf("engine twin (traced): %w", err)
	}
	settle()
	warmOff, err := warmTwin(nil, w, scale, e.Seed, res.Last.CacheDir)
	if err != nil {
		return line, fmt.Errorf("warm twin: %w", err)
	}
	settle()
	warmOn, err := warmTwin(warmRec, w, scale, e.Seed, res.Last.CacheDir)
	if err != nil {
		return line, fmt.Errorf("warm twin (traced): %w", err)
	}

	replicaRatio, problems := checkReplica(engOff, ref)
	_, problemsOn := checkReplica(engOn, ref)
	problems = append(problems, problemsOn...)
	stale := replicaRatio < 0.9 || replicaRatio > 1.1
	for _, p := range problems {
		fmt.Fprintf(e.W, "   CHECK FAILED (replica drift): %s\n", p)
	}

	es, ws := engRec.spans, warmRec.spans
	seqS, parS := nameSeconds(es, "harness.seq"), nameSeconds(es, "harness.par")
	traceV := values{
		"sweep.plan_s":               nameSeconds(ws, "sweep.plan"),
		"sweep.render_s":             nameSeconds(ws, "sweep.render"),
		"sweep.hit_us":               ratio(warmOn.PrewarmS*1e6, float64(len(warmOn.Cells))),
		"harness.seq_s":              seqS,
		"harness.par_s":              parS,
		"harness.seq_share":          ratio(seqS, seqS+parS),
		"harness.replica_ratio":      replicaRatio,
		"stamp.new_s":                nameSeconds(es, "stamp.New"),
		"stamp.setup_s":              nameSeconds(es, "stamp.Setup"),
		"stamp.run_s":                nameSeconds(es, "stamp.Run"),
		"stamp.validate_s":           nameSeconds(es, "stamp.Validate"),
		"htm.new_s":                  nameSeconds(es, "htm.New"),
		"htm.release_s":              nameSeconds(es, "htm.Release"),
		"htm.sched_handoffs":         float64(engOn.Handoffs),
		"htm.handoffs_per_tx_access": ratio(float64(engOn.Handoffs), float64(engOn.TxAccess)),
		"features.clq_s":             nameSeconds(ws, "features.RunCLQ"),
		"features.tls_s":             nameSeconds(ws, "features.RunTLS"),
	}
	off, on := engOff.Seconds+warmOff.Seconds, engOn.Seconds+warmOn.Seconds
	traceV["trace.overhead_pct"] = 100 * ratio(on-off, off)
	traceV["trace.coverage_pct"] = 100 * (1 - ratio(
		layerSeconds(es)[unattributed]+layerSeconds(ws)[unattributed], rootSeconds(es)+rootSeconds(ws)))
	traceV["cache.key_us"], traceV["cache.get_us"], traceV["cache.put_us"], err =
		cacheProbe(warmOn.Cells, res.Last.CacheDir, e.freshPath("probe"))
	if err != nil {
		return line, err
	}
	v.merge(traceV)
	v.merge(unitMetrics())
	if err := checkComplete(v, srcRun, srcTrace, srcUnit); err != nil {
		return line, err
	}

	fmt.Fprintln(e.W)
	printLayerTable(e.W, "   engine_serial twin", es, stale)
	printLayerTable(e.W, "   regen_warm twin (over this workload's cells)", ws, false)
	fmt.Fprintf(e.W, "   twins untraced %.3f s, traced %.3f s; replica drift guard %s on %d cells\n",
		off, on, verdict(len(problems) == 0), len(engOff.Results))
	e.printLayerMetrics(v, "twins and micro-drivers", srcTrace, srcUnit)

	if err := os.MkdirAll(e.OutDir, 0o755); err != nil {
		return line, err
	}
	path := filepath.Join(e.OutDir, "trace-"+w.Name+".json")
	if err := writeSpans(path, map[string][]span{"engine_serial_twin": es, "regen_warm_twin": ws}); err != nil {
		return line, err
	}
	fmt.Fprintf(e.W, "   %d spans written to %s\n", len(es)+len(ws), path)

	line.Correct = len(problems) == 0
	for _, d := range perLayer {
		line.Metrics[d.Name] = metricValue{v[d.Name], d.Unit}
	}
	return line, nil
}

// settle drops what earlier passes left in the heap: two collections empty
// the sync.Pools of arenas and line tables, and the freed pages go back to
// the operating system.
func settle() {
	runtime.GC()
	runtime.GC()
	debug.FreeOSMemory()
}
