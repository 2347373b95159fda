package main

import (
	"fmt"
	"math"
	"sort"

	"htmcmp/internal/stamp"
)

// metricDef declares one metric the program emits. BENCHMARK.json at the
// repository root carries the same declarations; TestBenchmarkJSONMatchesCode
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// gatedDef is an end-to-end metric: Bound is the share of the parent's
// median by which it may worsen before a change counts as a regression.
type gatedDef struct {
	metricDef
	Bound float64
}

// endToEnd is what a user of the repository sees: host time to produce the
// tables, and host time to get ready to. Failures are counted against
// attempts in the result line itself (attempted/failed), not as a metric,
// because a healthy tree reads 0 there.
var endToEnd = []gatedDef{
	{metricDef{"wall_s", "s", "lower"}, 0.25},
	{metricDef{"setup_s", "s", "lower"}, 0.25},
}

// Sources of a per-layer metric: read from an untraced run from outside,
// measured by the traced twins, or by a micro-driver over public functions.
const (
	srcRun   = "run"
	srcTrace = "trace"
	srcUnit  = "unit"
)

type layerDef struct {
	metricDef
	Source string
}

func lm(source, name, unit, better string) layerDef {
	return layerDef{metricDef{name, unit, better}, source}
}

// from reports whether the metric comes from one of the given sources.
func (d layerDef) from(sources ...string) bool {
	for _, s := range sources {
		if d.Source == s {
			return true
		}
	}
	return false
}

// perLayer lists every per-layer metric, layer names being package names.
// Counts that only describe the work done are marked "higher" when more of
// them is more useful work and "lower" when they are cost or waste.
var perLayer = buildPerLayer()

func buildPerLayer() []layerDef {
	d := []layerDef{
		lm(srcRun, "cmd.cpu_s", "s", "lower"),
		lm(srcRun, "cmd.peak_rss_mb", "MB", "lower"),
		lm(srcRun, "cmd.outside_sweep_s", "s", "lower"),

		lm(srcRun, "sweep.prewarm_s", "s", "lower"),
		lm(srcRun, "sweep.cells", "count", "higher"),
		lm(srcRun, "sweep.computed", "count", "lower"),
		lm(srcRun, "sweep.cached", "count", "higher"),
		lm(srcRun, "sweep.failed", "count", "lower"),
		lm(srcRun, "sweep.steals", "count", "lower"),
		lm(srcRun, "sweep.retried", "count", "lower"),
		lm(srcRun, "sweep.cell_s_sum", "s", "lower"),
		lm(srcRun, "sweep.cell_s_p50", "s", "lower"),
		lm(srcRun, "sweep.cell_s_p95", "s", "lower"),
		lm(srcRun, "sweep.cell_s_max", "s", "lower"),
		lm(srcRun, "sweep.pool_efficiency", "ratio", "higher"),
		lm(srcRun, "sweep.tail_share", "ratio", "lower"),
		lm(srcTrace, "sweep.plan_s", "s", "lower"),
		lm(srcTrace, "sweep.render_s", "s", "lower"),
		lm(srcTrace, "sweep.hit_us", "us", "lower"),

		lm(srcRun, "cache.records", "count", "higher"),
		lm(srcRun, "cache.bytes", "bytes", "lower"),
		lm(srcTrace, "cache.key_us", "us", "lower"),
		lm(srcTrace, "cache.get_us", "us", "lower"),
		lm(srcTrace, "cache.put_us", "us", "lower"),

		lm(srcRun, "harness.measure_s", "s", "lower"),
		lm(srcRun, "harness.tune_s", "s", "lower"),
		lm(srcTrace, "harness.seq_s", "s", "lower"),
		lm(srcTrace, "harness.par_s", "s", "lower"),
		lm(srcTrace, "harness.seq_share", "ratio", "lower"),
		lm(srcTrace, "harness.replica_ratio", "ratio", "lower"),

		lm(srcRun, "trace.collect_s", "s", "lower"),
	}
	for _, prog := range stamp.Names() {
		d = append(d, lm(srcRun, "stamp.cell_s."+prog, "s", "lower"))
	}
	d = append(d,
		lm(srcTrace, "stamp.new_s", "s", "lower"),
		lm(srcTrace, "stamp.setup_s", "s", "lower"),
		lm(srcTrace, "stamp.run_s", "s", "lower"),
		lm(srcTrace, "stamp.validate_s", "s", "lower"),

		lm(srcRun, "htm.begins", "count", "higher"),
		lm(srcRun, "htm.commits", "count", "higher"),
		lm(srcRun, "htm.aborts", "count", "lower"),
		lm(srcRun, "htm.tx_accesses", "count", "higher"),
		lm(srcRun, "htm.commit_ratio", "ratio", "higher"),
		lm(srcRun, "htm.us_per_tx_access", "us", "lower"),
		lm(srcTrace, "htm.new_s", "s", "lower"),
		lm(srcTrace, "htm.release_s", "s", "lower"),
		lm(srcTrace, "htm.sched_handoffs", "count", "lower"),
		lm(srcTrace, "htm.handoffs_per_tx_access", "ratio", "lower"),
		lm(srcUnit, "htm.tx_load_ns", "ns", "lower"),
		lm(srcUnit, "htm.tx_store_ns", "ns", "lower"),
		lm(srcUnit, "htm.commit_ns", "ns", "lower"),
		lm(srcUnit, "htm.abort_ns", "ns", "lower"),
		lm(srcUnit, "htm.nontx_load_ns", "ns", "lower"),
		lm(srcUnit, "htm.stm_load_ns", "ns", "lower"),
		lm(srcUnit, "htm.stm_commit_ns", "ns", "lower"),
		lm(srcUnit, "htm.handoff2_ns", "ns", "lower"),
		lm(srcUnit, "htm.handoff16_ns", "ns", "lower"),
		lm(srcUnit, "htm.new_ms", "ms", "lower"),

		lm(srcRun, "tm.abort_ratio", "%", "lower"),
		lm(srcRun, "tm.serialization_ratio", "%", "lower"),
		lm(srcUnit, "tm.run_ns", "ns", "lower"),
		lm(srcUnit, "tm.run_irrevocable_ns", "ns", "lower"),

		lm(srcRun, "adapt.mode_switches", "count", "lower"),
		lm(srcRun, "adapt.stm_commit_share", "ratio", "lower"),

		lm(srcUnit, "mem.load64_ns", "ns", "lower"),
		lm(srcUnit, "mem.store64_ns", "ns", "lower"),
		lm(srcUnit, "mem.alloc_ns", "ns", "lower"),
		lm(srcUnit, "mem.reset_ms", "ms", "lower"),
		lm(srcUnit, "mem.newspace_ms", "ms", "lower"),

		lm(srcUnit, "txds.rbtree_insert_ns", "ns", "lower"),
		lm(srcUnit, "txds.rbtree_get_ns", "ns", "lower"),
		lm(srcUnit, "txds.hashtable_insert_ns", "ns", "lower"),
		lm(srcUnit, "txds.hashtable_get_ns", "ns", "lower"),
		lm(srcUnit, "txds.list_insert_ns", "ns", "lower"),
		lm(srcUnit, "txds.queue_pushpop_ns", "ns", "lower"),
		lm(srcUnit, "txds.heap_pushpop_ns", "ns", "lower"),
		lm(srcUnit, "txds.bitmap_set_ns", "ns", "lower"),
		lm(srcUnit, "txds.vector_pushback_ns", "ns", "lower"),

		lm(srcTrace, "features.clq_s", "s", "lower"),
		lm(srcTrace, "features.tls_s", "s", "lower"),

		lm(srcTrace, "trace.overhead_pct", "%", "lower"),
		lm(srcTrace, "trace.coverage_pct", "%", "higher"),
	)
	return d
}

// values maps metric name to measured value.
type values map[string]float64

func (v values) merge(o values) {
	for k, x := range o {
		v[k] = x
	}
}

// checkComplete reports the declared metrics of the given sources that v
// lacks or holds as NaN/Inf, and the names in v that no declaration covers.
func checkComplete(v values, sources ...string) error {
	want := map[string]bool{}
	for _, d := range perLayer {
		if d.from(sources...) {
			want[d.Name] = true
		}
	}
	var bad []string
	for name := range want {
		x, ok := v[name]
		if !ok {
			bad = append(bad, name+" (missing)")
		} else if math.IsNaN(x) || math.IsInf(x, 0) {
			bad = append(bad, name+" (not finite)")
		}
	}
	for name := range v {
		if !want[name] {
			bad = append(bad, name+" (undeclared)")
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("per-layer metrics out of step with their declarations: %v", bad)
}
