// Command bench is the repository's benchmark: it measures the host
// wall-clock cost of regenerating the paper's tables with cmd/htmbench on
// four workloads, checks every run's output, and — in a separate traced
// pass — says which layer the time went to. See README.md.
//
// Usage (from the repository root):
//
//	bash bench/run.sh [--workload NAME|all] [--seed N] [--seconds S] [--reps N]
//	                  [--scale test|sim] [--trace 0|1] [--aa]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"htmcmp/internal/stats"
)

func main() {
	name := flag.String("workload", "all", "workload to run: regen_cold, regen_warm, engine_serial, modes_serial, or all")
	seed := flag.Uint64("seed", 42, "workload seed, passed to htmbench as -seed")
	seconds := flag.Float64("seconds", 20, "time box for one workload's reps (a rep starts only if it is expected to fit; at least one runs)")
	reps := flag.Int("reps", 0, "fixed rep count per workload instead of the time box (0 = time box; -scale sim defaults to the workload's own count)")
	scale := flag.String("scale", "test", "htmbench -scale: test fits the driver's time cap; sim is the paper-size sweep behind results_sim.txt")
	traced := flag.Int("trace", 0, "1 = traced pass: per-layer metrics from the outside-in readings, the twins and the micro-drivers")
	aa := flag.Bool("aa", false, "run two complete untraced sets on the same tree and compare them against the bounds")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *reps, *scale, *traced != 0, *aa); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, reps int, scale string, traced, aa bool) error {
	var selected []workload
	if name == "all" {
		selected = workloads
	} else if w, ok := findWorkload(name); ok {
		selected = []workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", name)
	}
	if scale != "test" && scale != "sim" {
		return fmt.Errorf("unknown scale %q (want test or sim)", scale)
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}

	root, err := findRoot()
	if err != nil {
		return err
	}
	// .bench_build is where the driver keeps build products; .gitignore names it.
	buildDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	e := &env{Root: root, Scratch: scratch, OutDir: filepath.Join(root, "bench", "out"), W: os.Stdout,
		Scale: scale, Seed: seed, SubSeeds: 8}
	if scale == "sim" {
		e.SubSeeds = 1
		if e.Golden, err = os.ReadFile(filepath.Join(root, "results_sim.txt")); err != nil {
			return err
		}
	}

	repsFor := func(w workload) int {
		if reps == 0 && scale == "sim" {
			return w.SimReps
		}
		return reps
	}
	if aa {
		return e.runAA(seconds, repsFor)
	}
	buildS, err := e.build()
	if err != nil {
		return err
	}
	fmt.Fprintf(e.W, "bench: scale=%s seed=%d jobs=%d (pool workloads) build=%.3f s (median of %d)\n",
		scale, seed, poolJobs(), buildS, buildReps)
	ok := true
	for _, w := range selected {
		var line resultLine
		if traced {
			line, err = e.tracedPass(w, buildS)
		} else {
			line, _, err = e.report(e.runWorkload(w, seconds, repsFor(w), buildS))
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		ok = ok && line.Correct
		out, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Fprintf(e.W, "%s\n", out)
	}
	if !ok {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

// findRoot returns the repository root: the nearest directory at or above
// the working directory that holds module htmcmp's go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module htmcmp\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no htmcmp module root at or above the working directory")
		}
		dir = parent
	}
}

// buildReps is how many times set-up builds htmbench; the median is reported
// so that the one build that fills a cold Go cache does not stand for all.
const buildReps = 3

// build compiles cmd/htmbench into the scratch directory buildReps times,
// each to a fresh path so every build links, and returns the median seconds.
func (e *env) build() (float64, error) {
	var secs []float64
	for i := 0; i < buildReps; i++ {
		e.Binary = e.freshPath("htmbench")
		cmd := exec.Command("go", "build", "-o", e.Binary, "./cmd/htmbench")
		cmd.Dir = e.Root
		start := time.Now()
		if out, err := cmd.CombinedOutput(); err != nil {
			return 0, fmt.Errorf("go build ./cmd/htmbench: %v\n%s", err, out)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a run ends with.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints one untraced workload: its end-to-end metrics with sample
// counts, the output-check verdict, and the outside-in layer metrics of its
// last rep. It returns the result line and those layer metrics (nil when the
// last rep failed).
func (e *env) report(res workloadResult) (resultLine, values, error) {
	w := res.Workload
	fmt.Fprintf(e.W, "\n== %s: htmbench -exp %s -scale %s -jobs %d%s\n", w.Name, w.Exp, e.Scale, w.jobs(), warmNote(w))
	fmt.Fprintf(e.W, "   why: %s\n", w.Why)
	for _, p := range res.Problems {
		fmt.Fprintf(e.W, "   CHECK FAILED: %s\n", p)
	}
	line := resultLine{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	if len(res.WallS) == 0 {
		return line, nil, nil
	}
	wall := median(res.WallS)
	fmt.Fprintf(e.W, "   %-22s %10.4f s   median of n=%d (min %.4f, max %.4f)\n", "wall_s", wall, len(res.WallS), stats.Min(res.WallS), stats.Max(res.WallS))
	fmt.Fprintf(e.W, "   %-22s %10.4f s   build median of n=%d plus this workload's preparation\n", "setup_s", res.SetupS, buildReps)
	fmt.Fprintf(e.W, "   %-22s %10.6f     %d failed of %d attempted cells; output checks %s\n", "ops_failed_share",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted, verdict(res.correct()))
	line.Metrics["wall_s"] = metricValue{wall, "s"}
	line.Metrics["setup_s"] = metricValue{res.SetupS, "s"}

	if res.Last.ExitErr != nil {
		return line, nil, nil
	}
	v, err := runMetrics(res.Last, w.jobs())
	if err == nil {
		err = checkComplete(v, srcRun)
	}
	if err != nil {
		return line, nil, err
	}
	e.printLayerMetrics(v, "last rep, read from outside", srcRun)
	return line, v, nil
}

func warmNote(w workload) string {
	if w.Warm {
		return " (on the cache a cold run of the same command filled)"
	}
	return " (fresh cache every rep)"
}

func verdict(ok bool) string {
	if ok {
		return "passed"
	}
	return "FAILED"
}

// printLayerMetrics prints the per-layer metrics of the given sources in
// declaration order.
func (e *env) printLayerMetrics(v values, note string, sources ...string) {
	fmt.Fprintf(e.W, "   per-layer metrics (%s):\n", note)
	for _, d := range perLayer {
		if d.from(sources...) {
			fmt.Fprintf(e.W, "     %-28s %14.4f %-6s [%s]\n", d.Name, v[d.Name], d.Unit, d.Source)
		}
	}
}
