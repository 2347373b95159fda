package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"htmcmp/internal/prng"
)

// workload is one named htmbench command line. Every workload adds
// `-scale <scale> -repeats 2 -progress=false -seed <seed> -cache-dir <dir>`;
// the loop is closed, one process at a time.
type workload struct {
	Name string
	// Exp is htmbench's -exp argument.
	Exp string
	// Parallel selects -jobs: min(nproc, 4) when set, otherwise 1.
	Parallel bool
	// Warm runs every rep against the cache one cold run of the same
	// command left behind (that cold run is part of the workload's set-up).
	Warm bool
	// SimReps is the rep count at -scale sim, where one rep is too long for
	// a time box.
	SimReps int
	Why     string
}

// workloads is the benchmark's traffic. The cell sets differ on purpose: see
// the "how they interact" table in README.md for what each is predicted to
// show and to hide.
var workloads = []workload{
	{Name: "regen_cold", Exp: "all", Parallel: true, SimReps: 2,
		Why: "every experiment, pool of min(nproc,4) workers, empty cache: the make results-sim path, all simulate-side layers busy"},
	{Name: "regen_warm", Exp: "all", Parallel: true, Warm: true, SimReps: 5,
		Why: "same command on a full cache: plan, key, get, render and the never-cached fig6/fig9 are all of it; engine changes predict no move"},
	{Name: "engine_serial", Exp: "fig2+3", SimReps: 3,
		Why: "40 four-thread HTM cells on one worker: engine, virtual scheduler and STAMP ports with no pool or cache effects"},
	{Name: "modes_serial", Exp: "adaptive", SimReps: 2,
		Why: "48 cells of NOrec STM, hybrid fences, adapt controller, retry search and capacity aborts: the paths an HTM fast-path gain can cost"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// poolJobs is J, the sweep worker count of the parallel workloads.
func poolJobs() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func (w workload) jobs() int {
	if w.Parallel {
		return poolJobs()
	}
	return 1
}

// experiments lists, in htmbench's order, the -exp names the workload runs
// that decompose into sweep cells.
func (w workload) experiments() []string {
	if w.Exp == "all" {
		return []string{"fig2+3", "fig4", "fig5", "fig7", "fig10", "fig11", "prefetch", "stm", "capacity", "adaptive"}
	}
	return []string{w.Exp}
}

// env is what a run needs from its surroundings.
type env struct {
	Root    string    // repository root (holds go.mod, cmd/htmbench, results_sim.txt)
	Scratch string    // per-invocation scratch directory, removed at exit
	OutDir  string    // where spans and the A/A comparison are written
	W       io.Writer // the human-readable report
	Binary  string    // built htmbench
	Scale   string    // "test" or "sim"
	Seed    uint64
	// Golden is results_sim.txt, read from the repository at start and never
	// pinned here, so a model change that regenerates it needs no edit to
	// the benchmark.
	Golden []byte
	// SubSeeds is how many htmbench seeds, all derived from Seed, the reps
	// of a cold workload cycle through. One seed's inputs set how much a
	// run simulates (Figures 2 and 3 at test scale move ±13 % in wall time
	// between seeds), so a run that reports the median over several seeds
	// says more about the code and less about the draw. It is 1 at sim
	// scale, where the only golden is for seed 42 and every rep must match it.
	SubSeeds int
	n        int // freshPath counter
}

// subSeed is the htmbench seed of a rep: Seed itself for the first of each
// cycle, values derived from it for the others.
func (e *env) subSeed(rep int) uint64 {
	i := rep % e.SubSeeds
	if i == 0 {
		return e.Seed
	}
	return prng.Derive(e.Seed, i).Uint64()>>34 + 1
}

// freshPath names a file or directory in the scratch directory that no
// earlier call has named; it creates nothing.
func (e *env) freshPath(prefix string) string {
	e.n++
	return filepath.Join(e.Scratch, fmt.Sprintf("%s-%d", prefix, e.n))
}

// summary is htmbench's "sweep summary:" stderr line.
type summary struct {
	Cells, Computed, Cached, Failed int
	Steals, Retried                 int
	Hit                             string // as printed, e.g. "100.0%"
	Prewarm                         time.Duration
}

// parseSummary finds and decodes the summary line in htmbench's stderr. The
// line is space-separated key=value pairs; steals= and the self-healing
// counters appear only when non-zero.
func parseSummary(stderr string) (summary, error) {
	const marker = "sweep summary: "
	i := strings.LastIndex(stderr, marker)
	if i < 0 {
		return summary{}, fmt.Errorf("no %q line in stderr", strings.TrimSpace(marker))
	}
	line := stderr[i+len(marker):]
	if j := strings.IndexByte(line, '\n'); j >= 0 {
		line = line[:j]
	}
	var s summary
	seen := map[string]bool{}
	for _, field := range strings.Fields(line) {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return s, fmt.Errorf("summary field %q is not key=value", field)
		}
		seen[k] = true
		var err error
		switch k {
		case "cells":
			s.Cells, err = strconv.Atoi(v)
		case "computed":
			s.Computed, err = strconv.Atoi(v)
		case "cached":
			s.Cached, err = strconv.Atoi(v)
		case "failed":
			s.Failed, err = strconv.Atoi(v)
		case "steals":
			s.Steals, err = strconv.Atoi(v)
		case "retried":
			s.Retried, err = strconv.Atoi(v)
		case "hit":
			s.Hit = v
		case "elapsed":
			s.Prewarm, err = time.ParseDuration(v)
		}
		if err != nil {
			return s, fmt.Errorf("summary field %q: %v", field, err)
		}
	}
	for _, k := range []string{"cells", "computed", "cached", "failed", "hit", "elapsed"} {
		if !seen[k] {
			return s, fmt.Errorf("summary line %q lacks %s=", line, k)
		}
	}
	return s, nil
}

// procResult is one finished htmbench process.
type procResult struct {
	Wall     time.Duration
	CPU      time.Duration
	PeakRSS  float64 // MB
	Stdout   []byte
	Stderr   string
	ExitErr  error
	Summary  summary
	CacheDir string
}

// runHtmbench runs one htmbench process to completion and measures it from
// outside: wall clock from start to exit, CPU time and peak RSS from rusage.
func (e *env) runHtmbench(w workload, seed uint64, cacheDir string) procResult {
	args := []string{
		"-exp", w.Exp, "-scale", e.Scale, "-repeats", "2", "-progress=false",
		"-seed", strconv.FormatUint(seed, 10),
		"-jobs", strconv.Itoa(w.jobs()), "-cache-dir", cacheDir,
	}
	cmd := exec.Command(e.Binary, args...)
	cmd.Dir = e.Scratch
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	r := procResult{Wall: time.Since(start), Stdout: stdout.Bytes(), Stderr: stderr.String(), ExitErr: err, CacheDir: cacheDir}
	if ps := cmd.ProcessState; ps != nil {
		r.CPU = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			r.PeakRSS = float64(ru.Maxrss) / 1024 // Linux reports KB
		}
	}
	if err == nil {
		r.Summary, r.ExitErr = parseSummary(r.Stderr)
	}
	return r
}

// checkRun applies the per-run output checks and returns what is wrong with
// the run, nil when nothing is. warm says whether the run started on a full
// cache; golden, when non-nil, must contain the run's stdout as one
// contiguous part; same, when non-nil, must equal it byte for byte.
func checkRun(r procResult, warm bool, golden, same []byte) []string {
	if r.ExitErr != nil {
		return []string{fmt.Sprintf("run failed: %v: %s", r.ExitErr, lastLine(r.Stderr))}
	}
	var bad []string
	s := r.Summary
	if s.Failed != 0 {
		bad = append(bad, fmt.Sprintf("%d cells failed", s.Failed))
	}
	if warm {
		if s.Computed != 0 || s.Hit != "100.0%" {
			bad = append(bad, fmt.Sprintf("warm run reports computed=%d hit=%s, want computed=0 hit=100.0%%", s.Computed, s.Hit))
		}
	} else if s.Cached != 0 {
		bad = append(bad, fmt.Sprintf("cold run reports cached=%d, want 0", s.Cached))
	}
	if len(r.Stdout) == 0 {
		bad = append(bad, "no tables on stdout")
	}
	if golden != nil && !bytes.Contains(golden, r.Stdout) {
		bad = append(bad, "stdout is not a contiguous part of results_sim.txt")
	}
	if same != nil && !bytes.Equal(same, r.Stdout) {
		bad = append(bad, "stdout differs from the workload's first run with this seed")
	}
	return bad
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// golden returns the checked-in tables a run's stdout must be part of, or
// nil when its seed and scale have none.
func (e *env) golden(seed uint64) []byte {
	if e.Scale != "sim" || seed != 42 {
		return nil
	}
	return e.Golden
}

// workloadResult is one workload measured untraced.
type workloadResult struct {
	Workload  workload
	WallS     []float64 // one per rep
	SetupS    float64
	Attempted int
	Failed    int
	Problems  []string
	Last      procResult // the last rep, for the outside-in layer metrics
	// Populate is the cold run that filled a warm workload's cache.
	Populate *procResult
}

func (r workloadResult) correct() bool { return len(r.Problems) == 0 && r.Failed == 0 }

// runWorkload prepares w, then runs reps of it back to back. With reps == 0
// it runs for about `seconds`: a further rep starts only while the elapsed
// time plus the previous rep's duration still fits, and at least one runs.
// buildS is the already-measured build share of set-up.
func (e *env) runWorkload(w workload, seconds float64, reps int, buildS float64) workloadResult {
	res := workloadResult{Workload: w}
	// first holds, per seed, what the workload's first run with that seed
	// printed; every later run with the seed must print the same. For a warm
	// workload the first run is the cold one that fills the cache.
	first := map[uint64][]byte{}

	prepStart := time.Now()
	warmDir := ""
	if w.Warm {
		warmDir = e.freshPath(w.Name + "-cache")
		p := e.runHtmbench(w, e.Seed, warmDir)
		res.Populate = &p
		first[e.Seed] = p.Stdout
		for _, b := range checkRun(p, false, e.golden(e.Seed), nil) {
			res.Problems = append(res.Problems, "populate: "+b)
		}
		if len(res.Problems) > 0 {
			res.Attempted, res.Failed = 1, 1
			return res
		}
	}
	res.SetupS = buildS + time.Since(prepStart).Seconds()

	begin := time.Now()
	for i := 0; ; i++ {
		dir, seed := warmDir, e.Seed
		if !w.Warm {
			dir, seed = e.freshPath(w.Name+"-cache"), e.subSeed(i)
		}
		r := e.runHtmbench(w, seed, dir)
		bad := checkRun(r, w.Warm, e.golden(seed), first[seed])
		if first[seed] == nil {
			first[seed] = r.Stdout
		}
		cells := r.Summary.Cells
		if cells == 0 {
			cells = 1 // a run that died before planning still counts as an attempt
		}
		res.Attempted += cells
		if len(bad) > 0 {
			res.Failed += cells // any failed check fails all of the run's cells
			for _, b := range bad {
				res.Problems = append(res.Problems, fmt.Sprintf("rep %d: %s", i+1, b))
			}
		}
		res.WallS = append(res.WallS, r.Wall.Seconds())
		res.Last = r
		if lastRep(i, reps, seconds, time.Since(begin), r.Wall) {
			break
		}
		if !w.Warm {
			os.RemoveAll(dir) // only the last cold cache is read afterwards
		}
	}
	return res
}

// lastRep decides whether rep i (0-based), which took `took`, is the last.
func lastRep(i, reps int, seconds float64, elapsed, took time.Duration) bool {
	if reps > 0 {
		return i+1 >= reps
	}
	return (elapsed + took).Seconds() > seconds
}
