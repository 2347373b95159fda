// Command htmtrace runs one STAMP benchmark with an event tracer attached
// and prints an abort-attribution report: abort-reason × retry-depth
// histogram, commit-latency percentiles in virtual cycles, and the hottest
// conflicting cache lines with their symbolic region names. Per-transaction
// footprints (Figures 10 and 11) are htmbench -exp fig10 / fig11.
//
// Usage:
//
//	htmtrace -bench intruder -platform zec12         # traced 4-thread run
//	htmtrace -bench yada -jsonl yada.jsonl -perfetto yada.trace.json
//	htmtrace -check-events yada.jsonl                # validate a JSONL trace
//	htmtrace -check-trace yada.trace.json            # validate a Chrome trace
//
// -jsonl and -perfetto additionally export the raw events (a path that
// cannot be written fails before the run, exit status 1); the Perfetto file
// loads in https://ui.perfetto.dev or chrome://tracing with one track per
// simulated thread and virtual clocks as timestamps.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"slices"
	"strings"

	"htmcmp/internal/htm"
	"htmcmp/internal/obs"
	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
	"htmcmp/internal/tm"
)

func main() {
	platName := flag.String("platform", "zec12", "platform: bgq, zec12, intel, power8")
	bench := flag.String("bench", "vacation-low", "STAMP benchmark name")
	scaleName := flag.String("scale", "sim", "workload scale: test, sim, full")
	threads := flag.Int("threads", 4, "thread count")
	seed := flag.Uint64("seed", 42, "workload seed")
	jsonlPath := flag.String("jsonl", "", "also write the raw events as JSONL to this file")
	perfettoPath := flag.String("perfetto", "", "also write a Chrome/Perfetto trace to this file")
	top := flag.Int("top", 10, "number of hot conflicting lines to print")
	checkEvents := flag.String("check-events", "", "validate a JSONL event file and exit (CI hook)")
	checkTrace := flag.String("check-trace", "", "validate a Chrome trace file and exit (CI hook)")
	flag.Parse()

	// Usage errors exit 2 here, before any engine exists.
	kind, scale, err := parseTarget(*platName, *scaleName, *bench)
	if err == nil {
		err = checkFlags(*threads, *top)
	}
	if err == nil && *seed == 0 {
		// Every layer reads a zero seed as unset and runs seed 42.
		err = fmt.Errorf("-seed must be 1 or more: seed 0 would run seed 42")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "htmtrace:", err)
		os.Exit(2)
	}
	if *checkEvents != "" || *checkTrace != "" {
		os.Exit(runChecks(*checkEvents, *checkTrace, os.Stdout, os.Stderr))
	}

	if err := runEvents(kind, *bench, scale, *seed, *threads, *top, *jsonlPath, *perfettoPath); err != nil {
		fmt.Fprintln(os.Stderr, "htmtrace:", err)
		os.Exit(1)
	}
}

// checkFlags rejects a -threads the engine cannot provision (below 1 used to
// run as 1) and a -top below 1 (the report would substitute its default).
func checkFlags(threads, top int) error {
	if threads < 1 || threads > htm.MaxThreads {
		return fmt.Errorf("-threads must be in [1, %d], got %d", htm.MaxThreads, threads)
	}
	if top < 1 {
		return fmt.Errorf("-top must be 1 or more, got %d", top)
	}
	return nil
}

// parseTarget parses -platform, -scale and -bench; an error starts with the
// flag's name.
func parseTarget(plat, scale, bench string) (platform.Kind, stamp.Scale, error) {
	kind, err := platform.ParseKind(plat)
	if err != nil {
		return 0, 0, fmt.Errorf("-platform: %w", err)
	}
	sc, err := stamp.ParseScale(scale)
	if err != nil {
		return 0, 0, fmt.Errorf("-scale: %w", err)
	}
	if !slices.Contains(stamp.Names(), bench) {
		return 0, 0, fmt.Errorf("-bench: unknown benchmark %q (%s)", bench, strings.Join(stamp.Names(), ", "))
	}
	return kind, sc, nil
}

// runChecks validates previously exported artefacts (the CI hooks behind
// -check-events/-check-trace) and returns the process exit code.
func runChecks(eventsPath, tracePath string, out, errw *os.File) int {
	code := 0
	if eventsPath != "" {
		n, err := obs.ValidateFile(eventsPath)
		if err != nil {
			fmt.Fprintf(errw, "htmtrace: %s: %v\n", eventsPath, err)
			code = 1
		} else {
			fmt.Fprintf(out, "%s: %d valid events\n", eventsPath, n)
		}
	}
	if tracePath != "" {
		b, err := os.ReadFile(tracePath)
		switch {
		case err != nil:
			fmt.Fprintf(errw, "htmtrace: %v\n", err)
			code = 1
		case !json.Valid(b):
			fmt.Fprintf(errw, "htmtrace: %s: not valid JSON\n", tracePath)
			code = 1
		default:
			fmt.Fprintf(out, "%s: valid Chrome trace JSON (%d bytes)\n", tracePath, len(b))
		}
	}
	return code
}

// runEvents runs the benchmark with an event tracer attached and prints the
// abort-attribution report; jsonlPath/perfettoPath additionally export the
// raw events. The export files are opened before any engine exists, so a
// path that cannot be written fails before anything runs or prints. A file
// is truncated only when its events are written, and one this call created
// is removed again if the call fails.
func runEvents(kind platform.Kind, bench string, scale stamp.Scale, seed uint64, threads, top int, jsonlPath, perfettoPath string) (err error) {
	exports := []struct {
		flag, path string
		write      func(io.Writer, []obs.Event) error
		f          *os.File
		created    bool
	}{{flag: "-jsonl", path: jsonlPath, write: obs.WriteJSONL}, {flag: "-perfetto", path: perfettoPath, write: obs.WriteChromeTrace}}
	defer func() {
		for _, x := range exports {
			if x.f == nil {
				continue
			}
			if cerr := x.f.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("%s: %w", x.flag, cerr)
			}
			if err != nil && x.created {
				os.Remove(x.path)
			}
		}
	}()
	for i := range exports {
		x := &exports[i]
		if x.path == "" {
			continue
		}
		if x.f, x.created, err = openOutput(x.path); err != nil {
			return fmt.Errorf("%s: %w", x.flag, err)
		}
	}

	tracer := obs.NewTracer()
	e := htm.New(platform.New(kind), htm.Config{
		Threads: threads, SpaceSize: 96 << 20, Seed: seed, CostScale: 1,
		Tracer: tracer,
	})
	b, err := stamp.New(bench, stamp.Config{Scale: scale, Seed: seed})
	if err != nil {
		return err
	}
	b.Setup(e.Thread(0))
	lock := tm.NewGlobalLock(e)
	runners := make([]stamp.Runner, threads)
	for i := range runners {
		runners[i] = stamp.TMRunner{X: tm.NewExecutor(e.Thread(i), lock, tm.DefaultPolicy(kind))}
	}
	b.Run(runners)
	if err := b.Validate(e.Thread(0)); err != nil {
		return fmt.Errorf("validation: %w", err)
	}

	evs := tracer.Events()
	rep := obs.Aggregate(evs, obs.ReportOptions{
		TopN:     top,
		LineSize: e.LineSize(),
		RegionAt: e.Space().RegionAt,
	})
	fmt.Printf("%s on %s, %d threads (virtual clock %d, %d scheduler handoffs, %d thread switches)\n\n",
		bench, kind, threads, e.MaxClock(), e.SchedHandoffs(), e.SchedSwitches())
	rep.Fprint(os.Stdout)

	for _, x := range exports {
		if x.f == nil {
			continue
		}
		err := x.f.Truncate(0)
		if err == nil {
			err = x.write(x.f, evs)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", x.flag, err)
		}
		fmt.Fprintf(os.Stderr, "htmtrace: wrote %d events to %s\n", len(evs), x.path)
	}
	return nil
}

// openOutput opens path for writing without truncating it, creating it if
// it does not exist; created reports whether it did.
func openOutput(path string) (f *os.File, created bool, err error) {
	f, err = os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if errors.Is(err, fs.ErrExist) {
		f, err = os.OpenFile(path, os.O_WRONLY, 0)
		return f, false, err
	}
	return f, err == nil, err
}
