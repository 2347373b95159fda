// Command htmtrace analyses transaction behaviour: per-transaction footprint
// distributions (the data behind Figures 10 and 11), and full event traces
// of parallel runs with abort attribution.
//
// Usage:
//
//	htmtrace -bench yada -platform zec12             # footprint distribution
//	htmtrace -bench intruder -platform zec12 -events # traced 4-thread run
//	htmtrace -events -bench yada -jsonl yada.jsonl -perfetto yada.trace.json
//	htmtrace -check-events yada.jsonl                # validate a JSONL trace
//	htmtrace -check-trace yada.trace.json            # validate a Chrome trace
//
// The -events mode runs the benchmark with an event tracer attached and
// prints an abort-attribution report: abort-reason × retry-depth histogram,
// commit-latency percentiles in virtual cycles, and the hottest conflicting
// cache lines with their symbolic region names. -jsonl and -perfetto
// additionally export the raw events; the Perfetto file loads in
// https://ui.perfetto.dev or chrome://tracing with one track per simulated
// thread and virtual clocks as timestamps.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"htmcmp/internal/htm"
	"htmcmp/internal/obs"
	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
	"htmcmp/internal/tm"
	"htmcmp/internal/trace"
)

func main() {
	platName := flag.String("platform", "zec12", "platform: bgq, zec12, intel, power8")
	bench := flag.String("bench", "vacation-low", "STAMP benchmark name")
	scaleName := flag.String("scale", "sim", "workload scale: test, sim, full")
	events := flag.Bool("events", false, "run -threads threads with an event tracer and report abort attribution")
	threads := flag.Int("threads", 4, "thread count for -events runs")
	seed := flag.Uint64("seed", 42, "workload seed")
	jsonlPath := flag.String("jsonl", "", "with -events: also write the raw events as JSONL to this file")
	perfettoPath := flag.String("perfetto", "", "with -events: also write a Chrome/Perfetto trace to this file")
	top := flag.Int("top", 10, "with -events: number of hot conflicting lines to print")
	checkEvents := flag.String("check-events", "", "validate a JSONL event file and exit (CI hook)")
	checkTrace := flag.String("check-trace", "", "validate a Chrome trace file and exit (CI hook)")
	flag.Parse()

	// Usage errors exit 2 here, before any engine exists.
	if err := checkFlags(*threads, *top); err != nil {
		fmt.Fprintln(os.Stderr, "htmtrace:", err)
		os.Exit(2)
	}
	if *checkEvents != "" || *checkTrace != "" {
		os.Exit(runChecks(*checkEvents, *checkTrace, os.Stdout, os.Stderr))
	}

	kind, err := platform.ParseKind(*platName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "htmtrace:", err)
		os.Exit(2)
	}
	scale, err := stamp.ParseScale(*scaleName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "htmtrace:", err)
		os.Exit(2)
	}

	if *events {
		if err := runEvents(kind, *bench, scale, *seed, *threads, *top, *jsonlPath, *perfettoPath); err != nil {
			fmt.Fprintln(os.Stderr, "htmtrace:", err)
			os.Exit(1)
		}
		return
	}

	fp, err := trace.Collect(*bench, kind, trace.Options{Scale: scale, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "htmtrace:", err)
		os.Exit(1)
	}
	spec := platform.New(kind)
	fmt.Printf("%s on %s: %d committed transactions\n\n", *bench, kind, fp.Transactions)
	fmt.Printf("  90-pct load footprint:  %8.2f KB (capacity %d KB)%s\n",
		fp.P90LoadKB, spec.LoadCapacity/1024, overMark(fp.ExceedsLoadCap))
	fmt.Printf("  90-pct store footprint: %8.2f KB (capacity %d KB)%s\n",
		fp.P90StoreKB, spec.StoreCapacity/1024, overMark(fp.ExceedsStoreCap))
	fmt.Printf("  max load footprint:     %8.2f KB\n", fp.MaxLoadKB)
	fmt.Printf("  max store footprint:    %8.2f KB\n", fp.MaxStoreKB)
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

func overMark(over bool) string {
	if over {
		return "  << EXCEEDS CAPACITY"
	}
	return ""
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
// raw events.
func runEvents(kind platform.Kind, bench string, scale stamp.Scale, seed uint64, threads, top int, jsonlPath, perfettoPath string) error {
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

	if jsonlPath != "" {
		if err := obs.WriteJSONLFile(jsonlPath, evs); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "htmtrace: wrote %d events to %s\n", len(evs), jsonlPath)
	}
	if perfettoPath != "" {
		if err := obs.WriteChromeTraceFile(perfettoPath, evs); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "htmtrace: wrote Chrome trace to %s (load in ui.perfetto.dev)\n", perfettoPath)
	}
	return nil
}
