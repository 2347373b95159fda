// Stampmini: run one STAMP benchmark on all four platform models and print
// the paper's core metrics — speed-up over sequential, abort ratio with the
// Figure 3 category breakdown, and serialization ratio.
//
//	go run ./examples/stampmini [benchmark]
//
// Default benchmark: vacation-low. Any name from stamp.Names() works.
package main

import (
	"fmt"
	"os"

	"htmcmp/internal/harness"
	"htmcmp/internal/htm"
	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
)

func main() {
	bench := "vacation-low"
	if len(os.Args) > 1 {
		bench = os.Args[1]
	}
	found := false
	for _, n := range stamp.Names() {
		if n == bench {
			found = true
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q; choose one of %v\n", bench, stamp.Names())
		os.Exit(2)
	}

	fmt.Printf("STAMP %s, modified variant, 4 threads, sim scale\n\n", bench)
	fmt.Printf("%-12s %-8s %-8s %-10s %-40s\n", "platform", "speedup", "abort%", "serial%", "abort breakdown (cap/conf/other/lock)")
	for _, kind := range platform.Kinds() {
		res, err := harness.Run(harness.RunSpec{
			Platform:  kind,
			Benchmark: bench,
			Threads:   4,
			Scale:     stamp.ScaleSim,
			Repeats:   1,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", kind, err)
			os.Exit(1)
		}
		br := res.Breakdown
		fmt.Printf("%-12s %-8.2f %-8.1f %-10.1f %.1f / %.1f / %.1f / %.1f\n",
			kind, res.Speedup, res.AbortRatio, res.SerializationRatio,
			br[htm.CategoryCapacity], br[htm.CategoryDataConflict],
			br[htm.CategoryOther], br[htm.CategoryLockConflict])
	}
	fmt.Println("\nSpeed-ups are virtual-time ratios (deterministic; host-independent).")
}
