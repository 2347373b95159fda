// STM: run the same STAMP benchmark under the zEC12 HTM model and under the
// NOrec software-TM baseline — the overhead trade-off the paper's
// introduction describes ("[HTM] has lower overhead than software
// transactional memory").
//
//	go run ./examples/stm [benchmark]
package main

import (
	"fmt"
	"os"

	"htmcmp/internal/harness"
	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
)

func main() {
	bench := "vacation-low"
	if len(os.Args) > 1 {
		bench = os.Args[1]
	}

	fmt.Printf("%s on the zEC12 model: HTM vs NOrec STM (sim scale)\n\n", bench)
	fmt.Printf("%-8s %-10s %-10s %-10s %-10s\n", "threads", "HTM", "STM", "HTM abort%", "STM abort%")
	for _, threads := range []int{1, 2, 4, 8} {
		row := [2]harness.Result{}
		for i, useSTM := range []bool{false, true} {
			res, err := harness.Run(harness.RunSpec{
				Platform:  platform.ZEC12,
				Benchmark: bench,
				Threads:   threads,
				Scale:     stamp.ScaleSim,
				Repeats:   1,
				UseSTM:    useSTM,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
			row[i] = res
		}
		fmt.Printf("%-8d %-10.2f %-10.2f %-10.1f %-10.1f\n",
			threads, row[0].Speedup, row[1].Speedup, row[0].AbortRatio, row[1].AbortRatio)
	}
	fmt.Println("\nSTM pays per-access instrumentation (worse single-thread overhead)")
	fmt.Println("and serialises writers on NOrec's global sequence lock, but it has")
	fmt.Println("no capacity limits and no false sharing: value-based validation at")
	fmt.Println("word granularity.")
}
