// Quickstart: run one transactional counter on each of the four platform
// models and print the engine's view of what happened.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"htmcmp/internal/htm"
	"htmcmp/internal/platform"
	"htmcmp/internal/tm"
)

func main() {
	for _, kind := range platform.Kinds() {
		eng := htm.New(platform.New(kind), htm.Config{Threads: 4})
		lock := tm.NewGlobalLock(eng)
		counter := eng.Thread(0).Alloc(64)

		// Run four workers as one scheduled region: each increments the
		// shared counter 1000 times inside transactions with the paper's
		// retry mechanism and global-lock fallback.
		eng.Run(4, func(_ int, t *htm.Thread) {
			x := tm.NewExecutor(t, lock, tm.DefaultPolicy(kind))
			for j := 0; j < 1000; j++ {
				x.Run(func(t *htm.Thread) {
					t.Store64(counter, t.Load64(counter)+1)
				})
			}
		})

		st := eng.Stats()
		fmt.Printf("%-12s counter=%d commits=%d aborts=%d (%.1f%%) duration=%d cycles\n",
			kind, eng.Thread(0).Load64(counter),
			st.Commits, st.Aborts, st.AbortRatio(), eng.MaxClock())
	}
}
