// Quickstart: run one transactional counter on each of the four platform
// models and print the engine's view of what happened.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"htmcmp"
)

func main() {
	for _, spec := range htmcmp.AllPlatforms() {
		eng := htmcmp.NewEngine(spec.Kind, htmcmp.EngineConfig{Threads: 4})
		lock := htmcmp.NewGlobalLock(eng)
		counter := eng.Thread(0).Alloc(64)

		// Run four workers as one scheduled region: each increments the
		// shared counter 1000 times inside transactions with the paper's
		// retry mechanism and global-lock fallback.
		eng.Run(4, func(_ int, t *htmcmp.Thread) {
			x := htmcmp.NewExecutor(t, lock, htmcmp.DefaultPolicy(spec.Kind))
			for j := 0; j < 1000; j++ {
				x.Run(func(t *htmcmp.Thread) {
					t.Store64(counter, t.Load64(counter)+1)
				})
			}
		})

		st := eng.Stats()
		fmt.Printf("%-12s counter=%d commits=%d aborts=%d (%.1f%%) duration=%d cycles\n",
			spec.Kind, eng.Thread(0).Load64(counter),
			st.Commits, st.Aborts, st.AbortRatio(), eng.MaxClock())
	}
}
