package htm

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// launchAdapter runs a region the way bench/unit.go does: Register every
// thread, then one goroutine per thread between BeginWork and ExitWork.
func launchAdapter(e *Engine, n int, body func(tid int, th *Thread)) {
	for i := 0; i < n; i++ {
		e.Thread(i).Register()
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := e.Thread(i)
			th.BeginWork()
			defer th.ExitWork()
			body(i, th)
		}()
	}
	wg.Wait()
}

// TestAdapterEquivalentToRun holds the adapter to Engine.Run's schedule: one
// scheduler core, two ways to stand on it.
func TestAdapterEquivalentToRun(t *testing.T) {
	for _, quantum := range []int{1, 8} {
		for _, threads := range []int{2, 16} {
			t.Run(fmt.Sprintf("q%d/t%d", quantum, threads), func(t *testing.T) {
				for seed := uint64(1); seed <= 4; seed++ {
					want, wantSwitches := spinScenario((*Engine).Run, quantum, threads, seed, true)
					got, gotSwitches := spinScenario(launchAdapter, quantum, threads, seed, true)
					if !reflect.DeepEqual(got, want) || gotSwitches != wantSwitches {
						t.Fatalf("seed %d: adapter run diverges from Engine.Run:\n got %+v (%d switches)\nwant %+v (%d switches)",
							seed, got, gotSwitches, want, wantSwitches)
					}
				}
			})
		}
	}
}

// TestAdapterSingleThreadOnCaller is bench/unit.go's unitThread: the caller
// itself enters the region, works and leaves, and the engine can open
// another afterwards.
func TestAdapterSingleThreadOnCaller(t *testing.T) {
	e := virtualEngine(1)
	th := e.Thread(0)
	for round := uint64(1); round <= 2; round++ {
		th.Register()
		th.BeginWork()
		a := th.Alloc(64)
		for i := 0; i < 100; i++ {
			th.Store64(a, th.Load64(a)+1)
		}
		th.ExitWork()
		if got := e.SchedHandoffs(); got != round {
			t.Errorf("round %d: %d handoffs, want one per region", round, got)
		}
	}
}
