package harness

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
)

// TestTuneRegionCounts pins the regions one Tune call simulates through one
// memo against the per-call fold, in which every trial and the re-measure
// simulated their own: the trials share their sequential baseline (one for
// both BG/Q running modes, one per genome chunk), trials whose differing
// budgets never ran out are one budget-family run, and the re-measure's
// first repeat is the winning trial. Sharing moves no result.
func TestTuneRegionCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("tuning in -short mode")
	}
	for _, tc := range []struct {
		spec            RunSpec
		perCall, shared int
	}{
		{RunSpec{Platform: platform.POWER8, Benchmark: "ssca2"}, 14, 4},
		{RunSpec{Platform: platform.BlueGeneQ, Benchmark: "kmeans-high"}, 12, 7},
		{RunSpec{Platform: platform.ZEC12, Benchmark: "genome"}, 24, 12},
	} {
		spec := tc.spec
		spec.Threads, spec.Scale, spec.Repeats = 2, stamp.ScaleTest, 2
		want, perCall := perCallTune(t, spec)
		r := NewRegions()
		got, err := r.Tune(spec)
		if err != nil {
			t.Fatal(err)
		}
		if perCall != tc.perCall || r.Simulated() != tc.shared {
			t.Errorf("%s: %d regions per call and %d through one memo, want %d and %d",
				spec.Label(), perCall, r.Simulated(), tc.perCall, tc.shared)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: tuned through one memo\n got %+v\nwant %+v", spec.Label(), got, want)
		}
	}
}

// perCallTune is Tune with a fresh memo for every trial and for the
// re-measure, so no region is shared. It also returns how many regions
// those runs simulated between them.
func perCallTune(t *testing.T, spec RunSpec) (Result, int) {
	t.Helper()
	n := 0
	run := func(s RunSpec) Result {
		r := NewRegions()
		res, err := r.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		n += r.Simulated()
		return res
	}
	spec = spec.withDefaults()
	candidates := TuneGrid(spec)
	best, bestSpeed := -1, 0.0
	for i, c := range candidates {
		if res := run(c); res.Speedup > bestSpeed {
			best, bestSpeed = i, res.Speedup
		}
	}
	win := candidates[best]
	win.Repeats = spec.Repeats
	return run(win), n
}

// TestRegionFailureReleasesWaiters: a region that errors or panics wakes
// every request waiting on it with the failure and is forgotten, so the
// next request simulates it again. The request that simulated a panicking
// region gets the panic back.
func TestRegionFailureReleasesWaiters(t *testing.T) {
	for _, tc := range []struct {
		name string
		fail func() (region, error)
	}{
		{"error", func() (region, error) { return region{}, errors.New("boom") }},
		{"panic", func() (region, error) { panic("boom") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegions()
			k := RunSpec{Benchmark: "ssca2"}.seqKey(1)
			started, release := make(chan struct{}), make(chan struct{})
			recovered := make(chan any, 1)
			go func() {
				defer func() { recovered <- recover() }()
				r.do(k, func() (region, error) {
					close(started)
					<-release
					return tc.fail()
				})
			}()
			<-started
			const waiters = 4
			errs := make(chan error, waiters)
			for i := 0; i < waiters; i++ {
				go func() {
					_, err := r.do(k, func() (region, error) { return region{cycles: 1}, nil })
					errs <- err
				}()
			}
			for joined(r, k) < waiters {
				runtime.Gosched()
			}
			close(release)
			for i := 0; i < waiters; i++ {
				if err := <-errs; err == nil || !strings.Contains(err.Error(), "boom") {
					t.Errorf("waiter: err = %v, want the region's failure", err)
				}
			}
			if p := <-recovered; (p != nil) != (tc.name == "panic") {
				t.Errorf("the simulating request recovered %v", p)
			}
			got, err := r.do(k, func() (region, error) { return region{cycles: 7}, nil })
			if err != nil || got.cycles != 7 || r.Simulated() != 2 {
				t.Errorf("next request: %+v, err %v, %d regions simulated; want it simulated afresh, the second",
					got, err, r.Simulated())
			}
		})
	}
}

// joined is how many requests have found the flight under k.
func joined(r *Regions, k regionKey) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families[k.family()] {
		if f.key == k {
			return f.waiters
		}
	}
	return 0
}

// TestSeqBaselinePlatformFree holds what seqKey leaves out: a sequential
// baseline's cycles do not depend on the platform model, Blue Gene/Q's
// running mode, the cost scale or any transaction-only ablation, so one
// baseline per workload serves them all.
func TestSeqBaselinePlatformFree(t *testing.T) {
	var engines []RunSpec
	for _, k := range platform.Kinds() {
		engines = append(engines, RunSpec{Platform: k}, RunSpec{Platform: k, CostScale: 2})
	}
	engines = append(engines,
		RunSpec{Platform: platform.BlueGeneQ, Mode: platform.LongRunning},
		RunSpec{Platform: platform.IntelCore, DisablePrefetch: true},
		RunSpec{Platform: platform.POWER8, DisableSMTSharing: true},
		RunSpec{Platform: platform.ZEC12, ResponderWins: true},
		RunSpec{Platform: platform.POWER8, TMCAMEntries: 128},
	)
	for _, bench := range stamp.Names() {
		for _, v := range []stamp.Variant{stamp.Modified, stamp.Original} {
			for i := 0; i < 2; i++ {
				var first RunSpec
				want := -1.0
				for _, e := range engines {
					spec := e
					spec.Benchmark, spec.Scale, spec.Variant = bench, stamp.ScaleTest, v
					spec = spec.withDefaults()
					seed := spec.repeatSeed(i)
					got, err := spec.runSeqOnce(seed)
					if err != nil {
						t.Fatal(err)
					}
					if want < 0 {
						first, want = spec, got
						continue
					}
					if got != want {
						t.Fatalf("%s %v seed %d: sequential baseline %v cycles under %+v, %v under %+v;"+
							" the field that differs reaches a one-thread run, so put it back into seqKey",
							bench, v, seed, got, spec, want, first)
					}
				}
			}
		}
	}
}
