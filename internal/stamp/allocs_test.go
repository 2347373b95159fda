package stamp

import (
	"runtime"
	"testing"

	"htmcmp/internal/htm"
	"htmcmp/internal/platform"
	"htmcmp/internal/tm"
)

// regionAllocs sets up name at test scale on an Intel engine and returns the
// Go heap allocations made by one Run on threads workers: a SeqRunner
// region when threads is 0, else a TMRunner region.
func regionAllocs(t *testing.T, name string, threads int) uint64 {
	t.Helper()
	n := max(threads, 1)
	e := htm.New(platform.New(platform.IntelCore), htm.Config{Threads: n, SpaceSize: 96 << 20, Seed: 43})
	defer e.Release()
	b, err := New(name, Config{Scale: ScaleTest, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b.Setup(e.Thread(0))
	runners := []Runner{SeqRunner{T: e.Thread(0)}}
	if threads > 0 {
		lock := tm.NewGlobalLock(e)
		runners = make([]Runner, threads)
		for i := range runners {
			runners[i] = TMRunner{X: tm.NewExecutor(e.Thread(i), lock, tm.DefaultPolicy(platform.IntelCore))}
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.Run(runners)
	runtime.ReadMemStats(&after)
	if err := b.Validate(e.Thread(0)); err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs
}

// regionAllocCeilings pins, per benchmark, the Go heap allocations of one
// test-scale region: {sequential, 4 threads}. Each is the largest count
// measured once every transaction body, with the variables it captures,
// moved into per-worker state (under -race -tags racecheck too), plus a
// small margin. What remains is per worker or growth of a list a worker
// keeps; a body that allocates on every transaction or attempt multiplies
// its count by them and fails here.
var regionAllocCeilings = map[string][2]uint64{
	"bayes":         {36, 215},
	"genome":        {108, 270},
	"intruder":      {40, 340},
	"kmeans-high":   {25, 115},
	"kmeans-low":    {25, 115},
	"labyrinth":     {50, 265},
	"ssca2":         {24, 125},
	"vacation-high": {37, 275},
	"vacation-low":  {26, 195},
	"yada":          {53, 390},
}

func TestRegionAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, name := range Names() {
		seq, par := regionAllocs(t, name, 0), regionAllocs(t, name, 4)
		c := regionAllocCeilings[name]
		if seq > c[0] || par > c[1] {
			t.Errorf("%s: %d allocations sequential, %d on 4 threads; ceilings %d, %d", name, seq, par, c[0], c[1])
		}
	}
}
