package harness

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"htmcmp/internal/htm"
	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
	"htmcmp/internal/tm"
)

// familyCase is one budget family under test: a benchmark on a platform at
// a thread count, and which of the members it derives, requested in order,
// one shared memo serves at each of familySeeds ('S' served, 'R'
// simulated).
type familyCase struct {
	platform platform.Kind
	bench    string
	threads  int
	served   [2]string
}

var familySeeds = [2]uint64{42, 7}

var familyCases = []familyCase{
	{platform.BlueGeneQ, "kmeans-high", 4, [2]string{"RRRRRS", "RRRRRS"}},
	{platform.BlueGeneQ, "ssca2", 4, [2]string{"RSSSRS", "RSSSRS"}},
	{platform.ZEC12, "genome", 4, [2]string{"RSRSSRR", "RSRSRRR"}},
	{platform.ZEC12, "vacation-low", 4, [2]string{"RSRSRRR", "RSRSRRR"}},
	{platform.IntelCore, "vacation-low", 4, [2]string{"RSRSRRR", "RSRSRRR"}},
	{platform.IntelCore, "kmeans-low", 4, [2]string{"RSRSRRR", "RSRSRRR"}},
	{platform.POWER8, "ssca2", 4, [2]string{"RSSSSSSSSSSSSR", "RSSSSSSSSSSSSR"}},
	{platform.POWER8, "yada", 12, [2]string{"RSSRRRRSRRSRRR", "RSSRRRRSRRSRRR"}},
}

// members lists the family of c at seed: parallel regions that differ
// only in their retry budgets and, on POWER8, the TMCAM size. Larger budgets
// come first, so a run that did not reach a budget is asked about a smaller
// one it did reach. On Blue Gene/Q the lock and persistent counters, which
// its mechanism never reads, vary too.
func (c familyCase) members(seed uint64) []RunSpec {
	base := RunSpec{Platform: c.platform, Benchmark: c.bench, Threads: c.threads,
		Scale: stamp.ScaleTest, Seed: seed}.withDefaults()
	def := base.policy()
	var out []RunSpec
	add := func(p tm.Policy, entries int) {
		s := base
		s.Policy, s.TMCAMEntries = &p, entries
		out = append(out, s)
	}
	if c.platform == platform.BlueGeneQ {
		for _, n := range []int{16, 8, 4, 1, 0} {
			p := def
			p.TransientRetry = n
			add(p, 0)
		}
		p := def
		p.LockRetry, p.PersistentRetry = 1, 32
		add(p, 0)
		return out
	}
	if c.platform == platform.POWER8 {
		for _, n := range []int{1024, 256, 128, 64, 32} {
			add(def, n)
		}
		big := tm.Policy{LockRetry: 16, PersistentRetry: 8, TransientRetry: 32}
		add(big, 1024)
		add(big, 64)
	}
	for _, p := range []tm.Policy{
		{LockRetry: 16, PersistentRetry: 8, TransientRetry: 32},
		{LockRetry: 16, PersistentRetry: 2, TransientRetry: 32},
		{LockRetry: 8, PersistentRetry: 8, TransientRetry: 8},
		def,
		{LockRetry: 4, PersistentRetry: 1, TransientRetry: 16},
		{LockRetry: 2, PersistentRetry: 1, TransientRetry: 4},
		{LockRetry: 1, PersistentRetry: 1, TransientRetry: 1},
	} {
		add(p, 0)
	}
	return out
}

// freshRegion simulates spec's first repeat through a memo of its own.
func freshRegion(t *testing.T, spec RunSpec) region {
	t.Helper()
	g, err := NewRegions().par(spec, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// bound reports whether want's own run reached a budget in which it differs
// from have: a retry counter whose budget differs ran out, or, where the
// capacities differ, a capacity check needed more than want's.
func bound(g region, want, have regionKey) bool {
	if hc, wc := have.capLines(), want.capLines(); hc != wc && g.need > wc {
		return true
	}
	// Raise every counter in which have differs far out of reach: g fits
	// that pair exactly when it stayed below want's budget on each of them.
	far := want.Policy
	const out = 1 << 30
	if far.LockRetry != have.Policy.LockRetry {
		far.LockRetry = out
	}
	if far.PersistentRetry != have.Policy.PersistentRetry {
		far.PersistentRetry = out
	}
	if far.TransientRetry != have.Policy.TransientRetry {
		far.TransientRetry = out
	}
	return !g.use.Fits(want.Policy, far)
}

// server is the simulated member whose region answered the served key k.
func (r *Regions) server(k regionKey) regionKey {
	r.mu.Lock()
	defer r.mu.Unlock()
	members := r.families[k.family()]
	for _, f := range members {
		if f.key == k {
			for _, s := range members {
				if s.done == f.done && s.key != k {
					return s.key
				}
			}
		}
	}
	panic(fmt.Sprintf("no member of %+v serves it", k))
}

// TestFamilyServedRegionsAreSimulated is the differential oracle of budget
// families: every member of each family, requested in turn through one
// shared memo, must equal — cycles, runtime and engine counters, budget use
// and capacity need — the region a fresh memo simulates for it alone. A
// served member's own run must not have reached a budget in which it
// differs from its server (yada's TMCAM 64 and 32 bind, so nothing with
// more entries serves them), and which members are served is pinned.
func TestFamilyServedRegionsAreSimulated(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every family member twice")
	}
	for _, c := range familyCases {
		for si, seed := range familySeeds {
			name := fmt.Sprintf("%s/%s/t%d/seed%d", c.bench, c.platform.Short(), c.threads, seed)
			shared := NewRegions()
			var pattern strings.Builder
			for _, m := range c.members(seed) {
				before := shared.Served()
				got, err := shared.par(m, seed)
				if err != nil {
					t.Fatal(err)
				}
				want := freshRegion(t, m)
				k := m.parKey(seed)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: member %+v through the shared memo\n got %+v\nwant %+v", name, k.Policy, got, want)
				}
				if shared.Served() == before {
					pattern.WriteByte('R')
					continue
				}
				pattern.WriteByte('S')
				if have := shared.server(k); bound(want, k, have) {
					t.Errorf("%s: member (policy %+v, TMCAM %d) reached a budget it does not share with its server (policy %+v, TMCAM %d), and was served",
						name, k.Policy, k.TMCAMEntries, have.Policy, have.TMCAMEntries)
				}
			}
			if got := pattern.String(); got != c.served[si] {
				t.Errorf("%s: served %q, want %q", name, got, c.served[si])
			}
			if sim := shared.Simulated(); sim != strings.Count(c.served[si], "R") {
				t.Errorf("%s: %d regions simulated, want one per R of %q", name, sim, c.served[si])
			}
		}
	}
}

// TestFamilyServedConcurrently requests every member of a family at once,
// one goroutine each: members in flight make the others wait before they
// decide, so the memo simulates as many regions and serves the same
// answers as the serial requests of TestFamilyServedRegionsAreSimulated.
// make race runs it under the race detector.
func TestFamilyServedConcurrently(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every family member twice")
	}
	for _, c := range []familyCase{familyCases[1], familyCases[4], familyCases[7]} {
		seed := familySeeds[0]
		members := c.members(seed)
		shared := NewRegions()
		got := make([]region, len(members))
		var wg sync.WaitGroup
		for i, m := range members {
			wg.Add(1)
			go func(i int, m RunSpec) {
				defer wg.Done()
				g, err := shared.par(m, seed)
				if err != nil {
					t.Error(err)
				}
				got[i] = g
			}(i, m)
		}
		wg.Wait()
		name := fmt.Sprintf("%s/%s/t%d", c.bench, c.platform.Short(), c.threads)
		if want := strings.Count(c.served[0], "R"); shared.Simulated() != want || shared.Served() != len(members)-want {
			t.Errorf("%s: %d regions simulated and %d served concurrently, want %d and %d as in serial",
				name, shared.Simulated(), shared.Served(), want, len(members)-want)
		}
		for i, m := range members {
			if want := freshRegion(t, m); !reflect.DeepEqual(got[i], want) {
				t.Errorf("%s: member %d concurrently\n got %+v\nwant %+v", name, i, got[i], want)
			}
		}
	}
}

// TestCapacitySweepFirstLaw holds the law that makes a TMCAM budget family
// sound, along -exp capacity's rows at test scale: the capacity-abort
// percentage never rises with the TMCAM size, and from the first size with
// no capacity abort onward every row is the same run — the same speed-up,
// abort and serialization ratios.
func TestCapacitySweepFirstLaw(t *testing.T) {
	for _, bench := range []string{"intruder", "vacation-high", "yada"} {
		rec := &recordingExec{inner: NewRegions()}
		if _, err := CapacitySweep(Options{Scale: stamp.ScaleTest, Exec: rec}, bench); err != nil {
			t.Fatal(err)
		}
		var cells strings.Builder
		for _, r := range rec.results {
			fmt.Fprintf(&cells, "\n  TMCAM %4d: speedup %v abort%% %v capacity-abort%% %v serial%% %v capacity aborts %d",
				r.Spec.TMCAMEntries, r.Speedup, r.AbortRatio, r.Breakdown[htm.CategoryCapacity],
				r.SerializationRatio, capacityAborts(r.Engine))
		}
		free := -1
		for i, r := range rec.results {
			if i > 0 && r.Breakdown[htm.CategoryCapacity] > rec.results[i-1].Breakdown[htm.CategoryCapacity] {
				t.Errorf("%s: capacity-abort%% rises from TMCAM %d to %d; cells read:%s",
					bench, rec.results[i-1].Spec.TMCAMEntries, r.Spec.TMCAMEntries, cells.String())
			}
			if free < 0 {
				if capacityAborts(r.Engine) == 0 {
					free = i
				}
				continue
			}
			f := rec.results[free]
			if r.Speedup != f.Speedup || r.AbortRatio != f.AbortRatio || r.SerializationRatio != f.SerializationRatio {
				t.Errorf("%s: TMCAM %d has no capacity abort, but TMCAM %d is a different run; cells read:%s",
					bench, f.Spec.TMCAMEntries, r.Spec.TMCAMEntries, cells.String())
			}
		}
	}
}

// capacityAborts counts the engine's capacity aborts of every flavour.
func capacityAborts(s htm.Stats) uint64 {
	var n uint64
	for r, c := range s.AbortsByReason {
		if htm.Reason(r).Category() == htm.CategoryCapacity {
			n += c
		}
	}
	return n
}

// recordingExec measures through inner and keeps every result in order.
type recordingExec struct {
	inner   Exec
	results []Result
}

func (e *recordingExec) Measure(spec RunSpec, tune bool) (Result, error) {
	r, err := e.inner.Measure(spec, tune)
	e.results = append(e.results, r)
	return r, err
}
