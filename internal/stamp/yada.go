package stamp

import (
	"fmt"
	"slices"

	"htmcmp/internal/htm"
	"htmcmp/internal/mem"
	"htmcmp/internal/prng"
	"htmcmp/internal/txds"
)

func init() {
	register("yada", func(cfg Config) Benchmark { return newYada(cfg) })
}

// yada is STAMP's Delaunay mesh refinement (Ruppert's algorithm). Each
// transaction pops a bad triangle from a shared work heap, expands a cavity
// around it (reading a neighbourhood of the mesh), retriangulates the cavity
// (killing its triangles and wiring |cavity|+2 new ones into the boundary),
// and pushes newly created bad triangles back onto the heap.
//
// Substitution note (DESIGN.md): exact circumcircle geometry is replaced by
// a synthetic mesh — triangles are records with adjacency links, per-triangle
// deterministic cavity-size targets drawn from yada's cavity-size range, and
// a generation counter standing in for element quality. What HTM observes is
// identical in shape: large mixed read/write footprints (cavity + boundary +
// new triangles), a contended work heap, and cascading work generation. The
// footprints exceed zEC12's and POWER8's store budgets, which is why only
// Blue Gene/Q scales on yada in the paper (Section 5.1).
//
// Triangle record: [alive][gen][seed][bad][nNbr][nbr_0 .. nbr_{K-1}].
type yada struct {
	cfg       Config
	nInitial  int
	nBad      int
	maxGen    int
	cavityMin int
	cavityMax int

	heap txds.Heap

	triangles []mem.Addr // all ever-created triangles (for validation)

	refinements int // bad triangles actually refined
	preempted   int // bad triangles killed by another cavity first
	spawned     int // cascade triangles created bad
}

const (
	triAlive  = 0
	triGen    = 1
	triSeed   = 2
	triBad    = 3
	triNNbr   = 4
	triNbr0   = 5
	triMaxNbr = 8
	triWords  = triNbr0 + triMaxNbr
)

func newYada(cfg Config) *yada {
	y := &yada{cfg: cfg, maxGen: 4, cavityMin: 6, cavityMax: 20}
	switch cfg.Scale {
	case ScaleTest:
		y.nInitial, y.nBad = 128, 16
	case ScaleSim:
		y.nInitial, y.nBad = 1024, 96
	default:
		y.nInitial, y.nBad = 4096, 384
	}
	return y
}

func (y *yada) newTriangle(t *htm.Thread, gen int, seed uint64) mem.Addr {
	// STAMP's element_t carries coordinates, circumcenter and quality
	// doubles — ~256 bytes per element; reproduce that footprint so the
	// per-platform store-capacity story (zEC12's 8 KB gathering store
	// cache, POWER8's 64-entry TMCAM) matches the paper's.
	tri := t.AllocAligned(triWords*8, 256)
	t.Store64(tri+triAlive*8, 1)
	t.Store64(tri+triGen*8, uint64(gen))
	t.Store64(tri+triSeed*8, seed)
	t.Store64(tri+triBad*8, 0)
	t.Store64(tri+triNNbr*8, 0)
	return tri
}

// link makes a and b mutual neighbours if both have spare slots and are not
// already linked.
func (y *yada) link(t *htm.Thread, a, b mem.Addr) {
	if a == b {
		return
	}
	na := t.Load64(a + triNNbr*8)
	nb := t.Load64(b + triNNbr*8)
	if na >= triMaxNbr || nb >= triMaxNbr {
		return
	}
	for i := uint64(0); i < na; i++ {
		if t.Load64(a+triNbr0*8+i*8) == uint64(b) {
			return
		}
	}
	t.Store64(a+triNbr0*8+na*8, uint64(b))
	t.Store64(a+triNNbr*8, na+1)
	t.Store64(b+triNbr0*8+nb*8, uint64(a))
	t.Store64(b+triNNbr*8, nb+1)
}

// unlink removes dead from alive's neighbour list.
func (y *yada) unlink(t *htm.Thread, alive, dead mem.Addr) {
	n := t.Load64(alive + triNNbr*8)
	for i := uint64(0); i < n; i++ {
		if t.Load64(alive+triNbr0*8+i*8) == uint64(dead) {
			last := t.Load64(alive + triNbr0*8 + (n-1)*8)
			t.Store64(alive+triNbr0*8+i*8, last)
			t.Store64(alive+triNNbr*8, n-1)
			return
		}
	}
}

func (y *yada) Setup(t *htm.Thread) {
	rng := prng.New(y.cfg.Seed ^ 0x79616461) // "yada"
	y.triangles = make([]mem.Addr, 0, y.nInitial*4)
	y.heap = txds.NewHeap(t, y.nBad*2)
	// Initial mesh: a ring with random chords, degree <= K.
	for i := 0; i < y.nInitial; i++ {
		tri := y.newTriangle(t, y.maxGen, rng.Uint64()) // good by default
		y.triangles = append(y.triangles, tri)
	}
	for i := 0; i < y.nInitial; i++ {
		y.link(t, y.triangles[i], y.triangles[(i+1)%y.nInitial])
	}
	for i := 0; i < y.nInitial; i++ {
		y.link(t, y.triangles[i], y.triangles[rng.Intn(y.nInitial)])
	}
	// Mark the initial bad triangles (generation 0) and queue them.
	perm := rng.Perm(y.nInitial)
	for _, pi := range perm[:y.nBad] {
		tri := y.triangles[pi]
		t.Store64(tri+triGen*8, 0)
		t.Store64(tri+triBad*8, 1)
		y.heap.Push(t, int64(rng.Intn(1<<30)), uint64(tri))
	}
	y.refinements, y.preempted, y.spawned = 0, 0, 0
}

// cavityTarget derives the deterministic cavity size for a triangle from its
// seed, within yada's observed cavity-size range.
func (y *yada) cavityTarget(seed uint64) int {
	span := y.cavityMax - y.cavityMin + 1
	return y.cavityMin + int(txds.Hash64(seed)%uint64(span))
}

func (y *yada) Run(runners []Runner) {
	runWorkers(runners, func(tid int, r Runner) {
		rng := prng.Derive(y.cfg.Seed^0x726566, tid) // "ref"
		// Per-attempt scratch, reused: the cavity, its boundary in
		// discovery order, and the new triangles (kept once committed).
		var cavity, bl, created []mem.Addr
		// Both transaction bodies, and the variables they share with the
		// loop, are declared once per worker; each resets its results on
		// every attempt.
		var tri mem.Addr
		var empty, didWork, spawnedOne bool
		var preempted int
		// Transaction 1 (STAMP: TM_BEGIN; heap_remove; TM_END): grab a bad
		// triangle. Stale entries for already-killed triangles are skipped
		// here; their chains were accounted by their killers.
		grab := func(t *htm.Thread) {
			tri, empty = 0, false
			for {
				_, v, ok := y.heap.Pop(t)
				if !ok {
					empty = true
					return
				}
				if t.Load64(mem.Addr(v)+triAlive*8) != 0 {
					tri = mem.Addr(v)
					return
				}
			}
		}
		// Transaction 2: the refinement itself.
		refine := func(t *htm.Thread) {
			created = created[:0]
			didWork, preempted, spawnedOne = false, 0, false
			if t.Load64(tri+triAlive*8) == 0 {
				// Killed by a neighbouring cavity between the two
				// transactions; its killer counted the preemption.
				return
			}
			didWork = true
			gen := int(t.Load64(tri + triGen*8))
			seed := t.Load64(tri + triSeed*8)

			// Cavity expansion: BFS over alive neighbours.
			target := y.cavityTarget(seed)
			cavity = append(cavity[:0], tri)
			for qi := 0; qi < len(cavity) && len(cavity) < target; qi++ {
				cur := cavity[qi]
				n := t.Load64(cur + triNNbr*8)
				for i := uint64(0); i < n && len(cavity) < target; i++ {
					nb := mem.Addr(t.Load64(cur + triNbr0*8 + i*8))
					if slices.Contains(cavity, nb) || t.Load64(nb+triAlive*8) == 0 {
						continue
					}
					cavity = append(cavity, nb)
				}
			}

			// Boundary: alive neighbours of cavity members outside it,
			// in deterministic discovery order. Both lists are short
			// (at most cavityMax triangles and their neighbours), so
			// membership is a scan.
			bl = bl[:0]
			for _, c := range cavity {
				n := t.Load64(c + triNNbr*8)
				for i := uint64(0); i < n; i++ {
					nb := mem.Addr(t.Load64(c + triNbr0*8 + i*8))
					if !slices.Contains(cavity, nb) && !slices.Contains(bl, nb) && t.Load64(nb+triAlive*8) != 0 {
						bl = append(bl, nb)
					}
				}
			}

			// Kill the cavity; pending bad members die unrefined.
			for _, c := range cavity {
				if c != tri && t.Load64(c+triBad*8) != 0 {
					preempted++
				}
				t.Store64(c+triAlive*8, 0)
			}
			for _, b := range bl {
				for _, c := range cavity {
					y.unlink(t, b, c)
				}
			}

			// Retriangulate: |cavity|+2 new triangles in a ring, wired
			// round-robin into the boundary.
			nNew := len(cavity) + 2
			for i := 0; i < nNew; i++ {
				created = append(created, y.newTriangle(t, gen+1, seed^uint64(i+1)*0x9e3779b97f4a7c15))
			}
			newTris := created
			for i := range newTris {
				y.link(t, newTris[i], newTris[(i+1)%nNew])
			}
			for i, b := range bl {
				y.link(t, newTris[i%nNew], b)
			}
			// Cascade: one new bad triangle per refinement until the
			// generation bound.
			if gen+1 < y.maxGen {
				t.Store64(newTris[0]+triBad*8, 1)
				y.heap.Push(t, int64(rng.Intn(1<<30)), uint64(newTris[0]))
				spawnedOne = true
			}
		}
		for {
			r.Atomic(grab)
			if empty {
				return
			}
			r.Atomic(refine)
			if !didWork {
				continue // raced with a cavity kill: take the next item
			}
			r.Thread().Work(150) // geometry arithmetic of one refinement
			y.triangles = append(y.triangles, created...)
			y.refinements++
			y.preempted += preempted
			if spawnedOne {
				y.spawned++
			}
		}
	})
}

func (y *yada) Validate(t *htm.Thread) error {
	if n := y.heap.Len(t); n != 0 {
		return fmt.Errorf("yada: work heap not drained (%d left)", n)
	}
	// Work accounting: every bad triangle (initial or cascade-spawned) is
	// either refined or preempted by a neighbouring cavity.
	if y.refinements+y.preempted != y.nBad+y.spawned {
		return fmt.Errorf("yada: refined %d + preempted %d != initial %d + spawned %d",
			y.refinements, y.preempted, y.nBad, y.spawned)
	}
	if y.refinements < 1 {
		return fmt.Errorf("yada: no refinements performed")
	}
	alive := 0
	for _, tri := range y.triangles {
		if t.Load64(tri+triAlive*8) == 0 {
			continue
		}
		alive++
		n := t.Load64(tri + triNNbr*8)
		if n > triMaxNbr {
			return fmt.Errorf("yada: triangle with %d neighbours", n)
		}
		for i := uint64(0); i < n; i++ {
			nb := mem.Addr(t.Load64(tri + triNbr0*8 + i*8))
			if t.Load64(nb+triAlive*8) == 0 {
				return fmt.Errorf("yada: alive triangle links to dead neighbour")
			}
			m := t.Load64(nb + triNNbr*8)
			found := false
			for j := uint64(0); j < m; j++ {
				if mem.Addr(t.Load64(nb+triNbr0*8+j*8)) == tri {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("yada: asymmetric adjacency")
			}
		}
		// No alive bad triangle may remain: all work was drained.
		if t.Load64(tri+triBad*8) != 0 {
			return fmt.Errorf("yada: alive bad triangle left behind")
		}
	}
	if alive == 0 {
		return fmt.Errorf("yada: no alive triangles")
	}
	return nil
}

func (y *yada) Units() int { return y.refinements }

// UnitsDynamic marks yada's work count as interleaving-dependent: refining
// one cavity can spawn new bad triangles, and whether a neighbouring cavity
// preempts a queued triangle depends on processing order. Validate checks
// the order-independent invariant (refined + preempted = initial + spawned,
// heap drained, mesh consistent) instead.
func (y *yada) UnitsDynamic() bool { return true }
