package stamp

import (
	"fmt"

	"htmcmp/internal/htm"
	"htmcmp/internal/mem"
	"htmcmp/internal/prng"
	"htmcmp/internal/txds"
)

func init() {
	register("bayes", func(cfg Config) Benchmark { return newBayes(cfg) })
}

// bayes is STAMP's Bayesian-network structure learner: hill climbing over
// candidate edge insertions, where each transaction pops the best pending
// task, checks that the edge keeps the network acyclic (a graph search whose
// read set grows with the reachable region), applies it, and enqueues a
// follow-up candidate.
//
// Substitution note (DESIGN.md): the exact ADTree likelihood scoring is
// replaced by a deterministic pseudo-score (a hash of the edge), preserving
// the transaction shape — a contended task heap, long read-mostly acyclicity
// walks, and small writes. Like the original, the final network depends on
// interleaving; the paper excludes bayes from averages for exactly this
// non-determinism (Section 5.1), and Validate checks structural invariants
// only (acyclicity, degree caps, task accounting).
//
// Per-variable record: [nChildren][child_0 .. child_{cap-1}][nParents].
type bayes struct {
	cfg       Config
	nVars     int
	maxRounds int
	childCap  int
	maxParent int

	vars  []mem.Addr
	tasks txds.Heap

	processed int
	inserted  int
}

func newBayes(cfg Config) *bayes {
	b := &bayes{cfg: cfg, childCap: 8, maxParent: 4}
	switch cfg.Scale {
	case ScaleTest:
		b.nVars, b.maxRounds = 32, 4
	case ScaleSim:
		b.nVars, b.maxRounds = 256, 6
	default:
		b.nVars, b.maxRounds = 1024, 8
	}
	return b
}

func (b *bayes) varAddr(v int) mem.Addr { return b.vars[v] }

func (b *bayes) Setup(t *htm.Thread) {
	rng := prng.New(b.cfg.Seed ^ 0x6261796573) // "bayes"
	b.vars = make([]mem.Addr, b.nVars)
	for v := range b.vars {
		b.vars[v] = t.Alloc((2 + b.childCap) * 8)
	}
	b.tasks = txds.NewHeap(t, b.nVars*2)
	for v := 0; v < b.nVars; v++ {
		u := rng.Intn(b.nVars)
		b.tasks.Push(t, b.score(u, v, 0), packTask(u, v, 0))
	}
	b.processed, b.inserted = 0, 0
}

// score is the deterministic pseudo log-likelihood gain of edge u→v.
func (b *bayes) score(u, v, gen int) int64 {
	return int64(txds.Hash64(uint64(u)<<40|uint64(v)<<16|uint64(gen)) >> 34)
}

func packTask(u, v, gen int) uint64 {
	return uint64(u)<<32 | uint64(v)<<16 | uint64(gen)
}

func unpackTask(x uint64) (u, v, gen int) {
	return int(x >> 32), int(x >> 16 & 0xffff), int(x & 0xffff)
}

// walk is one thread's scratch for reaches: the visited set and the DFS
// stack, reused by every walk the thread makes.
type walk struct {
	seen  visited
	stack []int
}

func (b *bayes) newWalk() *walk { return &walk{seen: newVisited(b.nVars)} }

// reaches reports whether dst is reachable from src via child links,
// reading the traversed adjacency transactionally.
func (b *bayes) reaches(t *htm.Thread, w *walk, src, dst int) bool {
	if src == dst {
		return true
	}
	w.seen.reset()
	w.seen.add(src)
	w.stack = append(w.stack[:0], src)
	for len(w.stack) > 0 {
		cur := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		rec := b.varAddr(cur)
		n := t.Load64(rec)
		for i := uint64(0); i < n; i++ {
			c := int(t.Load64(rec + 8 + i*8))
			if c == dst {
				return true
			}
			if !w.seen.has(c) {
				w.seen.add(c)
				w.stack = append(w.stack, c)
			}
		}
	}
	return false
}

func (b *bayes) Run(runners []Runner) {
	runWorkers(runners, func(tid int, r Runner) {
		w := b.newWalk()
		// Both transaction bodies, and the variables they share with the
		// loop, are declared once per worker.
		var task uint64
		var have, didInsert bool
		// Transaction 1: pop the best pending task.
		pop := func(t *htm.Thread) {
			_, task, have = b.tasks.Pop(t)
		}
		// Transaction 2: validate and apply the edge insertion.
		insert := func(t *htm.Thread) {
			didInsert = false
			u, v, gen := unpackTask(task)

			uRec := b.varAddr(u)
			vRec := b.varAddr(v)
			nChildren := t.Load64(uRec)
			nParents := t.Load64(vRec + 8 + uint64(b.childCap)*8)
			if u != v &&
				nChildren < uint64(b.childCap) &&
				nParents < uint64(b.maxParent) &&
				!b.hasChild(t, u, v) &&
				!b.reaches(t, w, v, u) { // would close a cycle
				t.Store64(uRec+8+nChildren*8, uint64(v))
				t.Store64(uRec, nChildren+1)
				t.Store64(vRec+8+uint64(b.childCap)*8, nParents+1)
				didInsert = true
			}
			// Hill climbing: propose the next candidate for this chain.
			if gen+1 < b.maxRounds {
				nu := int(txds.Hash64(task^0x5bd1e995) % uint64(b.nVars))
				nv := int(txds.Hash64(task^0xdeadbeef) % uint64(b.nVars))
				b.tasks.Push(t, b.score(nu, nv, gen+1), packTask(nu, nv, gen+1))
			}
		}
		for {
			r.Atomic(pop)
			if !have {
				return
			}
			r.Atomic(insert)
			r.Thread().Work(80) // score evaluation arithmetic
			b.processed++
			if didInsert {
				b.inserted++
			}
		}
	})
}

func (b *bayes) hasChild(t *htm.Thread, u, v int) bool {
	rec := b.varAddr(u)
	n := t.Load64(rec)
	for i := uint64(0); i < n; i++ {
		if int(t.Load64(rec+8+i*8)) == v {
			return true
		}
	}
	return false
}

func (b *bayes) Validate(t *htm.Thread) error {
	if n := b.tasks.Len(t); n != 0 {
		return fmt.Errorf("bayes: task heap not drained (%d left)", n)
	}
	if want := b.nVars * b.maxRounds; b.processed != want {
		return fmt.Errorf("bayes: processed %d tasks, want %d", b.processed, want)
	}
	// The learned network must be a DAG: Kahn's algorithm must consume all
	// edges.
	indeg := make([]int, b.nVars)
	edges := 0
	for u := 0; u < b.nVars; u++ {
		rec := b.varAddr(u)
		n := int(t.Load64(rec))
		if n > b.childCap {
			return fmt.Errorf("bayes: var %d has %d children (cap %d)", u, n, b.childCap)
		}
		for i := 0; i < n; i++ {
			v := int(t.Load64(rec + 8 + uint64(i)*8))
			indeg[v]++
			edges++
		}
	}
	if edges != b.inserted {
		return fmt.Errorf("bayes: %d edges in graph, %d recorded inserts", edges, b.inserted)
	}
	// Parent counters must match in-degrees.
	for v := 0; v < b.nVars; v++ {
		np := int(t.Load64(b.varAddr(v) + 8 + uint64(b.childCap)*8))
		if np != indeg[v] {
			return fmt.Errorf("bayes: var %d parent counter %d != in-degree %d", v, np, indeg[v])
		}
		if np > b.maxParent {
			return fmt.Errorf("bayes: var %d has %d parents (max %d)", v, np, b.maxParent)
		}
	}
	queue := []int{}
	for v := 0; v < b.nVars; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	removed := 0
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		removed++
		rec := b.varAddr(u)
		n := int(t.Load64(rec))
		for i := 0; i < n; i++ {
			v := int(t.Load64(rec + 8 + uint64(i)*8))
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if removed != b.nVars {
		return fmt.Errorf("bayes: graph has a cycle (%d of %d vars topologically sorted)", removed, b.nVars)
	}
	return nil
}

func (b *bayes) Units() int { return b.processed }
