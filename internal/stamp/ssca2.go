package stamp

import (
	"fmt"

	"htmcmp/internal/htm"
	"htmcmp/internal/mem"
	"htmcmp/internal/prng"
)

func init() {
	register("ssca2", func(cfg Config) Benchmark { return newSSCA2(cfg) })
}

// ssca2 is STAMP's port of the SSCA2 graph-analysis kernels. The
// transactional region of interest is kernel 1, graph construction: threads
// partition a pre-generated edge list and insert each edge into per-vertex
// adjacency arrays. Each insertion is a tiny transaction (read the vertex's
// fill index, bump it, write the slot) — the many-short-transactions profile
// that exhausts Blue Gene/Q's speculation-ID pool in the paper (Sections 5.1
// and 5.3).
//
// Memory layout per vertex: [count][slot_0 … slot_{maxDeg-1}] in one record;
// the edge list itself is read-only input.
type ssca2 struct {
	cfg       Config
	nVertices int
	nEdges    int
	maxDeg    int

	edgesU, edgesV []int // read-only edge endpoints (Go mirror of input)

	vtx []mem.Addr // per-vertex adjacency record

	units int
}

func newSSCA2(cfg Config) *ssca2 {
	s := &ssca2{cfg: cfg}
	switch cfg.Scale {
	case ScaleTest:
		s.nVertices, s.nEdges = 128, 512
	case ScaleSim:
		s.nVertices, s.nEdges = 1024, 8192
	default:
		s.nVertices, s.nEdges = 4096, 32768
	}
	return s
}

func (s *ssca2) Setup(t *htm.Thread) {
	rng := prng.New(s.cfg.Seed ^ 0x7373636132) // "ssca2"
	// R-MAT-ish skew: a quarter of the endpoints land in a small hot set,
	// approximating SSCA2's clustered graphs.
	pick := func() int {
		if rng.Bernoulli(0.25) {
			return rng.Intn(s.nVertices / 16)
		}
		return rng.Intn(s.nVertices)
	}
	s.edgesU = make([]int, s.nEdges)
	s.edgesV = make([]int, s.nEdges)
	deg := make([]int, s.nVertices)
	for i := 0; i < s.nEdges; i++ {
		u, v := pick(), pick()
		s.edgesU[i], s.edgesV[i] = u, v
		deg[u]++
	}
	s.maxDeg = 8
	for _, d := range deg {
		if d+1 > s.maxDeg {
			s.maxDeg = d + 1
		}
	}
	s.vtx = make([]mem.Addr, s.nVertices)
	for v := 0; v < s.nVertices; v++ {
		s.vtx[v] = t.Alloc((1 + s.maxDeg) * 8)
	}
}

func (s *ssca2) Run(runners []Runner) {
	n := len(runners)
	runWorkers(runners, func(tid int, r Runner) {
		lo := tid * s.nEdges / n
		hi := (tid + 1) * s.nEdges / n
		// The body is declared once per worker; each edge sets the
		// adjacency record and endpoint it appends.
		var rec mem.Addr
		var v int
		insert := func(t *htm.Thread) {
			cnt := t.Load64(rec)
			t.Store64(rec+8+cnt*8, uint64(v)+1)
			t.Store64(rec, cnt+1)
		}
		for i := lo; i < hi; i++ {
			rec, v = s.vtx[s.edgesU[i]], s.edgesV[i]
			r.Thread().Work(260) // R-MAT edge generation and permutation arithmetic
			r.Atomic(insert)
		}
	})
	s.units = s.nEdges
}

func (s *ssca2) Validate(t *htm.Thread) error {
	want := make([]int, s.nVertices)
	for i := 0; i < s.nEdges; i++ {
		want[s.edgesU[i]]++
	}
	total := 0
	for v := 0; v < s.nVertices; v++ {
		cnt := int(t.Load64(s.vtx[v]))
		if cnt != want[v] {
			return fmt.Errorf("ssca2: vertex %d degree %d, want %d (lost insertions)", v, cnt, want[v])
		}
		for j := 0; j < cnt; j++ {
			e := t.Load64(s.vtx[v] + 8 + uint64(j)*8)
			if e == 0 || int(e-1) >= s.nVertices {
				return fmt.Errorf("ssca2: vertex %d slot %d holds invalid endpoint %d", v, j, e)
			}
		}
		total += cnt
	}
	if total != s.nEdges {
		return fmt.Errorf("ssca2: %d edges inserted, want %d", total, s.nEdges)
	}
	return nil
}

func (s *ssca2) Units() int { return s.units }
