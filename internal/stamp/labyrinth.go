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
	register("labyrinth", func(cfg Config) Benchmark { return newLabyrinth(cfg) })
}

// labyrinth is STAMP's maze router (Lee's algorithm). Each transaction pops
// a (source, destination) work item, breadth-first-searches the shared grid
// for a shortest free path — reading every visited cell transactionally,
// the analogue of STAMP's in-transaction grid copy and the source of the
// multi-kilobyte read sets — and then claims the path cells with
// transactional stores.
//
// The footprint is why labyrinth barely scales anywhere in the paper's
// Figure 5: the BFS read set approaches the whole grid (larger than
// POWER8's 8 KB capacity), concurrent routes conflict on almost any write,
// and the path writes press on zEC12's 8 KB store cache.
//
// Grid layout: one word per cell; 0 = free, -1 = wall, k>0 = route k.
type labyrinth struct {
	cfg     Config
	w, h, d int
	nRoutes int

	grid  mem.Addr
	works txds.Queue
	paths [][]int // successful routes' cell indices (by route id)
	fails int

	units int
}

const (
	wallCell     = ^uint64(0)     // -1: obstacle
	reservedCell = ^uint64(0) - 1 // endpoint of a not-yet-routed work item
)

func newLabyrinth(cfg Config) *labyrinth {
	l := &labyrinth{cfg: cfg}
	switch cfg.Scale {
	case ScaleTest:
		l.w, l.h, l.d, l.nRoutes = 16, 16, 2, 8
	case ScaleSim:
		l.w, l.h, l.d, l.nRoutes = 32, 32, 3, 48
	default:
		l.w, l.h, l.d, l.nRoutes = 64, 64, 3, 128
	}
	return l
}

func (l *labyrinth) cells() int { return l.w * l.h * l.d }

func (l *labyrinth) cellAddr(i int) mem.Addr { return l.grid + uint64(i)*8 }

func (l *labyrinth) Setup(t *htm.Thread) {
	rng := prng.New(l.cfg.Seed ^ 0x6c616279) // "laby"
	n := l.cells()
	l.grid = t.Alloc(n * 8)
	// 5% walls.
	for i := 0; i < n; i++ {
		if rng.Bernoulli(0.05) {
			t.Engine().Space().Store64(l.cellAddr(i), wallCell)
		}
	}
	// Work items: distinct random free endpoints, packed src<<32|dst.
	l.works = txds.NewQueue(t, l.nRoutes+1)
	used := map[int]bool{}
	freeCell := func() int {
		for {
			i := rng.Intn(n)
			if !used[i] && t.Engine().Space().Load64(l.cellAddr(i)) == 0 {
				used[i] = true
				return i
			}
		}
	}
	for r := 0; r < l.nRoutes; r++ {
		src, dst := freeCell(), freeCell()
		// Endpoints are reserved up front, as STAMP pre-marks all work-item
		// points: no route may pass through another route's terminals.
		t.Engine().Space().Store64(l.cellAddr(src), reservedCell)
		t.Engine().Space().Store64(l.cellAddr(dst), reservedCell)
		l.works.Push(t, uint64(src)<<32|uint64(dst))
	}
	l.paths = make([][]int, l.nRoutes+1)
	l.fails = 0
}

// neighbors appends the 6-connected neighbours of cell i to out.
func (l *labyrinth) neighbors(i int, out []int) []int {
	x := i % l.w
	y := (i / l.w) % l.h
	z := i / (l.w * l.h)
	if x > 0 {
		out = append(out, i-1)
	}
	if x < l.w-1 {
		out = append(out, i+1)
	}
	if y > 0 {
		out = append(out, i-l.w)
	}
	if y < l.h-1 {
		out = append(out, i+l.w)
	}
	if z > 0 {
		out = append(out, i-l.w*l.h)
	}
	if z < l.d-1 {
		out = append(out, i+l.w*l.h)
	}
	return out
}

// router is one thread's scratch for route, sized to the grid once. A
// cell's prev entry is meaningful only while seen holds the cell, so an
// attempt starts with an epoch bump instead of clearing the grid.
type router struct {
	seen  visited
	prev  []int32
	queue []int
	path  []int
}

func (l *labyrinth) newRouter() *router {
	n := l.cells()
	return &router{seen: newVisited(n), prev: make([]int32, n), queue: make([]int, 0, n)}
}

// route BFSes from src to dst over free cells, reading the grid
// transactionally, and returns the path (src..dst) or nil. The path lives
// in rt and is overwritten by its next call.
func (l *labyrinth) route(t *htm.Thread, rt *router, src, dst int) []int {
	rt.seen.reset()
	rt.seen.add(src)
	rt.queue = append(rt.queue[:0], src)
	var nbuf [6]int
	for qi := 0; qi < len(rt.queue); qi++ {
		cur := rt.queue[qi]
		if cur == dst {
			// Reconstruct.
			path := rt.path[:0]
			for c := dst; ; c = int(rt.prev[c]) {
				path = append(path, c)
				if c == src {
					break
				}
			}
			slices.Reverse(path) // src..dst order
			rt.path = path
			return path
		}
		for _, nb := range l.neighbors(cur, nbuf[:0]) {
			if rt.seen.has(nb) {
				continue
			}
			v := t.Load64(l.cellAddr(nb)) // transactional grid read
			if v != 0 && nb != dst {      // own terminals are passable
				continue
			}
			rt.seen.add(nb)
			rt.prev[nb] = int32(cur)
			rt.queue = append(rt.queue, nb)
		}
	}
	return nil
}

func (l *labyrinth) Run(runners []Runner) {
	nextID := 1
	runWorkers(runners, func(tid int, r Runner) {
		rt := l.newRouter()
		// Both transaction bodies, and the variables they share with the
		// loop, are declared once per worker.
		var work uint64
		var ok bool
		var src, dst, myID int
		var path []int
		pop := func(t *htm.Thread) {
			work, ok = l.works.Pop(t)
		}
		lay := func(t *htm.Thread) {
			path = l.route(t, rt, src, dst)
			for _, c := range path {
				t.Store64(l.cellAddr(c), uint64(myID))
			}
		}
		for {
			r.Atomic(pop)
			if !ok {
				return
			}
			src = int(work >> 32)
			dst = int(work & 0xffffffff)
			r.Thread().Work(100) // router bookkeeping per work item
			myID = nextID
			nextID++
			r.Atomic(lay)
			if path == nil {
				l.fails++
			} else {
				l.paths[myID] = slices.Clone(path)
			}
		}
	})
	l.units = l.nRoutes
}

func (l *labyrinth) Validate(t *htm.Thread) error {
	succ := 0
	for id, path := range l.paths {
		if path == nil {
			continue
		}
		succ++
		for pi, c := range path {
			if got := t.Load64(l.cellAddr(c)); got != uint64(id) {
				return fmt.Errorf("labyrinth: route %d cell %d holds %d", id, c, got)
			}
			if pi > 0 {
				if !adjacent(l, path[pi-1], c) {
					return fmt.Errorf("labyrinth: route %d not connected at step %d", id, pi)
				}
			}
		}
	}
	if succ+l.fails != l.nRoutes {
		return fmt.Errorf("labyrinth: %d successes + %d fails != %d routes", succ, l.fails, l.nRoutes)
	}
	if succ == 0 {
		return fmt.Errorf("labyrinth: no route succeeded")
	}
	// No cell may carry a route id that has no path (aborted writes leaked),
	// and only failed routes may leave reserved terminals behind.
	n := l.cells()
	reserved := 0
	for i := 0; i < n; i++ {
		v := t.Load64(l.cellAddr(i))
		if v == 0 || v == wallCell {
			continue
		}
		if v == reservedCell {
			reserved++
			continue
		}
		if int(v) >= len(l.paths) || l.paths[v] == nil {
			return fmt.Errorf("labyrinth: cell %d claimed by unknown route %d", i, v)
		}
	}
	if reserved != 2*l.fails {
		return fmt.Errorf("labyrinth: %d reserved terminals left, want %d (2 per failed route)", reserved, 2*l.fails)
	}
	return nil
}

func adjacent(l *labyrinth, a, b int) bool {
	var buf [6]int
	for _, nb := range l.neighbors(a, buf[:0]) {
		if nb == b {
			return true
		}
	}
	return false
}

func (l *labyrinth) Units() int { return l.units }
