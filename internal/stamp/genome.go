package stamp

import (
	"fmt"

	"htmcmp/internal/htm"
	"htmcmp/internal/mem"
	"htmcmp/internal/prng"
	"htmcmp/internal/txds"
)

func init() {
	register("genome", func(cfg Config) Benchmark { return newGenome(cfg) })
}

// genome is STAMP's gene sequencer. A gene string is shredded into
// overlapping segments (with duplicates); the benchmark reassembles it:
//
//	phase 1 (parallel, transactional): de-duplicate segments by inserting
//	  them into a shared hash set, CHUNK_STEP_1 segments per transaction —
//	  the compile-time parameter the paper tunes per platform (9 on Blue
//	  Gene/Q, 2 elsewhere; Section 4);
//	phase 2 (parallel, transactional): overlap matching — register each
//	  unique segment under its prefix hash, then link each segment to the
//	  segment starting with its suffix, claiming the successor with a
//	  transactional flag so every segment gets exactly one predecessor;
//	phase 3 (serial): walk the successor chain to rebuild the gene.
//
// Segments are fixed-length windows at a fixed stride, so the overlap length
// is constant and one matching round suffices (the STAMP original iterates
// overlap lengths; the transaction shapes per round are the same).
//
// Segment-record layout: [strAddr][next][linked][prefixHash][suffixHash].
type genome struct {
	cfg       Config
	geneLen   int
	segLen    int
	stride    int
	dupFactor int
	chunk     int // CHUNK_STEP_1

	gene    []byte
	segs    []mem.Addr // all segment strings (with duplicates)
	uniqSet txds.Hashtable
	starts  txds.Hashtable
	records []mem.Addr // unique segment records (built between phases)
	result  []byte     // phase-3 reconstruction
	units   int
}

const (
	segStr    = 0
	segNext   = 1
	segLinked = 2
	segPrefix = 3
	segSuffix = 4
	segWords  = 5
)

func newGenome(cfg Config) *genome {
	g := &genome{cfg: cfg, segLen: 32, stride: 8, dupFactor: 8}
	switch cfg.Scale {
	case ScaleTest:
		g.geneLen = 512
	case ScaleSim:
		g.geneLen = 2048
	default:
		g.geneLen = 8192
	}
	g.chunk = cfg.ChunkStep1
	if g.chunk <= 0 {
		if cfg.Variant == Original {
			// The untuned original batches many insertions per
			// transaction — the capacity-overflow source the paper's
			// Section 4 tuning eliminates (down to 9 on Blue Gene/Q and
			// 2 on the 8 KB-class platforms).
			g.chunk = 24
		} else {
			g.chunk = 2 // the paper's tuned value for zEC12/Intel/POWER8
		}
	}
	return g
}

func (g *genome) overlap() int { return g.segLen - g.stride }

func (g *genome) Setup(t *htm.Thread) {
	rng := prng.New(g.cfg.Seed ^ 0x67656e6f6d65) // "genome"
	letters := []byte("acgt")
	g.gene = make([]byte, g.geneLen)
	for i := range g.gene {
		g.gene[i] = letters[rng.Intn(4)]
	}
	// Shred into overlapping windows; replicate each dupFactor times and
	// shuffle, as the sequencer's input arrives unordered.
	nWin := (g.geneLen-g.segLen)/g.stride + 1
	g.segs = g.segs[:0]
	for w := 0; w < nWin; w++ {
		start := w * g.stride
		a := t.Alloc(g.segLen)
		t.Engine().Space().WriteBytes(a, g.gene[start:start+g.segLen])
		for d := 0; d < g.dupFactor; d++ {
			g.segs = append(g.segs, a)
		}
	}
	rng.Shuffle(len(g.segs), func(i, j int) { g.segs[i], g.segs[j] = g.segs[j], g.segs[i] })
	g.uniqSet = txds.NewHashtable(t, nWin*8)
	g.starts = txds.NewHashtable(t, nWin*8)
	g.records = nil
	g.result = nil
}

// contentHash hashes the whole segment (4 aligned words).
func contentHash(t *htm.Thread, str mem.Addr, segLen int) int64 {
	h := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < segLen; i += 8 {
		h = txds.Hash64(h ^ t.LoadRO64(str+uint64(i)))
	}
	return int64(h | 1) // never zero
}

// affixHash hashes o bytes starting at off (both multiples of 8).
func affixHash(t *htm.Thread, str mem.Addr, off, o int) int64 {
	h := uint64(0xc2b2ae3d27d4eb4f)
	for i := 0; i < o; i += 8 {
		h = txds.Hash64(h ^ t.LoadRO64(str+uint64(off+i)))
	}
	return int64(h | 1)
}

func (g *genome) Run(runners []Runner) {
	n := len(runners)
	bar := NewBarrier(runners)
	o := g.overlap() // 24 bytes: bytes [0,24) prefix, [stride,segLen) suffix

	runWorkers(runners, func(tid int, r Runner) {
		// The three transaction bodies are declared once per worker; each
		// reads the chunk [base, end) or the record cur the loop sets.
		var base, end int
		var cur mem.Addr
		dedup := func(t *htm.Thread) {
			for i := base; i < end; i++ {
				str := g.segs[i]
				g.uniqSet.Insert(t, contentHash(t, str, g.segLen), str)
			}
		}
		register := func(t *htm.Thread) {
			for i := base; i < end; i++ {
				rec := g.records[i]
				g.starts.Insert(t, int64(t.Load64(rec+segPrefix*8)), rec)
			}
		}
		link := func(t *htm.Thread) {
			suffix := int64(t.Load64(cur + segSuffix*8))
			cand, ok := g.starts.Get(t, suffix)
			if !ok || cand == cur {
				return
			}
			if t.Load64(cand+segLinked*8) != 0 {
				return
			}
			if t.Load64(cur+segNext*8) != mem.Nil {
				return
			}
			t.Store64(cur+segNext*8, cand)
			t.Store64(cand+segLinked*8, 1)
		}

		// --- Phase 1: transactional de-duplication, chunked.
		lo := tid * len(g.segs) / n
		hi := (tid + 1) * len(g.segs) / n
		for base = lo; base < hi; base += g.chunk {
			end = min(base+g.chunk, hi)
			r.Thread().Work(12 * (end - base)) // segment staging
			r.Atomic(dedup)
		}
		bar.Wait(r.Thread())

		// Between phases: collect unique segments into records (serial,
		// like STAMP's sequencer bookkeeping between steps).
		if tid == 0 {
			t := r.Thread()
			g.records = g.records[:0]
			g.uniqSet.Each(t, func(_ int64, str uint64) bool {
				rec := t.AllocAligned(segWords*8, 64) // malloc-realistic spacing
				t.Store64(rec+segStr*8, str)
				t.Store64(rec+segNext*8, mem.Nil)
				t.Store64(rec+segLinked*8, 0)
				t.Store64(rec+segPrefix*8, uint64(affixHash(t, str, 0, o)))
				t.Store64(rec+segSuffix*8, uint64(affixHash(t, str, g.stride, o)))
				g.records = append(g.records, rec)
				return true
			})
		}
		bar.Wait(r.Thread())

		// --- Phase 2a: register unique segments by prefix hash.
		lo = tid * len(g.records) / n
		hi = (tid + 1) * len(g.records) / n
		for base = lo; base < hi; base += g.chunk {
			end = min(base+g.chunk, hi)
			r.Atomic(register)
		}
		bar.Wait(r.Thread())

		// --- Phase 2b: link each segment to its successor, claiming it.
		for i := lo; i < hi; i++ {
			cur = g.records[i]
			r.Atomic(link)
		}
		bar.Wait(r.Thread())

		// --- Phase 3: serial chain walk rebuilding the gene.
		if tid == 0 {
			g.rebuild(r.Thread())
		}
	})
	g.units = len(g.segs)
}

// rebuild walks the successor chain from the head segment (the unique
// segment no other segment links to) and reconstructs the gene.
func (g *genome) rebuild(t *htm.Thread) {
	var head mem.Addr
	for _, rec := range g.records {
		if t.Load64(rec+segLinked*8) == 0 {
			head = rec
			break
		}
	}
	if head == mem.Nil {
		return // cycle: Validate will reject
	}
	out := make([]byte, 0, g.geneLen)
	cur := head
	for cur != mem.Nil {
		str := t.Load64(cur + segStr*8)
		if len(out) == 0 {
			out = append(out, t.Engine().Space().ReadBytes(str, g.segLen)...)
		} else {
			out = append(out, t.Engine().Space().ReadBytes(str+uint64(g.overlap()), g.stride)...)
		}
		cur = t.Load64(cur + segNext*8)
	}
	g.result = out
}

func (g *genome) Validate(t *htm.Thread) error {
	nWin := (g.geneLen-g.segLen)/g.stride + 1
	if len(g.records) != nWin {
		return fmt.Errorf("genome: %d unique segments after dedup, want %d", len(g.records), nWin)
	}
	// Every segment except the tail must be linked to a successor, and
	// every segment except the head must be claimed exactly once.
	linked := 0
	withNext := 0
	for _, rec := range g.records {
		if t.Load64(rec+segLinked*8) != 0 {
			linked++
		}
		if t.Load64(rec+segNext*8) != mem.Nil {
			withNext++
		}
	}
	if linked != nWin-1 || withNext != nWin-1 {
		return fmt.Errorf("genome: %d claimed / %d with successor, want %d of each",
			linked, withNext, nWin-1)
	}
	if string(g.result) != string(g.gene) {
		return fmt.Errorf("genome: reconstructed %d bytes != original %d-byte gene",
			len(g.result), len(g.gene))
	}
	return nil
}

func (g *genome) Units() int { return g.units }
