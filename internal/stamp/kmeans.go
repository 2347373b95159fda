package stamp

import (
	"fmt"
	"math"

	"htmcmp/internal/htm"
	"htmcmp/internal/mem"
	"htmcmp/internal/prng"
)

func init() {
	register("kmeans-high", func(cfg Config) Benchmark { return newKMeans(cfg, true) })
	register("kmeans-low", func(cfg Config) Benchmark { return newKMeans(cfg, false) })
}

// kmeans is STAMP's K-means clustering. Each thread assigns a chunk of
// points to their nearest center and transactionally accumulates the point
// into the chosen cluster's record (a length counter plus per-feature sums);
// between iterations the main thread recomputes the centers.
//
// High contention = few clusters (STAMP's -m15), low = many (-m40): fewer
// clusters mean more threads updating the same record concurrently.
//
// The paper's Section 4 fix: the original collocates each cluster record
// contiguously with padding between records, but the records are not
// aligned to cache-line boundaries, so two clusters can share a line and
// conflict falsely; the modified variant aligns every record. Both layouts
// are implemented here. Intel's adjacent-line prefetch makes even aligned
// neighbouring records conflict (Section 5.1) — records are allocated
// adjacently so the engine's prefetch model can reproduce that.
type kmeans struct {
	cfg       Config
	nPoints   int
	nFeatures int
	nClusters int
	nIters    int

	// points live in simulated memory (set up once, read-only afterwards)
	// and are mirrored in Go for the distance arithmetic.
	pointsAddr mem.Addr
	points     []float64 // nPoints × nFeatures mirror

	// accum[c] is the simulated address of cluster c's accumulator record:
	// [count][sum_0 … sum_{F-1}].
	accum []mem.Addr

	// centers are recomputed by the coordinator between iterations and are
	// read-only during the parallel phase.
	centers []float64 // nClusters × nFeatures

	units int
}

func newKMeans(cfg Config, high bool) *kmeans {
	k := &kmeans{cfg: cfg}
	switch cfg.Scale {
	case ScaleTest:
		k.nPoints, k.nFeatures, k.nIters = 256, 4, 3
	case ScaleSim:
		k.nPoints, k.nFeatures, k.nIters = 2048, 8, 5
	default:
		k.nPoints, k.nFeatures, k.nIters = 8192, 16, 6
	}
	// STAMP: high contention -m15, low contention -m40.
	if high {
		k.nClusters = 15
	} else {
		k.nClusters = 40
	}
	return k
}

func (k *kmeans) recordBytes() int { return (1 + k.nFeatures) * 8 }

func (k *kmeans) Setup(t *htm.Thread) {
	rng := prng.New(k.cfg.Seed ^ 0x6b6d65616e73) // "kmeans"
	e := t.Engine()
	line := e.LineSize()

	// Points.
	k.points = make([]float64, k.nPoints*k.nFeatures)
	k.pointsAddr = t.Alloc(k.nPoints * k.nFeatures * 8)
	for i := range k.points {
		v := rng.Float64()
		k.points[i] = v
		t.Engine().Space().StoreFloat64(k.pointsAddr+uint64(i*8), v)
	}

	// Cluster accumulator records.
	k.accum = make([]mem.Addr, k.nClusters)
	rec := k.recordBytes()
	if k.cfg.Variant == Original {
		// Original layout: contiguous block, records padded to the line
		// size but deliberately offset so records straddle line
		// boundaries — two clusters can share a line (Section 4).
		stride := ((rec + line - 1) / line) * line
		blk := t.AllocAligned(k.nClusters*stride+line, line)
		misalign := uint64(line / 2)
		for c := 0; c < k.nClusters; c++ {
			k.accum[c] = blk + uint64(c*stride) + misalign
		}
	} else {
		// Modified layout: every record starts on its own line boundary.
		// Records are still adjacent in memory (successive lines), which
		// is what exposes Intel's prefetcher effect.
		stride := ((rec + line - 1) / line) * line
		blk := t.AllocAligned(k.nClusters*stride, line)
		for c := 0; c < k.nClusters; c++ {
			k.accum[c] = blk + uint64(c*stride)
		}
	}

	// Initial centers: the first nClusters points.
	k.centers = make([]float64, k.nClusters*k.nFeatures)
	copy(k.centers, k.points[:k.nClusters*k.nFeatures])
}

func (k *kmeans) nearest(p int) int {
	best, bestD := 0, math.MaxFloat64
	po := p * k.nFeatures
	for c := 0; c < k.nClusters; c++ {
		co := c * k.nFeatures
		d := 0.0
		for f := 0; f < k.nFeatures; f++ {
			diff := k.points[po+f] - k.centers[co+f]
			d += diff * diff
		}
		if d < bestD {
			bestD, best = d, c
		}
	}
	return best
}

func (k *kmeans) Run(runners []Runner) {
	n := len(runners)
	bar := NewBarrier(runners)
	runWorkers(runners, func(tid int, r Runner) {
		lo := tid * k.nPoints / n
		hi := (tid + 1) * k.nPoints / n
		// The body is declared once per worker; each point sets the
		// accumulator and feature offset it adds.
		var rec mem.Addr
		var po int
		add := func(t *htm.Thread) {
			t.Store64(rec, t.Load64(rec)+1)
			for f := 0; f < k.nFeatures; f++ {
				a := rec + uint64((1+f)*8)
				t.StoreFloat64(a, t.LoadFloat64(a)+k.points[po+f])
			}
		}
		for iter := 0; iter < k.nIters; iter++ {
			for p := lo; p < hi; p++ {
				r.Thread().Work(3 * k.nClusters * k.nFeatures) // distance arithmetic (sub, mul, add per feature)
				rec, po = k.accum[k.nearest(p)], p*k.nFeatures
				r.Atomic(add)
			}
			bar.Wait(r.Thread())
			if tid == 0 {
				k.recompute(r.Thread(), iter == k.nIters-1)
			}
			bar.Wait(r.Thread())
		}
	})
	k.units = k.nPoints * k.nIters
}

// recompute derives new centers from the accumulators and clears them for
// the next iteration (the final iteration's accumulators are kept for
// Validate).
func (k *kmeans) recompute(t *htm.Thread, last bool) {
	for c := 0; c < k.nClusters; c++ {
		rec := k.accum[c]
		cnt := t.Load64(rec)
		if cnt > 0 {
			for f := 0; f < k.nFeatures; f++ {
				k.centers[c*k.nFeatures+f] = t.LoadFloat64(rec+uint64((1+f)*8)) / float64(cnt)
			}
		}
		if !last {
			t.Store64(rec, 0)
			for f := 0; f < k.nFeatures; f++ {
				t.StoreFloat64(rec+uint64((1+f)*8), 0)
			}
		}
	}
}

func (k *kmeans) Validate(t *htm.Thread) error {
	var total uint64
	for c := 0; c < k.nClusters; c++ {
		cnt := t.Load64(k.accum[c])
		total += cnt
		for f := 0; f < k.nFeatures; f++ {
			v := t.LoadFloat64(k.accum[c] + uint64((1+f)*8))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("kmeans: cluster %d feature %d is %v", c, f, v)
			}
			if v < 0 || v > float64(cnt)+1e-6 {
				return fmt.Errorf("kmeans: cluster %d feature-sum %v outside [0,count=%d]", c, v, cnt)
			}
		}
	}
	if total != uint64(k.nPoints) {
		return fmt.Errorf("kmeans: final assignment counts %d points, want %d (lost updates)", total, k.nPoints)
	}
	return nil
}

func (k *kmeans) Units() int { return k.units }
