package htm

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"htmcmp/internal/mem"
	"htmcmp/internal/platform"
)

// The pool contract under test: an engine built on recycled memory — line
// table never wiped, arena Reset — behaves exactly like one built on fresh
// memory, whatever the previous tenant left behind.

// lifecycleRow is everything a run publishes.
type lifecycleRow struct {
	MaxClock uint64
	Stats    Stats
	Sum      uint64 // of every counter the workload bumped
}

// lifecycleConfig is a contended run at the calibrated costs, or an
// uncontended cost-free one.
func lifecycleConfig(threads int, contended bool) Config {
	cfg := Config{Threads: threads, SpaceSize: 1 << 20, Seed: 7}
	if contended {
		cfg.CostScale = 1
	}
	return cfg
}

// lifecycleRun drives e through a small read-modify-write workload and
// releases it. Every thread bumps counters on private lines, spaced so
// Intel's prefetcher cannot reach a neighbour's; in a contended run
// (CostScale != 0) they also fight over eight shared lines, so the row
// depends on every conflict decision the line table makes.
func lifecycleRun(e *Engine) lifecycleRow {
	const perThread, privLines, sharedLines = 200, 16, 8
	n, line := len(e.threads), e.LineSize()
	contended := e.cfg.CostScale != 0
	t0 := e.Thread(0)
	shared := t0.AllocAligned(sharedLines*line, line)
	priv := make([]mem.Addr, n)
	for i := range priv {
		priv[i] = t0.AllocAligned((privLines+4)*line, line)
	}
	e.Run(n, func(tid int, th *Thread) {
		for j := 0; j < perThread; j++ {
			p := priv[tid] + uint64(j%privLines*line)
			s := shared + uint64((j*7+tid*3)%sharedLines*line)
			for try := 1; ; try++ {
				ok, _ := th.TryTx(TxNormal, func() {
					th.Store64(p, th.Load64(p)+1)
					if contended {
						th.Store64(s, th.Load64(s)+1)
					}
				})
				if ok {
					break
				}
				th.Pause(10 * try)
			}
		}
	})
	row := lifecycleRow{MaxClock: e.MaxClock(), Stats: e.Stats()}
	for l := 0; l < sharedLines; l++ {
		row.Sum += t0.Load64(shared + uint64(l*line))
	}
	for _, base := range priv {
		for l := 0; l < privLines; l++ {
			row.Sum += t0.Load64(base + uint64(l*line))
		}
	}
	e.Release()
	return row
}

// freshEngine returns an engine whose line table came from make, not from
// the pool (each miss drains one pooled table of that size, so the loop is
// short).
func freshEngine(t *testing.T, spec *platform.Spec, cfg Config) *Engine {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if e := New(spec, cfg); e.table.epoch == 1 {
			return e
		}
	}
	t.Fatal("the line-table pool never ran dry")
	return nil
}

// abandon runs an eight-thread engine on spec whose threads
// all stop mid-transaction — reader bits and writers left set over the first
// 2048 lines, nothing rolled back — and returns it un-Released.
func abandon(spec *platform.Spec) *Engine {
	a := New(spec, Config{
		Threads: 8, SpaceSize: 1 << 20, Seed: 3,
		UnboundedCapacity: true, DisablePrefetch: true, DisableCacheFetchAborts: true,
	})
	for l := 1; l <= 2048; l++ {
		th := a.Thread(l % 8)
		if !th.inTx {
			th.begin(TxNormal)
		}
		addr := uint64(l * a.LineSize())
		if l/8%2 == 0 {
			th.Store64(addr, ^uint64(0))
		} else {
			th.Load64(addr)
		}
	}
	return a
}

// recycledEngine returns an engine on spec running on the very table a
// dirty tenant just released. tamper, when non-nil, edits that table between
// the tenant's last access and its Release. sync.Pool may drop a Put (under
// -race it does so at random), hence the retry.
func recycledEngine(t *testing.T, spec *platform.Spec, cfg Config, tamper func(*lineTable)) *Engine {
	t.Helper()
	for try := 0; try < 100; try++ {
		a := abandon(spec)
		lt := a.table
		dirty := 0
		for _, r := range lt.recs {
			if r.epoch == lt.epoch && (r.writer >= 0 || r.readers != [MaxThreads / 64]uint64{}) {
				dirty++
			}
		}
		if dirty != 2048 {
			t.Fatalf("abandoned tenant left %d owned records, want 2048", dirty)
		}
		if tamper != nil {
			tamper(lt)
		}
		a.Release()
		if e := New(spec, cfg); e.table == lt {
			return e
		}
	}
	t.Fatal("the pool never handed the released table back")
	return nil
}

func forEachLifecycleCell(t *testing.T, f func(t *testing.T, spec *platform.Spec, cfg Config)) {
	for _, k := range platform.Kinds() {
		for _, threads := range []int{1, 4} {
			// The label predates the engine losing its real-concurrency
			// mode; the test floor pins the names.
			for _, contended := range []bool{true, false} {
				name := fmt.Sprintf("%s/%d/virtual=%v", k.Short(), threads, contended)
				t.Run(name, func(t *testing.T) {
					f(t, platform.New(k), lifecycleConfig(threads, contended))
				})
			}
		}
	}
}

// TestDirtyTenantEquivalence: a table full of a dead engine's ownership
// marks — from thread slots the next engine does not even have — must not
// change a single conflict decision.
func TestDirtyTenantEquivalence(t *testing.T) {
	forEachLifecycleCell(t, func(t *testing.T, spec *platform.Spec, cfg Config) {
		golden := lifecycleRun(freshEngine(t, spec, cfg))
		if golden.Stats.Commits != uint64(200*cfg.Threads) {
			t.Fatalf("golden run committed %d transactions, want %d", golden.Stats.Commits, 200*cfg.Threads)
		}
		if cfg.CostScale != 0 && cfg.Threads > 1 && golden.Stats.Aborts == 0 {
			t.Fatal("golden run saw no conflicts; the row would not notice a stale record")
		}
		e := recycledEngine(t, spec, cfg, nil)
		if e.table.epoch < 2 {
			t.Fatalf("recycled table kept epoch %d", e.table.epoch)
		}
		if got := lifecycleRun(e); !reflect.DeepEqual(got, golden) {
			t.Errorf("recycled table diverged:\nfresh:    %+v\nrecycled: %+v", golden, got)
		}
	})
}

// TestEpochWrapWipes: when the epoch counter wraps, stamps from 2^32
// tenants ago could pass for current ones, so that hand-out zeroes the
// table and restarts at epoch 1.
func TestEpochWrapWipes(t *testing.T) {
	forEachLifecycleCell(t, func(t *testing.T, spec *platform.Spec, cfg Config) {
		golden := lifecycleRun(freshEngine(t, spec, cfg))
		e := recycledEngine(t, spec, cfg, func(lt *lineTable) {
			// Restamp the tenant's marks with the epoch the wrap lands on:
			// only the wipe stands between them and the next engine.
			for i := range lt.recs {
				if lt.recs[i].epoch == lt.epoch {
					lt.recs[i].epoch = 1
				}
			}
			lt.epoch = math.MaxUint32
		})
		if e.table.epoch != 1 {
			t.Fatalf("epoch after wrap = %d, want 1", e.table.epoch)
		}
		for i, r := range e.table.recs {
			if r != (lineRec{}) {
				t.Fatalf("record %d survived the wrap wipe: %+v", i, r)
			}
		}
		if got := lifecycleRun(e); !reflect.DeepEqual(got, golden) {
			t.Errorf("wrapped table diverged:\nfresh:   %+v\nwrapped: %+v", golden, got)
		}
	})
}

// TestPooledSpaceDeterminism: the same run on a fresh arena and on the
// Reset arena (and recycled table) its predecessor released gives the same
// row — no stale bytes, free lists or labels leak through the pool.
func TestPooledSpaceDeterminism(t *testing.T) {
	spec, cfg := platform.New(platform.IntelCore), lifecycleConfig(4, true)
	first := lifecycleRun(New(spec, cfg))
	second := lifecycleRun(New(spec, cfg))
	if !reflect.DeepEqual(first, second) {
		t.Errorf("pooled rerun diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// TestReleaseSpaceResets guards the arena half of the pool contract:
// Release parks a leased arena in fresh state and only detaches a
// caller-supplied one.
func TestReleaseSpaceResets(t *testing.T) {
	spec, cfg := platform.New(platform.POWER8), lifecycleConfig(1, true)
	e := New(spec, cfg)
	sp := e.Space()
	sp.Store64(sp.Alloc(64), 0xfeed)
	e.Release()
	if e.Space() != nil {
		t.Error("Release left the arena attached")
	}
	e.Release() // a second Release is a no-op

	// The pool may or may not hand back the same arena (sync.Pool), but
	// whatever it returns must behave freshly.
	got := New(spec, cfg).Space()
	if got.Used() != 0 {
		t.Errorf("leased space Used = %d, want 0", got.Used())
	}
	if b := got.Alloc(64); got.Load64(b) != 0 {
		t.Error("leased space returned non-zero memory")
	}

	own := mem.NewSpace(cfg.SpaceSize)
	cfg.Space = own
	e = New(spec, cfg)
	a := own.Alloc(64)
	own.Store64(a, 0xfeed)
	e.Release()
	if own.Used() != 64 || own.Load64(a) != 0xfeed {
		t.Error("Release reset a caller-supplied space")
	}
}

// TestSuppliedSpaceMustBeFresh: New documents that Config.Space must be
// fresh or Reset, and enforces it.
func TestSuppliedSpaceMustBeFresh(t *testing.T) {
	sp := mem.NewSpace(1 << 20)
	sp.Alloc(64)
	cfg := lifecycleConfig(1, true)
	cfg.Space = sp
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New accepted a space with live allocations")
			}
		}()
		New(platform.New(platform.ZEC12), cfg)
	}()
	sp.Reset()
	New(platform.New(platform.ZEC12), cfg).Release()
}
