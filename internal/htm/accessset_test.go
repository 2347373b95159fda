package htm

import (
	"fmt"
	"testing"

	"htmcmp/internal/platform"
	"htmcmp/internal/prng"
)

func TestAccessTabFastPathBasics(t *testing.T) {
	var tab accessTab[uint32, int]
	tab.init()
	if tab.size() != 0 || tab.has(1) {
		t.Fatal("fresh table not empty")
	}
	for i := uint32(0); i < fastSetCap; i++ {
		tab.put(i, int(i)*10)
	}
	if tab.spilled {
		t.Fatalf("spilled at %d entries; fast path should hold them", fastSetCap)
	}
	tab.put(3, 99) // overwrite must not grow the set
	if tab.size() != fastSetCap {
		t.Fatalf("size = %d after overwrite, want %d", tab.size(), fastSetCap)
	}
	if v, ok := tab.get(3); !ok || v != 99 {
		t.Fatalf("get(3) = %d,%v want 99,true", v, ok)
	}
	if _, ok := tab.get(1000); ok {
		t.Fatal("get of absent key succeeded")
	}
}

func TestAccessTabGrowthPastFastPath(t *testing.T) {
	var tab accessTab[uint32, uint32]
	tab.init()
	const n = 1000 // forces the spill and several grow() doublings
	for i := uint32(0); i < n; i++ {
		tab.put(i*7, i)
		if got := tab.size(); got != int(i)+1 {
			t.Fatalf("size = %d after %d inserts", got, i+1)
		}
	}
	if !tab.spilled {
		t.Fatal("table did not spill past the fast path")
	}
	for i := uint32(0); i < n; i++ {
		if v, ok := tab.get(i * 7); !ok || v != i {
			t.Fatalf("get(%d) = %d,%v want %d,true", i*7, v, ok, i)
		}
	}
	// Overwrites after growth must hit the same slots.
	for i := uint32(0); i < n; i++ {
		tab.put(i*7, i+1)
	}
	if tab.size() != n {
		t.Fatalf("size = %d after overwrites, want %d", tab.size(), n)
	}
}

func TestAccessTabEpochReuseAcrossTransactions(t *testing.T) {
	// 10k reset cycles over one table: entries from earlier epochs must
	// never be visible, and the table must not grow without bound (reset is
	// an epoch bump, not a reallocation).
	var tab accessTab[uint32, int]
	tab.init()
	for epoch := 0; epoch < 10000; epoch++ {
		n := 1 + epoch%12 // straddles the fast-path/spill boundary
		for i := 0; i < n; i++ {
			k := uint32(epoch*31+i) % 4096
			tab.put(k, epoch)
		}
		for i := 0; i < n; i++ {
			k := uint32(epoch*31+i) % 4096
			v, ok := tab.get(k)
			if !ok || v != epoch {
				t.Fatalf("epoch %d: get(%d) = %d,%v", epoch, k, v, ok)
			}
		}
		// A key from the previous epoch that is not in this one must be
		// invisible even though its slot still physically holds it.
		if epoch > 0 {
			stale := uint32((epoch-1)*31) % 4096
			if v, ok := tab.get(stale); ok && v != epoch {
				t.Fatalf("epoch %d: stale entry %d visible with value %d", epoch, stale, v)
			}
		}
		tab.reset()
		if tab.size() != 0 {
			t.Fatalf("epoch %d: size %d after reset", epoch, tab.size())
		}
	}
	if len(tab.slots) > 512 {
		t.Fatalf("table grew to %d slots across epochs; reset is leaking entries", len(tab.slots))
	}
}

func TestAccessTabSpillPreservesEntries(t *testing.T) {
	// The 9th insert migrates the 8 fast-path entries into the open table;
	// all must survive with their values.
	var tab accessTab[uint64, string]
	tab.init()
	for i := uint64(0); i < fastSetCap+1; i++ {
		tab.put(i<<40, fmt.Sprint(i)) // high bits exercise the uint64 hash
	}
	if !tab.spilled || tab.size() != fastSetCap+1 {
		t.Fatalf("spilled=%v size=%d", tab.spilled, tab.size())
	}
	for i := uint64(0); i < fastSetCap+1; i++ {
		if v, ok := tab.get(i << 40); !ok || v != fmt.Sprint(i) {
			t.Fatalf("get(%d) = %q,%v", i, v, ok)
		}
	}
}

// TestAccessTabMatchesMap drives random put/get/has/reset sequences against
// a Go map, for both key widths, across the fast-path/spill boundary and the
// table's growth. Most of the key pool hashes to four neighbouring home
// slots of the initial table, so lookups walk long probe chains that wrap
// past the table's end and mix live entries with stale earlier-epoch ones.
func TestAccessTabMatchesMap(t *testing.T) {
	t.Run("uint32", func(t *testing.T) {
		checkAccessTabAgainstMap(t, collidingKeys(func(i uint64) uint32 { return uint32(i) }))
	})
	t.Run("uint64", func(t *testing.T) {
		// 8-aligned word addresses, the STM write buffer's keys.
		checkAccessTabAgainstMap(t, collidingKeys(func(i uint64) uint64 { return 1<<33 + i*8 }))
	})
}

// collidingKeys returns key(0..15) followed by the later keys whose home
// slot in a minTabSlots table is one of the last four, 96 keys in all.
func collidingKeys[K tabKey](key func(uint64) K) []K {
	probe := accessTab[K, int]{mask: minTabSlots - 1}
	var keys []K
	for i := uint64(0); len(keys) < 96; i++ {
		k := key(i)
		if i < 16 || probe.hash(k) >= minTabSlots-4 {
			keys = append(keys, k)
		}
	}
	return keys
}

func checkAccessTabAgainstMap[K tabKey](t *testing.T, pool []K) {
	t.Helper()
	var tab accessTab[K, int]
	tab.init()
	want := map[K]int{}
	rng := prng.New(7)
	maxSize := 0
	for op := 0; op < 200000; op++ {
		k := pool[rng.Intn(len(pool))]
		switch r := rng.Intn(1000); {
		case r < 2: // resets are rare enough for sets to outgrow the table
			tab.reset()
			clear(want)
		case r < 500:
			tab.put(k, op)
			want[k] = op
		case r < 750:
			v, ok := tab.get(k)
			if w, wok := want[k]; ok != wok || v != w {
				t.Fatalf("op %d: get(%#x) = %d,%v, want %d,%v", op, k, v, ok, w, wok)
			}
		default:
			if _, wok := want[k]; tab.has(k) != wok {
				t.Fatalf("op %d: has(%#x) = %v, want %v", op, k, !wok, wok)
			}
		}
		if tab.size() != len(want) {
			t.Fatalf("op %d: size %d, want %d", op, tab.size(), len(want))
		}
		maxSize = max(maxSize, len(want))
	}
	if maxSize <= minTabSlots*3/4 {
		t.Fatalf("largest set held %d keys: the sequence never grew the spill table", maxSize)
	}
}

func TestWayCounterEpochReset(t *testing.T) {
	var w wayCounter
	w.init(8)
	w.incr(3)
	w.incr(3)
	w.incr(5)
	if w.get(3) != 2 || w.get(5) != 1 || w.get(0) != 0 {
		t.Fatalf("counts = %d,%d,%d", w.get(3), w.get(5), w.get(0))
	}
	w.reset()
	for set := uint32(0); set < 8; set++ {
		if w.get(set) != 0 {
			t.Fatalf("set %d nonzero after reset", set)
		}
	}
	w.incr(3)
	if w.get(3) != 1 {
		t.Fatalf("count after reuse = %d", w.get(3))
	}
}

// TestPrefetchedLinePromotion checks the read-set's counted flag through the
// real access path: a line pulled in by the Intel adjacent-line prefetcher
// sits in the read set uncharged (counted=false); a later explicit load of
// that line promotes it — charging capacity exactly once.
func TestPrefetchedLinePromotion(t *testing.T) {
	// The prefetcher is a Bernoulli draw on the thread RNG, so scan seeds
	// for one where the first load's prefetch fires. Deterministic per seed.
	for seed := uint64(0); seed < 64; seed++ {
		e := New(platform.New(platform.IntelCore), Config{
			Threads: 1, SpaceSize: 1 << 20, Seed: seed, CostScale: 0,
		})
		th := e.Thread(0)
		a := th.Alloc(8 * e.lineSize)
		line0 := th.lineOf(a)
		var fired bool
		th.TryTx(TxNormal, func() {
			_ = th.Load64(a)
			if !th.rs.has(line0 + 1) {
				return // prefetch did not fire under this seed
			}
			fired = true
			if counted, _ := th.rs.get(line0 + 1); counted {
				t.Fatal("prefetched line charged against capacity")
			}
			if r := th.readsCounted; r != 1 {
				t.Fatalf("readsCounted = %d before promotion, want 1", r)
			}
			// Explicit load of the prefetched line: promote, charge once.
			_ = th.Load64(a + uint64(e.lineSize))
			if counted, ok := th.rs.get(line0 + 1); !ok || !counted {
				t.Fatal("explicit load did not promote the prefetched line")
			}
			if r := th.readsCounted; r != 2 {
				t.Fatalf("readsCounted = %d after promotion, want 2", r)
			}
			// Loading it again must not double-charge.
			_ = th.Load64(a + uint64(e.lineSize))
			if r := th.readsCounted; r != 2 {
				t.Fatalf("readsCounted = %d after re-load, want 2", r)
			}
		})
		if fired {
			return
		}
	}
	t.Fatal("prefetch never fired in 64 seeds; check the prefetcher model")
}
