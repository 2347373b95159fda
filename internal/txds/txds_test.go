package txds

import (
	"container/heap"
	"maps"
	"sort"
	"testing"

	"htmcmp/internal/htm"
	"htmcmp/internal/platform"
	"htmcmp/internal/prng"
)

func testThread(t *testing.T) *htm.Thread {
	t.Helper()
	e := htm.New(platform.New(platform.IntelCore), htm.Config{
		Threads: 1, SpaceSize: 32 << 20, CostScale: 0,
		DisablePrefetch: true, DisableCacheFetchAborts: true,
	})
	return e.Thread(0)
}

// contents is every (key, value) an Each walk visits.
func contents(th *htm.Thread, each func(*htm.Thread, func(int64, uint64) bool)) map[int64]uint64 {
	m := map[int64]uint64{}
	each(th, func(k int64, v uint64) bool { m[k] = v; return true })
	return m
}

// minKey is the smallest key of a non-empty map whose keys lie in
// [-128, 256), the range the list oracles draw from.
func minKey(m map[int64]uint64) int64 {
	for k := int64(-128); k < 256; k++ {
		if _, ok := m[k]; ok {
			return k
		}
	}
	panic("minKey: no key in [-128, 256)")
}

// ---------------------------------------------------------------------------
// List

func TestListBasic(t *testing.T) {
	th := testThread(t)
	l := NewList(th)
	if _, _, ok := l.RemoveFirst(th); ok {
		t.Fatal("RemoveFirst of a fresh list succeeded")
	}
	if !l.Insert(th, 5, 50) || !l.Insert(th, 1, 10) || !l.Insert(th, 3, 30) {
		t.Fatal("insert of fresh keys failed")
	}
	if l.Insert(th, 3, 99) {
		t.Error("duplicate insert succeeded")
	}
	// Sorted iteration, stopped early when fn says so.
	var keys []int64
	l.Each(th, func(k int64, v uint64) bool { keys = append(keys, k); return true })
	if len(keys) != 3 || keys[0] != 1 || keys[1] != 3 || keys[2] != 5 {
		t.Errorf("Each order = %v", keys)
	}
	visited := 0
	l.Each(th, func(int64, uint64) bool { visited++; return false })
	if visited != 1 {
		t.Errorf("Each visited %d entries after fn returned false", visited)
	}
	if k, v, ok := l.RemoveFirst(th); !ok || k != 1 || v != 10 {
		t.Errorf("RemoveFirst = %d,%d,%v", k, v, ok)
	}
	if got := ListAt(l.Handle()); got != l {
		t.Errorf("ListAt(Handle()) = %v, want %v", got, l)
	}
	l.Clear(th)
	if n := len(contents(th, l.Each)); n != 0 {
		t.Errorf("after Clear the list holds %d entries", n)
	}
}

// TestListRandomOracle runs random inserts and smallest-first removals, as
// the STAMP ports use the list, against a Go map.
func TestListRandomOracle(t *testing.T) {
	th := testThread(t)
	l := NewList(th)
	oracle := map[int64]uint64{}
	rng := prng.New(99)
	for i := 0; i < 3000; i++ {
		k := int64(rng.Intn(200))
		if rng.Intn(3) != 0 {
			ins := l.Insert(th, k, uint64(i))
			_, had := oracle[k]
			if ins == had {
				t.Fatalf("step %d: Insert(%d)=%v but oracle had=%v", i, k, ins, had)
			}
			if ins {
				oracle[k] = uint64(i)
			}
		} else {
			k, v, ok := l.RemoveFirst(th)
			if ok != (len(oracle) > 0) || ok && (k != minKey(oracle) || v != oracle[k]) {
				t.Fatalf("step %d: RemoveFirst=(%d,%d,%v) oracle %v", i, k, v, ok, oracle)
			}
			delete(oracle, k)
		}
	}
	if got := contents(th, l.Each); !maps.Equal(got, oracle) {
		t.Fatalf("list holds %d entries, oracle %d", len(got), len(oracle))
	}
}

// ---------------------------------------------------------------------------
// Hashtable

func TestHashtableBasic(t *testing.T) {
	th := testThread(t)
	h := NewHashtable(th, 16)
	if !h.Insert(th, 42, 1) {
		t.Fatal("insert failed")
	}
	if h.Insert(th, 42, 2) {
		t.Error("duplicate insert succeeded")
	}
	if v, ok := h.Get(th, 42); !ok || v != 1 {
		t.Errorf("Get = %d,%v", v, ok)
	}
	if v, ok := h.Remove(th, 42); !ok || v != 1 {
		t.Errorf("Remove = %d,%v", v, ok)
	}
	if _, ok := h.Get(th, 42); ok {
		t.Error("Get after Remove found the key")
	}
}

func TestHashtableRandomOracle(t *testing.T) {
	th := testThread(t)
	h := NewHashtable(th, 8) // tiny table: long chains exercise removal mid-chain
	oracle := map[int64]uint64{}
	rng := prng.New(123)
	for i := 0; i < 5000; i++ {
		k := int64(rng.Intn(300)) - 150 // include negatives
		switch rng.Intn(3) {
		case 0:
			ins := h.Insert(th, k, uint64(i))
			_, had := oracle[k]
			if ins == had {
				t.Fatalf("step %d: Insert(%d)=%v oracle had=%v", i, k, ins, had)
			}
			if ins {
				oracle[k] = uint64(i)
			}
		case 1:
			v, ok := h.Get(th, k)
			ov, ook := oracle[k]
			if ok != ook || (ok && v != ov) {
				t.Fatalf("step %d: Get(%d)=(%d,%v) oracle (%d,%v)", i, k, v, ok, ov, ook)
			}
		default:
			v, ok := h.Remove(th, k)
			ov, ook := oracle[k]
			if ok != ook || (ok && v != ov) {
				t.Fatalf("step %d: Remove(%d)=(%d,%v) oracle (%d,%v)", i, k, v, ok, ov, ook)
			}
			delete(oracle, k)
		}
	}
	got := contents(th, h.Each)
	if len(got) != len(oracle) {
		t.Fatalf("Each visited %d entries, oracle %d", len(got), len(oracle))
	}
	if !maps.Equal(got, oracle) {
		t.Fatal("Each visited different entries than the oracle holds")
	}
	visited := 0
	h.Each(th, func(int64, uint64) bool { visited++; return false })
	if visited != 1 {
		t.Errorf("Each visited %d entries after fn returned false", visited)
	}
}

// stressQuanta are the yield quanta the contended tests run their regions
// at: every access a scheduling point, and the engine default.
var stressQuanta = []int{1, 8}

// retryTx runs fn as a transaction until it commits, backing off a random
// while after each abort: in deterministic time, transactions that doom each
// other otherwise retry in lockstep for ever (requester-wins livelock).
func retryTx(th *htm.Thread, fn func()) {
	for try := 1; ; try++ {
		if ok, _ := th.TryTx(htm.TxNormal, fn); ok {
			return
		}
		th.Pause(1 + th.Rand().Intn(8<<min(try, 10)))
	}
}

func TestHashtableConcurrentInserts(t *testing.T) {
	for _, quantum := range stressQuanta {
		e := htm.New(platform.New(platform.ZEC12), htm.Config{
			Threads: 4, SpaceSize: 32 << 20, CostScale: 0, DisableCacheFetchAborts: true,
			Quantum: quantum,
		})
		h := NewHashtable(e.Thread(0), 64)
		const perThread = 500
		e.Run(4, func(tid int, th *htm.Thread) {
			for j := 0; j < perThread; j++ {
				k := int64(tid*perThread + j)
				retryTx(th, func() { h.Insert(th, k, uint64(k)) })
			}
		})
		if n := len(contents(e.Thread(0), h.Each)); n != 4*perThread {
			t.Fatalf("quantum %d: concurrent inserts lost entries: Len=%d want %d", quantum, n, 4*perThread)
		}
	}
}

// ---------------------------------------------------------------------------
// RBTree

func TestRBTreeBasic(t *testing.T) {
	th := testThread(t)
	r := NewRBTree(th)
	for _, k := range []int64{5, 2, 8, 1, 9, 3, 7, 4, 6} {
		if !r.Insert(th, k, uint64(k*10)) {
			t.Fatalf("insert %d failed", k)
		}
	}
	if r.Insert(th, 5, 0) {
		t.Error("duplicate insert succeeded")
	}
	if err := r.CheckInvariants(th); err != nil {
		t.Fatalf("invariants after inserts: %v", err)
	}
	if v, ok := r.Get(th, 7); !ok || v != 70 {
		t.Errorf("Get(7) = %d,%v", v, ok)
	}
	if _, ok := r.Get(th, 10); ok {
		t.Error("Get(10) found an absent key")
	}
	var keys []int64
	r.Each(th, func(k int64, v uint64) bool { keys = append(keys, k); return true })
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Errorf("Each not sorted: %v", keys)
	}
	if len(keys) != 9 {
		t.Errorf("Each visited %d keys", len(keys))
	}
	for _, k := range []int64{5, 1, 9, 2, 8, 3, 7, 4, 6} {
		if _, ok := r.Remove(th, k); !ok {
			t.Fatalf("Remove(%d) failed", k)
		}
		if err := r.CheckInvariants(th); err != nil {
			t.Fatalf("invariants after Remove(%d): %v", k, err)
		}
	}
	if n := len(contents(th, r.Each)); n != 0 {
		t.Errorf("%d keys left after removing all", n)
	}
	if got := RBTreeAt(r.Handle()); got != r {
		t.Errorf("RBTreeAt(Handle()) = %v, want %v", got, r)
	}
}

// TestRBTreeRandomOracle is the heavyweight property test: thousands of
// random operations checked against a Go map, with the red-black invariants
// revalidated periodically.
func TestRBTreeRandomOracle(t *testing.T) {
	th := testThread(t)
	r := NewRBTree(th)
	oracle := map[int64]uint64{}
	rng := prng.New(2024)
	for i := 0; i < 8000; i++ {
		k := int64(rng.Intn(400))
		switch rng.Intn(3) {
		case 0:
			ins := r.Insert(th, k, uint64(i))
			_, had := oracle[k]
			if ins == had {
				t.Fatalf("step %d: Insert(%d)=%v oracle had=%v", i, k, ins, had)
			}
			if ins {
				oracle[k] = uint64(i)
			}
		case 1:
			v, ok := r.Get(th, k)
			ov, ook := oracle[k]
			if ok != ook || (ok && v != ov) {
				t.Fatalf("step %d: Get(%d)=(%d,%v) oracle (%d,%v)", i, k, v, ok, ov, ook)
			}
		default:
			v, ok := r.Remove(th, k)
			ov, ook := oracle[k]
			if ok != ook || (ok && v != ov) {
				t.Fatalf("step %d: Remove(%d)=(%d,%v) oracle (%d,%v)", i, k, v, ok, ov, ook)
			}
			delete(oracle, k)
		}
		if i%250 == 0 {
			if err := r.CheckInvariants(th); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			if got := contents(th, r.Each); !maps.Equal(got, oracle) {
				t.Fatalf("step %d: tree holds %d keys, oracle %d", i, len(got), len(oracle))
			}
		}
	}
	if err := r.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}
}

func TestRBTreeAscendingDescendingInserts(t *testing.T) {
	th := testThread(t)
	r := NewRBTree(th)
	for k := int64(0); k < 200; k++ {
		r.Insert(th, k, uint64(k))
	}
	if err := r.CheckInvariants(th); err != nil {
		t.Fatalf("ascending: %v", err)
	}
	for k := int64(400); k > 200; k-- {
		r.Insert(th, k, uint64(k))
	}
	if err := r.CheckInvariants(th); err != nil {
		t.Fatalf("descending: %v", err)
	}
	if n := len(contents(th, r.Each)); n != 400 {
		t.Errorf("tree holds %d keys, want 400", n)
	}
}

func TestRBTreeConcurrentMixed(t *testing.T) {
	for _, quantum := range stressQuanta {
		e := htm.New(platform.New(platform.IntelCore), htm.Config{
			Threads: 4, SpaceSize: 64 << 20, CostScale: 0,
			DisablePrefetch: true, DisableCacheFetchAborts: true, Quantum: quantum,
		})
		r := NewRBTree(e.Thread(0))
		var inserted [4][]int64
		e.Run(4, func(tid int, th *htm.Thread) {
			rng := th.Rand()
			for j := 0; j < 400; j++ {
				k := int64(tid)*100000 + int64(rng.Intn(5000))
				var ins bool
				retryTx(th, func() { ins = r.Insert(th, k, uint64(k)) })
				if ins {
					inserted[tid] = append(inserted[tid], k)
				}
			}
		})
		th := e.Thread(0)
		if err := r.CheckInvariants(th); err != nil {
			t.Fatalf("quantum %d: invariants after concurrent inserts: %v", quantum, err)
		}
		got := contents(th, r.Each)
		total := 0
		for tid := range inserted {
			total += len(inserted[tid])
			for _, k := range inserted[tid] {
				if _, ok := got[k]; !ok {
					t.Fatalf("quantum %d: lost key %d", quantum, k)
				}
			}
		}
		if len(got) != total {
			t.Fatalf("quantum %d: tree holds %d keys, want %d", quantum, len(got), total)
		}
	}
}

// ---------------------------------------------------------------------------
// Queue

func TestQueueFIFOAndGrowth(t *testing.T) {
	th := testThread(t)
	q := NewQueue(th, 2)
	if !q.Empty(th) {
		t.Fatal("fresh queue not empty")
	}
	for i := uint64(0); i < 100; i++ {
		q.Push(th, i)
	}
	for i := uint64(0); i < 100; i++ {
		v, ok := q.Pop(th)
		if !ok || v != i {
			t.Fatalf("Pop #%d = %d,%v", i, v, ok)
		}
	}
	if _, ok := q.Pop(th); ok {
		t.Error("Pop of empty queue succeeded")
	}
}

func TestQueueInterleavedOracle(t *testing.T) {
	th := testThread(t)
	q := NewQueue(th, 4)
	var oracle []uint64
	rng := prng.New(5)
	for i := 0; i < 4000; i++ {
		if rng.Intn(2) == 0 || len(oracle) == 0 {
			v := rng.Uint64()
			q.Push(th, v)
			oracle = append(oracle, v)
		} else {
			v, ok := q.Pop(th)
			if !ok || v != oracle[0] {
				t.Fatalf("step %d: Pop=(%d,%v) oracle head %d", i, v, ok, oracle[0])
			}
			oracle = oracle[1:]
		}
		if q.Empty(th) != (len(oracle) == 0) {
			t.Fatalf("step %d: Empty=%v with %d queued", i, q.Empty(th), len(oracle))
		}
	}
}

// ---------------------------------------------------------------------------
// Heap

type intHeap []int64

func (h intHeap) Len() int            { return len(h) }
func (h intHeap) Less(i, j int) bool  { return h[i] > h[j] } // max-heap
func (h intHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x interface{}) { *h = append(*h, x.(int64)) }
func (h *intHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func TestHeapAgainstContainerHeap(t *testing.T) {
	th := testThread(t)
	h := NewHeap(th, 2)
	var oracle intHeap
	heap.Init(&oracle)
	rng := prng.New(77)
	for i := 0; i < 3000; i++ {
		if rng.Intn(2) == 0 || oracle.Len() == 0 {
			p := int64(rng.Intn(10000))
			h.Push(th, p, uint64(p))
			heap.Push(&oracle, p)
		} else {
			p, v, ok := h.Pop(th)
			want := heap.Pop(&oracle).(int64)
			if !ok || p != want || v != uint64(want) {
				t.Fatalf("step %d: Pop=(%d,%d,%v) want prio %d", i, p, v, ok, want)
			}
		}
		if h.Len(th) != oracle.Len() {
			t.Fatalf("step %d: Len=%d oracle=%d", i, h.Len(th), oracle.Len())
		}
	}
}

func TestHeapPopEmpty(t *testing.T) {
	th := testThread(t)
	h := NewHeap(th, 4)
	if _, _, ok := h.Pop(th); ok {
		t.Error("Pop of empty heap succeeded")
	}
}

// ---------------------------------------------------------------------------
// Vector

// TestVectorBasic reads the vector's header and array back from simulated
// memory: PushBack doubles a full array and keeps every element.
func TestVectorBasic(t *testing.T) {
	th := testThread(t)
	v := NewVector(th, 0)
	for i := uint64(0); i < 50; i++ {
		v.PushBack(th, i*3)
	}
	if size, capacity := loadField(th, v.base, vecSize), loadField(th, v.base, vecCapacity); size != 50 || capacity != 64 {
		t.Fatalf("size %d, capacity %d; want 50 and 64", size, capacity)
	}
	arr := loadField(th, v.base, vecArray)
	for i := uint64(0); i < 50; i++ {
		if got := th.Load64(arr + i*w); got != i*3 {
			t.Fatalf("element %d = %d, want %d", i, got, i*3)
		}
	}
}

// ---------------------------------------------------------------------------
// Bitmap

func TestBitmapBasic(t *testing.T) {
	th := testThread(t)
	b := NewBitmap(th, 200)
	if !b.Set(th, 63) || !b.Set(th, 64) || !b.Set(th, 199) {
		t.Fatal("Set of clear bits failed")
	}
	if b.Set(th, 63) || b.Set(th, 64) || b.Set(th, 199) {
		t.Error("Set of a set bit returned true")
	}
	data := loadField(th, b.base, bmData)
	if w0, w1, w3 := th.Load64(data), th.Load64(data+w), th.Load64(data+3*w); w0 != 1<<63 || w1 != 1 || w3 != 1<<7 {
		t.Errorf("bitmap words %#x %#x %#x, want bits 63, 64 and 199 alone", w0, w1, w3)
	}
	if NewBitmap(th, 0).Set(th, 0) != true {
		t.Error("a bitmap asked for no bits holds no bit 0")
	}
}

func TestBitmapOutOfRangePanics(t *testing.T) {
	th := testThread(t)
	b := NewBitmap(th, 10)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range bitmap access did not panic")
		}
	}()
	b.Set(th, 10)
}

// TestStructuresAbortSafety verifies that a transaction that mutates a
// structure and then aborts leaves the structure exactly as before — the
// core isolation property everything in stamp/ relies on.
func TestStructuresAbortSafety(t *testing.T) {
	th := testThread(t)
	r := NewRBTree(th)
	h := NewHashtable(th, 8)
	l := NewList(th)
	q := NewQueue(th, 4)
	for i := int64(0); i < 20; i++ {
		r.Insert(th, i, uint64(i))
		h.Insert(th, i, uint64(i))
		l.Insert(th, i, uint64(i))
		q.Push(th, uint64(i))
	}
	ok, _ := th.TryTx(htm.TxNormal, func() {
		r.Remove(th, 5)
		r.Insert(th, 100, 1)
		h.Remove(th, 5)
		l.RemoveFirst(th)
		q.Pop(th)
		q.Push(th, 999)
		th.Abort()
	})
	if ok {
		t.Fatal("tx with explicit abort committed")
	}
	want := map[int64]uint64{}
	for i := int64(0); i < 20; i++ {
		want[i] = uint64(i)
	}
	if !maps.Equal(contents(th, r.Each), want) {
		t.Error("rbtree mutated by aborted tx")
	}
	if err := r.CheckInvariants(th); err != nil {
		t.Errorf("rbtree invariants after abort: %v", err)
	}
	if !maps.Equal(contents(th, h.Each), want) {
		t.Error("hashtable mutated by aborted tx")
	}
	if !maps.Equal(contents(th, l.Each), want) {
		t.Error("list mutated by aborted tx")
	}
	for i := uint64(0); i < 20; i++ {
		if v, ok := q.Pop(th); !ok || v != i {
			t.Fatalf("queue pop %d = %d,%v: mutated by aborted tx", i, v, ok)
		}
	}
	if !q.Empty(th) {
		t.Error("queue grew in aborted tx")
	}
}
