package prng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(123), New(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at %d", i)
		}
	}
}

func TestDeriveIndependence(t *testing.T) {
	a, b := Derive(1, 0), Derive(1, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("derived streams collided %d/1000 times", same)
	}
}

// TestReseedRestartsDerive: a used generator reseeded in place yields
// exactly the stream Derive gives for the same seed and id.
func TestReseedRestartsDerive(t *testing.T) {
	r := New(99)
	for id := 0; id < 4; id++ {
		r.Uint64()
		r.Reseed(7, id)
		want := Derive(7, id)
		for i := 0; i < 100; i++ {
			if got, w := r.Uint64(), want.Uint64(); got != w {
				t.Fatalf("id %d draw %d: Reseed stream %#x, Derive stream %#x", id, i, got, w)
			}
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	check := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestUint64Uniformity(t *testing.T) {
	// Crude bucket test: 16 buckets from the top nibble.
	r := New(11)
	var buckets [16]int
	const n = 160000
	for i := 0; i < n; i++ {
		buckets[r.Uint64()>>60]++
	}
	for i, c := range buckets {
		if c < n/16*8/10 || c > n/16*12/10 {
			t.Errorf("bucket %d count %d deviates >20%% from %d", i, c, n/16)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(13)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid/duplicate element %d", v)
		}
		seen[v] = true
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := New(17)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Errorf("shuffle changed multiset: sum %d -> %d", sum, got)
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(19)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestSplitMix64KnownSequenceDiffers(t *testing.T) {
	s := NewSplitMix64(0)
	a, b := s.Next(), s.Next()
	if a == b {
		t.Error("splitmix returned identical consecutive values")
	}
}
