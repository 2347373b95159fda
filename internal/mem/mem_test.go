package mem

import (
	"math"
	"testing"
)

func TestAllocZeroesAndAligns(t *testing.T) {
	s := NewSpace(1 << 16)
	a := s.Alloc(24)
	if a == Nil {
		t.Fatal("Alloc returned nil address")
	}
	if a%WordSize != 0 {
		t.Errorf("address %#x not word aligned", a)
	}
	for i := uint64(0); i < 24; i += WordSize {
		if s.Load64(a+i) != 0 {
			t.Fatalf("word at offset %d not zeroed", i)
		}
	}
}

func TestAllocAligned(t *testing.T) {
	s := NewSpace(1 << 16)
	for _, align := range []int{8, 64, 128, 256} {
		a := s.AllocAligned(40, align)
		if a%uint64(align) != 0 {
			t.Errorf("AllocAligned(%d): address %#x misaligned", align, a)
		}
	}
}

func TestAllocAlignedRejectsNonPowerOfTwo(t *testing.T) {
	s := NewSpace(1 << 12)
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two alignment did not panic")
		}
	}()
	s.AllocAligned(8, 24)
}

func TestFreeReuse(t *testing.T) {
	s := NewSpace(1 << 16)
	a := s.Alloc(64)
	s.Store64(a, 0xdeadbeef)
	s.FreeArena(a, 0)
	b := s.Alloc(64) // same size class: must reuse the freed block
	if b != a {
		t.Errorf("free block not reused: %#x then %#x", a, b)
	}
	if s.Load64(b) != 0 {
		t.Error("reused block not zeroed")
	}
}

func TestDoubleFreePanics(t *testing.T) {
	s := NewSpace(1 << 12)
	a := s.Alloc(8)
	s.FreeArena(a, 0)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	s.FreeArena(a, 0)
}

func TestFreeNilIsNoop(t *testing.T) {
	s := NewSpace(1 << 12)
	s.FreeArena(Nil, 0) // must not panic
}

func TestUsedAccounting(t *testing.T) {
	s := NewSpace(1 << 16)
	if s.Used() != 0 {
		t.Fatalf("fresh space Used = %d", s.Used())
	}
	a := s.Alloc(100) // rounds to 104
	if s.Used() == 0 {
		t.Error("Used did not grow after Alloc")
	}
	s.FreeArena(a, 0)
	if s.Used() != 0 {
		t.Errorf("Used = %d after freeing everything", s.Used())
	}
}

func TestArenaExhaustionPanics(t *testing.T) {
	s := NewSpace(256)
	defer func() {
		if recover() == nil {
			t.Error("arena exhaustion did not panic")
		}
	}()
	for i := 0; i < 100; i++ {
		s.Alloc(64)
	}
}

func TestRoundtripAccessors(t *testing.T) {
	s := NewSpace(1 << 12)
	a := s.Alloc(64)
	s.Store64(a, 0x0123456789abcdef)
	if got := s.Load64(a); got != 0x0123456789abcdef {
		t.Errorf("Load64 = %#x", got)
	}
	s.WriteBytes(a+8, []byte{0xbe, 0xba, 0xfe, 0xca})
	if got := s.Load64(a + 8); got != 0xcafebabe {
		t.Errorf("Load64 of little-endian bytes = %#x", got)
	}
	s.StoreFloat64(a+16, -2.5)
	if got := math.Float64frombits(s.Load64(a + 16)); got != -2.5 {
		t.Errorf("StoreFloat64 stored %v", got)
	}
	s.WriteBytes(a+32, []byte("hello"))
	if got := string(s.ReadBytes(a+32, 5)); got != "hello" {
		t.Errorf("ReadBytes = %q", got)
	}
}

func TestNilAccessPanics(t *testing.T) {
	s := NewSpace(1 << 12)
	defer func() {
		if recover() == nil {
			t.Error("nil access did not panic")
		}
	}()
	s.Load64(Nil)
}

func TestOutOfBoundsPanics(t *testing.T) {
	s := NewSpace(1 << 12)
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds access did not panic")
		}
	}()
	s.Load64(uint64(s.Size()) - 4)
}

func TestRoundSizeClasses(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 8}, {1, 8}, {8, 8}, {9, 16}, {24, 24}, {250, 256}, {256, 256},
		{257, 512}, {512, 512}, {513, 1024}, {5000, 8192},
	}
	for _, c := range cases {
		if got := roundSize(c.in); got != c.want {
			t.Errorf("roundSize(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestLabelAndRegionAt(t *testing.T) {
	s := NewSpace(1 << 12)
	if got := s.RegionAt(100); got != "" {
		t.Fatalf("RegionAt on unlabelled space = %q, want empty", got)
	}
	s.Label(64, 64, "tm/global-lock")
	s.Label(256, 1024, "stamp/points")
	s.Label(512, 64, "stamp/hot-cluster") // nested inside stamp/points

	cases := []struct {
		addr Addr
		want string
	}{
		{0, ""},
		{64, "tm/global-lock"},
		{127, "tm/global-lock"},
		{128, ""},
		{256, "stamp/points"},
		{511, "stamp/points"},
		{512, "stamp/hot-cluster"},
		{575, "stamp/hot-cluster"},
		{576, "stamp/points"},
		{1279, "stamp/points"},
		{1280, ""},
	}
	for _, c := range cases {
		if got := s.RegionAt(c.addr); got != c.want {
			t.Errorf("RegionAt(%d) = %q, want %q", c.addr, got, c.want)
		}
	}
	// Labels added after a lookup are picked up (lazy re-sort).
	s.Label(8, 8, "late")
	if got := s.RegionAt(8); got != "late" {
		t.Errorf("RegionAt(8) after late label = %q, want %q", got, "late")
	}
	// Degenerate labels are ignored.
	s.Label(2048, 0, "empty")
	s.Label(2048, 8, "")
	if got := s.RegionAt(2048); got != "" {
		t.Errorf("RegionAt(2048) = %q, want empty (degenerate labels ignored)", got)
	}
}
