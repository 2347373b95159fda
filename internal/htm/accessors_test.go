package htm

import (
	"testing"

	"htmcmp/internal/mem"
	"htmcmp/internal/platform"
)

// TestEngineAndThreadAccessors pins the small read-only surface the harness
// and telemetry layers depend on: stats reset, scheduler counters and the
// read-only load family.
func TestEngineAndThreadAccessors(t *testing.T) {
	e := stmEngine(t, 2)
	th := e.Thread(0)

	if got := e.SchedHandoffs(); got != 0 {
		t.Errorf("SchedHandoffs before any region = %d, want 0", got)
	}
	if got := e.SchedSwitches(); got != 0 {
		t.Errorf("SchedSwitches before any region = %d, want 0", got)
	}

	a := th.Alloc(64)
	if ok, _ := th.TryTx(TxNormal, func() { th.Store64(a, 0x41) }); !ok {
		t.Fatal("tx aborted")
	}
	if got := e.Stats().Commits; got != 1 {
		t.Errorf("Stats().Commits = %d, want 1", got)
	}
	e.ResetStats()
	if got := e.Stats().Commits; got != 0 {
		t.Errorf("Commits after ResetStats = %d", got)
	}

	// Read-only loads see committed data without joining a read set.
	if got := th.LoadRO64(a); got != 0x41 {
		t.Errorf("LoadRO64 = %#x, want 0x41", got)
	}
	if got := th.LoadRO8(a); got != 0x41 {
		t.Errorf("LoadRO8 = %#x, want 0x41", got)
	}

	b := th.AllocAligned(128, 64)
	if b%64 != 0 {
		t.Errorf("AllocAligned returned %#x, not 64-byte aligned", b)
	}

	ptr := th.Alloc(64)
	th.StorePtr(ptr, a)
	if got := th.LoadPtr(ptr); got != a {
		t.Errorf("LoadPtr = %#x, want %#x", got, a)
	}
}

func TestAlignedSpaceSize(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 64},
		{63, 64},
		{64, 64},
		{65, 72},
		{128, 128},
	}
	for _, c := range cases {
		if got := alignedSpaceSize(c.in); got != c.want {
			t.Errorf("alignedSpaceSize(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestHybridGateAccessors exercises the hybrid-STM gate surface: a gate line
// once enabled, and an STM fence that leaves the sequence lock even (writers
// can still commit afterwards).
func TestHybridGateAccessors(t *testing.T) {
	e := New(platform.New(platform.ZEC12), Config{
		Threads: 1, SpaceSize: 8 << 20, Seed: 21, CostScale: 0,
		DisableCacheFetchAborts: true,
	})
	if gate := e.EnableHybridSTM(); gate == mem.Nil {
		t.Error("EnableHybridSTM returned no gate line")
	}
	e.Run(1, func(_ int, th *Thread) {
		e.STMFence(th)
		a := th.Alloc(64)
		if ok, _ := th.TrySTM(func() { th.Store64(a, 3) }); !ok {
			t.Error("STM writer cannot commit after STMFence returned")
		}
	})
}
