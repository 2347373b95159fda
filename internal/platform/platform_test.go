package platform

import (
	"strings"
	"testing"
)

func TestTable1Values(t *testing.T) {
	cases := []struct {
		kind            Kind
		line            int
		loadCap, stoCap int
		combined        bool
		cores, smt      int
		abortKinds      int
		reportsPersist  bool
	}{
		{BlueGeneQ, 128, 20 << 20 / 16, 20 << 20 / 16, true, 16, 4, 0, false},
		{ZEC12, 256, 1 << 20, 8 << 10, false, 16, 1, 14, true},
		{IntelCore, 64, 4 << 20, 22 << 10, false, 4, 2, 6, true},
		{POWER8, 128, 8 << 10, 8 << 10, true, 6, 8, 11, true},
	}
	for _, c := range cases {
		s := New(c.kind)
		if s.LineSize != c.line {
			t.Errorf("%v line = %d, want %d", c.kind, s.LineSize, c.line)
		}
		if s.LoadCapacity != c.loadCap || s.StoreCapacity != c.stoCap {
			t.Errorf("%v capacities = %d/%d, want %d/%d", c.kind,
				s.LoadCapacity, s.StoreCapacity, c.loadCap, c.stoCap)
		}
		if s.CombinedCapacity != c.combined {
			t.Errorf("%v combined = %v", c.kind, s.CombinedCapacity)
		}
		if s.Cores != c.cores || s.SMT != c.smt {
			t.Errorf("%v topology = %d/%d, want %d/%d", c.kind, s.Cores, s.SMT, c.cores, c.smt)
		}
		if s.AbortReasonKinds != c.abortKinds {
			t.Errorf("%v abort kinds = %d, want %d", c.kind, s.AbortReasonKinds, c.abortKinds)
		}
		if s.ReportsPersistence != c.reportsPersist {
			t.Errorf("%v persistence reporting = %v", c.kind, s.ReportsPersistence)
		}
	}
}

func TestCapacityLines(t *testing.T) {
	p8 := New(POWER8)
	if p8.LoadCapacityLines() != 64 {
		t.Errorf("POWER8 TMCAM = %d lines, want 64", p8.LoadCapacityLines())
	}
	z := New(ZEC12)
	if z.StoreCapacityLines() != 32 {
		t.Errorf("zEC12 store cache = %d lines, want 32", z.StoreCapacityLines())
	}
	ic := New(IntelCore)
	if ic.StoreCapacityLines() != 352 {
		t.Errorf("Intel store capacity = %d lines, want 352", ic.StoreCapacityLines())
	}
}

func TestCoreOfScatters(t *testing.T) {
	s := New(IntelCore) // 4 cores, SMT2
	for tid := 0; tid < 4; tid++ {
		if s.CoreOf(tid) != tid {
			t.Errorf("thread %d on core %d: first %d threads must get dedicated cores",
				tid, s.CoreOf(tid), s.Cores)
		}
	}
	if s.CoreOf(4) != 0 || s.CoreOf(7) != 3 {
		t.Error("SMT threads must wrap around cores")
	}
	if s.MaxThreads() != 8 {
		t.Errorf("Intel MaxThreads = %d, want 8", s.MaxThreads())
	}
}

func TestFeatureFlags(t *testing.T) {
	if !New(ZEC12).HasConstrainedTx {
		t.Error("zEC12 must have constrained transactions")
	}
	if !New(IntelCore).HasHLE {
		t.Error("Intel must have HLE")
	}
	p8 := New(POWER8)
	if !p8.HasSuspendResume || !p8.HasRollbackOnly {
		t.Error("POWER8 must have suspend/resume and rollback-only transactions")
	}
	bgq := New(BlueGeneQ)
	if !bgq.SoftwareRetryOnly || bgq.SpecIDs != 128 {
		t.Error("Blue Gene/Q must be system-retry-only with 128 speculation IDs")
	}
	if New(IntelCore).PrefetchProb == 0 {
		t.Error("Intel must model the hardware prefetcher")
	}
	if New(ZEC12).CacheFetchAbortProb == 0 {
		t.Error("zEC12 must model cache-fetch-related aborts")
	}
}

func TestStringsAndShorts(t *testing.T) {
	want := map[Kind][2]string{
		BlueGeneQ: {"Blue Gene/Q", "BG"},
		ZEC12:     {"zEC12", "z12"},
		IntelCore: {"Intel Core", "IC"},
		POWER8:    {"POWER8", "P8"},
	}
	for k, w := range want {
		if k.String() != w[0] || k.Short() != w[1] {
			t.Errorf("%d: %q/%q, want %q/%q", int(k), k.String(), k.Short(), w[0], w[1])
		}
	}
	if ShortRunning.String() != "short-running" || LongRunning.String() != "long-running" {
		t.Error("BGQMode strings wrong")
	}
}

func TestAllAndKindsOrder(t *testing.T) {
	all := All()
	kinds := Kinds()
	if len(all) != 4 || len(kinds) != 4 {
		t.Fatal("expected 4 platforms")
	}
	for i, k := range kinds {
		if all[i].Kind != k {
			t.Errorf("All()[%d] = %v, Kinds()[%d] = %v", i, all[i].Kind, i, k)
		}
	}
	if kinds[0] != BlueGeneQ || kinds[3] != POWER8 {
		t.Error("platforms must be in the paper's order")
	}
}

// TestParseKind: every spelling htmtune or htmtrace has accepted resolves,
// each platform's lower-cased Short does too, and the error names the
// canonical four.
func TestParseKind(t *testing.T) {
	for name, want := range map[string]Kind{
		"bgq": BlueGeneQ, "bg": BlueGeneQ, "bluegene": BlueGeneQ, "bluegeneq": BlueGeneQ,
		"zec12": ZEC12, "z12": ZEC12, "z": ZEC12,
		"intel": IntelCore, "ic": IntelCore, "core": IntelCore,
		"power8": POWER8, "p8": POWER8,
	} {
		if got, err := ParseKind(name); err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, k := range Kinds() {
		if got, err := ParseKind(strings.ToLower(k.Short())); err != nil || got != k {
			t.Errorf("ParseKind(lower %q) = %v, %v; want %v", k.Short(), got, err, k)
		}
	}
	for _, name := range []string{"", "sparc", "BGQ", "bgq,zec12"} {
		_, err := ParseKind(name)
		if err == nil || !strings.Contains(err.Error(), "bgq, zec12, intel, power8") {
			t.Errorf("ParseKind(%q) error = %v, want one listing the canonical names", name, err)
		}
	}
}
