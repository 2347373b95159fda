package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterAddIncValue(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total")
	for i := 0; i < 24; i++ {
		c.Add(2)
	}
	c.Inc()
	if got := c.Value(); got != 49 {
		t.Fatalf("Value = %d, want 49", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total")
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("Value = %d, want %d", got, workers*per)
	}
}

func TestRegistryGetOrCreateIsStable(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a_total") != r.Counter("a_total") {
		t.Fatal("Counter handle not stable across lookups")
	}
}

func TestRegistrySortedListings(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total")
	r.Counter("a_total")
	cs := r.Counters()
	if len(cs) != 2 || cs[0].Name() != "a_total" || cs[1].Name() != "z_total" {
		t.Fatalf("Counters not sorted: %v, %v", cs[0].Name(), cs[1].Name())
	}
	vals := r.CounterValues()
	if len(vals) != 2 {
		t.Fatalf("CounterValues len = %d", len(vals))
	}
}

func TestEngineMetricsReasonLabelsAndClamp(t *testing.T) {
	r := NewRegistry()
	m := NewEngineMetrics(r, 3, 2)
	// One run: 1 begin, 1 commit, 2 aborts — one with reason code 1, one with
	// code 5, which is past the three registered reasons and folds into the
	// last handle.
	m.Publish(1, 1, 2, []uint64{0, 1, 0, 0, 0, 1}, nil)
	if b, c, a := m.Begins.Value(), m.Commits.Value(), m.Aborts.Value(); b != 1 || c != 1 || a != 2 {
		t.Fatalf("begins/commits/aborts = %d/%d/%d, want 1/1/2", b, c, a)
	}
	if r1, r2 := m.ByReason[1].Value(), m.ByReason[2].Value(); r1 != 1 || r2 != 1 {
		t.Fatalf("ByReason[1], ByReason[2] = %d, %d, want 1, 1 (code 5 clamped)", r1, r2)
	}
	// A second run adds to the first; its switches to mode codes 1 and 3 both
	// land on the last of the two mode handles.
	m.Publish(0, 0, 0, nil, []uint64{0, 1, 0, 1})
	if got := m.ByMode[1].Value(); got != 2 {
		t.Fatalf("ByMode[1] = %d, want 2 (clamped)", got)
	}
	if got := m.ByMode[0].Value() + m.ByReason[0].Value(); got != 0 {
		t.Fatalf("untouched codes moved: %d", got)
	}
	for _, c := range m.ByReason {
		if !strings.HasPrefix(c.Name(), `htm_tx_aborts_by_reason_total{reason="`) {
			t.Fatalf("reason counter name %q", c.Name())
		}
	}
	for _, c := range m.ByMode {
		if !strings.HasPrefix(c.Name(), `tm_mode_switches_total{to="`) {
			t.Fatalf("mode counter name %q", c.Name())
		}
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
