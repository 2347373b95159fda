package obs

import (
	"testing"
	"time"
)

func TestSamplerRatesAndHistory(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tx_total")
	g := r.Gauge("busy")
	s := NewSampler(r, time.Second, 8)

	t0 := time.UnixMilli(1_000_000)
	c.Add(10)
	g.Set(2)
	s.Tick(t0)
	c.Add(30)
	g.Set(5)
	s.Tick(t0.Add(2 * time.Second))

	snap, ok := s.SnapshotOne("tx_total", 0)
	if !ok {
		t.Fatal("tx_total series missing")
	}
	if len(snap.Vals) != 2 || snap.Vals[0] != 10 || snap.Vals[1] != 40 {
		t.Fatalf("values = %v", snap.Vals)
	}
	// First tick has no baseline; second tick: 30 more over 2s = 15/s.
	if snap.Rates[0] != 0 || snap.Rates[1] != 15 {
		t.Fatalf("rates = %v", snap.Rates)
	}
	if snap.Times[1]-snap.Times[0] != 2000 {
		t.Fatalf("times = %v", snap.Times)
	}

	gs, ok := s.SnapshotOne("busy", 0)
	if !ok || gs.Vals[1] != 5 || gs.Rates[1] != 0 {
		t.Fatalf("gauge series = %+v ok=%v", gs, ok)
	}
	if s.Ticks() != 2 {
		t.Fatalf("Ticks = %d", s.Ticks())
	}
}

func TestSeriesRingWraps(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total")
	s := NewSampler(r, time.Second, 4)
	t0 := time.UnixMilli(0)
	for i := 0; i < 10; i++ {
		c.Inc()
		s.Tick(t0.Add(time.Duration(i) * time.Second))
	}
	snap, _ := s.SnapshotOne("n_total", 0)
	if len(snap.Vals) != 4 {
		t.Fatalf("retained = %d, want 4", len(snap.Vals))
	}
	// Oldest-first: the last four samples saw values 7..10.
	for i, want := range []float64{7, 8, 9, 10} {
		if snap.Vals[i] != want {
			t.Fatalf("vals = %v", snap.Vals)
		}
	}
	// maxPoints truncation keeps the most recent points.
	short, _ := s.SnapshotOne("n_total", 2)
	if len(short.Vals) != 2 || short.Vals[1] != 10 {
		t.Fatalf("maxPoints snapshot = %v", short.Vals)
	}
}

func TestSamplerSnapshotSortedAndHooks(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total")
	r.Counter("a_total")
	r.Gauge("c")
	s := NewSampler(r, time.Second, 4)

	var hookRates map[string]float64
	s.OnSample(func(_ time.Time, rates map[string]float64) { hookRates = rates })
	s.Tick(time.UnixMilli(1000))

	snaps := s.Snapshot(0)
	if len(snaps) != 3 {
		t.Fatalf("series = %d", len(snaps))
	}
	if snaps[0].Name != "a_total" || snaps[1].Name != "b_total" || snaps[2].Name != "c" {
		t.Fatalf("order = %s, %s, %s", snaps[0].Name, snaps[1].Name, snaps[2].Name)
	}
	if hookRates == nil {
		t.Fatal("OnSample hook did not run")
	}
	if _, ok := hookRates["a_total"]; !ok {
		t.Fatalf("hook rates missing counter: %v", hookRates)
	}
}

func TestSamplerStartStop(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total")
	s := NewSampler(r, time.Millisecond, 16)
	s.Start()
	s.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for s.Ticks() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	if s.Ticks() == 0 {
		t.Fatal("background sampler never ticked")
	}
	s.Stop() // idempotent after stop
}
