package harness

import (
	"strings"
	"testing"

	"htmcmp/internal/features"
	"htmcmp/internal/platform"
	"htmcmp/internal/trace"
)

// zeroCells answers every request with a zero result, as the sweep's
// planning pass does, and counts the requests.
type zeroCells struct{ requests int }

func (z *zeroCells) Measure(RunSpec, bool) (Result, error) { z.requests++; return Result{}, nil }
func (z *zeroCells) Collect(string, platform.Kind, trace.Options) (trace.Footprint, error) {
	z.requests++
	return trace.Footprint{}, nil
}
func (z *zeroCells) CLQ(features.CLQPoint) (features.PointResult, error) {
	z.requests++
	return features.PointResult{}, nil
}
func (z *zeroCells) TLS(features.TLSPoint) (features.PointResult, error) {
	z.requests++
	return features.PointResult{}, nil
}

// TestExperimentsRender: every row of Experiments renders titled tables
// from zero results, and every row but the static table1 requests its
// simulations from cells rather than running them itself. Names are
// unique, and SelectExperiments("all") is the InAll rows in table order.
func TestExperimentsRender(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments {
		if seen[e.Name] || e.Name == "all" || e.Paper == "" {
			t.Errorf("row %q: a duplicate or reserved name, or no paper content", e.Name)
		}
		seen[e.Name] = true
		cells := &zeroCells{}
		tables, err := e.Tables(Options{Log: &strings.Builder{}}, cells)
		if err != nil {
			t.Errorf("-exp %s: %v", e.Name, err)
			continue
		}
		if len(tables) == 0 {
			t.Errorf("-exp %s renders no table", e.Name)
		}
		for _, tb := range tables {
			if tb.Title == "" || len(tb.Header) == 0 || len(tb.Rows) == 0 {
				t.Errorf("-exp %s: table %q has no title, header or rows", e.Name, tb.Title)
			}
		}
		if (cells.requests == 0) != (e.Name == "table1") {
			t.Errorf("-exp %s made %d requests of its cells", e.Name, cells.requests)
		}
	}
	all, err := SelectExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, e := range all {
		got = append(got, e.Name)
	}
	for _, e := range Experiments {
		if e.InAll {
			want = append(want, e.Name)
		}
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("-exp all runs %v, want %v", got, want)
	}
	if _, err := SelectExperiments("fig8"); err == nil || !strings.Contains(err.Error(), "table1, fig2, ") {
		t.Errorf("-exp fig8: err = %v, want the valid names listed", err)
	}
}
