package main

import (
	"os"
	"path/filepath"
	"testing"

	"htmcmp/internal/obs"
	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
)

func TestParsePlatform(t *testing.T) {
	cases := []struct {
		in   string
		want platform.Kind
		ok   bool
	}{
		{"bgq", platform.BlueGeneQ, true},
		{"bg", platform.BlueGeneQ, true},
		{"zec12", platform.ZEC12, true},
		{"z12", platform.ZEC12, true},
		{"intel", platform.IntelCore, true},
		{"ic", platform.IntelCore, true},
		{"power8", platform.POWER8, true},
		{"p8", platform.POWER8, true},
		{"sparc", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, err := platform.ParseKind(c.in)
		if (err == nil) != c.ok {
			t.Errorf("platform.ParseKind(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("platform.ParseKind(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseScale(t *testing.T) {
	cases := []struct {
		in   string
		want stamp.Scale
		ok   bool
	}{
		{"test", stamp.ScaleTest, true},
		{"sim", stamp.ScaleSim, true},
		{"full", stamp.ScaleFull, true},
		{"huge", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, err := stamp.ParseScale(c.in)
		if (err == nil) != c.ok {
			t.Errorf("stamp.ParseScale(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("stamp.ParseScale(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRunChecks(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.jsonl")
	if err := obs.WriteJSONLFile(good, []obs.Event{
		{Kind: obs.KindBegin, Thread: 0, VClock: 1, Line: obs.NoLine, Aborter: obs.NoThread},
		{Kind: obs.KindCommit, Thread: 0, VClock: 5, Dur: 4, Line: obs.NoLine, Aborter: obs.NoThread},
	}); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte(`{"kind":"warp"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	goodTrace := filepath.Join(dir, "good.trace.json")
	if err := os.WriteFile(goodTrace, []byte(`{"traceEvents":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	badTrace := filepath.Join(dir, "bad.trace.json")
	if err := os.WriteFile(badTrace, []byte(`{"traceEvents":`), 0o644); err != nil {
		t.Fatal(err)
	}

	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()

	cases := []struct {
		events, trace string
		want          int
	}{
		{good, "", 0},
		{good, goodTrace, 0},
		{bad, "", 1},
		{"", badTrace, 1},
		{good, badTrace, 1},
		{filepath.Join(dir, "missing.jsonl"), "", 1},
	}
	for _, c := range cases {
		if got := runChecks(c.events, c.trace, null, null); got != c.want {
			t.Errorf("runChecks(%q, %q) = %d, want %d", c.events, c.trace, got, c.want)
		}
	}
}
