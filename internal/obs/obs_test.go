package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func mkAbort(thread uint8, vclock, dur uint64, reason uint8, retry uint16, line uint32, by int16) Event {
	return Event{
		Kind: KindAbort, Thread: thread, Reason: reason, Retry: retry,
		Aborter: by, Line: line, ReadLines: 3, WriteLines: 2,
		VClock: vclock, Dur: dur,
	}
}

func mkCommit(thread uint8, vclock, dur uint64) Event {
	return Event{
		Kind: KindCommit, Thread: thread, Aborter: NoThread, Line: NoLine,
		ReadLines: 4, WriteLines: 1, VClock: vclock, Dur: dur,
	}
}

func mkBegin(thread uint8, vclock uint64) Event {
	return Event{Kind: KindBegin, Thread: thread, Aborter: NoThread, Line: NoLine, VClock: vclock}
}

func TestTracerMergesInClockOrder(t *testing.T) {
	tr := NewTracer()
	// Interleave two threads with distinct clocks plus a tie at 50; thread
	// 1's events are recorded before thread 0's clock-earlier commit.
	tr.Record(mkBegin(0, 10))
	tr.Record(mkBegin(1, 20))
	tr.Record(mkAbort(1, 50, 30, 1, 0, 7, 0))
	tr.Record(mkCommit(0, 50, 40))
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("len(Events) = %d, want 4", len(evs))
	}
	wantClocks := []uint64{10, 20, 50, 50}
	for i, ev := range evs {
		if ev.VClock != wantClocks[i] {
			t.Fatalf("event %d has VClock %d, want %d", i, ev.VClock, wantClocks[i])
		}
	}
	// Tie at 50 breaks by thread.
	if evs[2].Thread != 0 || evs[3].Thread != 1 {
		t.Fatalf("tie order = threads %d,%d, want 0,1", evs[2].Thread, evs[3].Thread)
	}
	// Events returns a copy: editing it leaves the log alone.
	evs[0].VClock = 99
	if again := tr.Events(); again[0].VClock != 10 {
		t.Fatal("Events exposed the log itself")
	}
}

func TestJSONLRoundTripAndValidate(t *testing.T) {
	events := []Event{
		mkBegin(0, 10),
		mkAbort(0, 40, 30, 1, 0, 123, 1),
		mkBegin(0, 45),
		mkCommit(0, 90, 45),
		mkBegin(1, 12),
		mkCommit(1, 70, 58),
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "events.jsonl")
	if err := WriteJSONLFile(path, events); err != nil {
		t.Fatalf("WriteJSONLFile: %v", err)
	}
	n, err := ValidateFile(path)
	if err != nil {
		t.Fatalf("ValidateFile: %v", err)
	}
	if n != len(events) {
		t.Fatalf("ValidateFile counted %d events, want %d", n, len(events))
	}
	// Each line decodes back to exactly the wire form its event encodes to.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines) != len(events) {
		t.Fatalf("file holds %d lines, want %d", len(lines), len(events))
	}
	for i, line := range lines {
		var back eventJSON
		if err := json.Unmarshal([]byte(line), &back); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		if want := toJSON(events[i]); !reflect.DeepEqual(back, want) {
			t.Fatalf("line %d round trip mismatch:\n got %+v\nwant %+v", i+1, back, want)
		}
	}
}

func TestValidateRejectsBadStreams(t *testing.T) {
	cases := []struct {
		name string
		line string
		want string
	}{
		{"unknown kind", `{"kind":"frobnicate","thread":0,"vclock":1}`, "unknown event kind"},
		{"unknown field", `{"kind":"begin","thread":0,"vclock":1,"bogus":2}`, "bogus"},
		{"abort without reason", `{"kind":"abort","thread":0,"vclock":9,"dur":2}`, "without a reason"},
		{"commit with reason", `{"kind":"commit","thread":0,"vclock":9,"dur":2,"reason":"conflict"}`, "abort reason"},
		{"dur exceeds clock", `{"kind":"commit","thread":0,"vclock":5,"dur":9}`, "exceeds vclock"},
		{"begin with dur", `{"kind":"begin","thread":0,"vclock":9,"dur":2}`, "commit/abort fields"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Validate(strings.NewReader(tc.line + "\n"))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate error = %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestValidateRejectsBackwardsClock(t *testing.T) {
	stream := `{"kind":"begin","thread":3,"vclock":100}
{"kind":"begin","thread":3,"vclock":50}
`
	_, err := Validate(strings.NewReader(stream))
	if err == nil || !strings.Contains(err.Error(), "backwards") {
		t.Fatalf("Validate error = %v, want clock-went-backwards", err)
	}
}

func TestChromeTraceIsValidJSONWithTracks(t *testing.T) {
	events := []Event{
		mkBegin(0, 10),
		mkAbort(0, 40, 30, 1, 0, 123, 1),
		mkBegin(1, 12),
		mkCommit(1, 70, 58),
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("exporter produced invalid JSON")
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    uint64         `json:"ts"`
			Dur   uint64         `json:"dur"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	var meta, complete, instants int
	for _, ev := range doc.TraceEvents {
		switch ev.Phase {
		case "M":
			meta++
		case "X":
			complete++
			if ev.TS+ev.Dur == 0 {
				t.Fatalf("complete event %q has zero extent", ev.Name)
			}
		case "i":
			instants++
		}
	}
	if meta != 2 {
		t.Fatalf("thread_name metadata events = %d, want 2 (one per thread)", meta)
	}
	if complete != 2 {
		t.Fatalf("complete events = %d, want 2 (one commit + one abort slice)", complete)
	}
	if instants != 1 {
		t.Fatalf("instant events = %d, want 1 (the abort marker)", instants)
	}
}

func TestAggregateReport(t *testing.T) {
	// Thread 0: abort twice on line 7 (retry depths 0 and 1), then commit.
	// Thread 1: one commit; one capacity abort with no line.
	events := []Event{
		mkBegin(0, 0),
		mkAbort(0, 30, 30, 1, 0, 7, 1),
		mkBegin(0, 35),
		mkAbort(0, 60, 25, 1, 1, 7, 1),
		mkBegin(0, 65),
		mkCommit(0, 100, 35),
		mkBegin(1, 0),
		mkCommit(1, 40, 40),
		mkBegin(1, 45),
		mkAbort(1, 90, 45, 3, 0, NoLine, NoThread),
	}
	regions := map[uint64]string{7 * 64: "stamp/hot-node"}
	rep := Aggregate(events, ReportOptions{
		TopN:     10,
		LineSize: 64,
		RegionAt: func(a uint64) string { return regions[a] },
	})
	if rep.Begins != 5 || rep.Commits != 2 || rep.Aborts != 3 {
		t.Fatalf("counts = begins %d commits %d aborts %d, want 5/2/3", rep.Begins, rep.Commits, rep.Aborts)
	}
	if len(rep.Reasons) != 2 {
		t.Fatalf("reasons = %d, want 2", len(rep.Reasons))
	}
	if rep.Reasons[0].Total != 2 || rep.Reasons[0].Depth[0] != 1 || rep.Reasons[0].Depth[1] != 1 {
		t.Fatalf("top reason hist = %+v, want total 2 with depth0=1 depth1=1", rep.Reasons[0])
	}
	if len(rep.TopLines) != 1 {
		t.Fatalf("top lines = %d, want 1 (capacity abort carries no line)", len(rep.TopLines))
	}
	tl := rep.TopLines[0]
	if tl.Line != 7 || tl.Aborts != 2 || tl.Addr != 7*64 || tl.Region != "stamp/hot-node" {
		t.Fatalf("top line = %+v, want line 7 x2 at %#x region stamp/hot-node", tl, 7*64)
	}
	if tl.Share != 1.0 {
		t.Fatalf("share = %v, want 1.0", tl.Share)
	}
	if rep.LatMax != 45 {
		t.Fatalf("LatMax = %v, want 45", rep.LatMax)
	}
	if rep.LatP50 == 0 {
		t.Fatal("LatP50 should be nonzero")
	}

	var buf bytes.Buffer
	rep.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"abort ratio", "stamp/hot-node", "retry depth", "p90"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fprint output missing %q:\n%s", want, out)
		}
	}
}

func TestAggregateRetryBucketSaturates(t *testing.T) {
	events := []Event{mkAbort(0, 10, 5, 1, 9, 3, NoThread)}
	rep := Aggregate(events, ReportOptions{})
	if rep.Reasons[0].Depth[RetryBuckets-1] != 1 {
		t.Fatalf("retry depth 9 should land in the 4+ bucket: %+v", rep.Reasons[0])
	}
}

func TestValidateFileMissing(t *testing.T) {
	if _, err := ValidateFile(filepath.Join(t.TempDir(), "nope.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("missing file error = %v, want IsNotExist", err)
	}
}
