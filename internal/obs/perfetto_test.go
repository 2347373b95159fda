package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// Perfetto exporter edge cases.

func decodeChromeTrace(t *testing.T, events []Event) chromeTrace {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v\n%s", err, buf.String())
	}
	return doc
}

func TestChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traceEvents":[]`) {
		t.Fatalf("empty trace must serialise traceEvents as [], got %s", buf.String())
	}
	doc := decodeChromeTrace(t, nil)
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("events = %+v", doc.TraceEvents)
	}
}

func TestChromeTraceSingleEvent(t *testing.T) {
	doc := decodeChromeTrace(t, []Event{mkCommit(3, 10, 4)})
	// One thread_name metadata record plus one X slice.
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("events = %d, want 2: %+v", len(doc.TraceEvents), doc.TraceEvents)
	}
	meta, slice := doc.TraceEvents[0], doc.TraceEvents[1]
	if meta.Phase != "M" || meta.TID != 3 {
		t.Fatalf("metadata = %+v", meta)
	}
	if slice.Phase != "X" || slice.TS != 6 || slice.Dur == nil || *slice.Dur != 4 {
		t.Fatalf("slice = %+v", slice)
	}
}

func TestChromeTraceCrossThreadTimestampOrdering(t *testing.T) {
	// Thread 1's commit starts (vclock-dur=2) before thread 0's (TS 5)
	// even though thread 0's event comes first in the stream; both slices
	// must carry absolute virtual timestamps, not stream order.
	events := []Event{
		mkCommit(0, 8, 3),   // TS 5
		mkCommit(1, 12, 10), // TS 2
	}
	doc := decodeChromeTrace(t, events)
	var ts []uint64
	byTID := map[int]uint64{}
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" {
			ts = append(ts, ev.TS)
			byTID[ev.TID] = ev.TS
		}
	}
	if len(ts) != 2 || byTID[0] != 5 || byTID[1] != 2 {
		t.Fatalf("slice timestamps = %v (byTID %v)", ts, byTID)
	}
}

func TestChromeTraceClampsUnderflow(t *testing.T) {
	ev := mkCommit(0, 3, 9) // malformed: dur exceeds vclock
	doc := decodeChromeTrace(t, []Event{ev})
	for _, e := range doc.TraceEvents {
		if e.Phase == "X" && e.TS != 0 {
			t.Fatalf("underflowing slice TS = %d, want clamp to 0", e.TS)
		}
	}
}
