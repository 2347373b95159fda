package obs

import (
	"encoding/json"
	"io"
	"strconv"
)

// Chrome trace_event JSON, the format Perfetto and chrome://tracing load.
// Virtual clocks map directly onto the timestamp axis (microseconds in the
// viewer, cost units here): each simulated thread is a track, each committed
// or aborted transaction a complete ("X") slice from its begin to its end,
// and each abort additionally an instant ("i") marker carrying the reason
// and attribution args.

type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    uint64         `json:"ts"`
	Dur   *uint64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes events as a Chrome trace_event JSON document, one
// track per simulated thread with the virtual clock as the time axis. Open
// the output in Perfetto (ui.perfetto.dev) or chrome://tracing.
func WriteChromeTrace(w io.Writer, events []Event) error {
	// TraceEvents starts non-nil so an empty trace still serialises as
	// "traceEvents": [] — viewers reject a JSON null there.
	doc := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ns"}

	threads := map[uint8]bool{}
	for _, ev := range events {
		threads[ev.Thread] = true
	}
	for tid := 0; tid < 256; tid++ {
		if !threads[uint8(tid)] {
			continue
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name:  "thread_name",
			Phase: "M",
			PID:   0,
			TID:   tid,
			Args:  map[string]any{"name": "sim-thread " + strconv.Itoa(tid)},
		})
	}

	for _, ev := range events {
		switch ev.Kind {
		case KindCommit, KindAbort:
			name := "commit"
			if ev.Kind == KindAbort {
				name = "abort:" + ReasonName(ev.Reason)
			}
			dur := ev.Dur
			// Clamp rather than underflow when a malformed event claims a
			// duration longer than its clock.
			ts := uint64(0)
			if ev.VClock >= ev.Dur {
				ts = ev.VClock - ev.Dur
			}
			args := map[string]any{
				"read_lines":  ev.ReadLines,
				"write_lines": ev.WriteLines,
				"retry":       ev.Retry,
			}
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name:  name,
				Phase: "X",
				TS:    ts,
				Dur:   &dur,
				PID:   0,
				TID:   int(ev.Thread),
				Args:  args,
			})
			if ev.Kind == KindAbort {
				iargs := map[string]any{"reason": ReasonName(ev.Reason)}
				if ev.Line != NoLine {
					iargs["line"] = ev.Line
				}
				if ev.Aborter != NoThread {
					iargs["aborter"] = ev.Aborter
				}
				doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
					Name:  "abort",
					Phase: "i",
					TS:    ev.VClock,
					PID:   0,
					TID:   int(ev.Thread),
					Scope: "t",
					Args:  iargs,
				})
			}
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
