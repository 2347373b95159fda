package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// eventJSON is the JSONL wire schema of one Event. Kind and Reason travel
// as symbolic names; numeric fields that do not apply to the event kind are
// omitted. ValidateFile enforces exactly this shape (unknown fields are a
// schema-drift error).
type eventJSON struct {
	Kind   string `json:"kind"`
	Thread uint8  `json:"thread"`
	VClock uint64 `json:"vclock"`
	Retry  uint16 `json:"retry,omitempty"`
	// Abort-only fields.
	Reason  string  `json:"reason,omitempty"`
	Line    *uint32 `json:"line,omitempty"`
	Aborter *int16  `json:"aborter,omitempty"`
	// Commit/abort fields.
	ReadLines  uint32 `json:"read_lines,omitempty"`
	WriteLines uint32 `json:"write_lines,omitempty"`
	Dur        uint64 `json:"dur,omitempty"`
	// Mode-switch-only fields (adaptive runtime site transitions).
	From string  `json:"from,omitempty"`
	To   string  `json:"to,omitempty"`
	Site *uint32 `json:"site,omitempty"`
}

func toJSON(ev Event) eventJSON {
	j := eventJSON{
		Kind:   ev.Kind.String(),
		Thread: ev.Thread,
		VClock: ev.VClock,
		Retry:  ev.Retry,
	}
	if ev.Kind == KindCommit || ev.Kind == KindAbort {
		j.ReadLines = ev.ReadLines
		j.WriteLines = ev.WriteLines
		j.Dur = ev.Dur
	}
	if ev.Kind == KindAbort {
		j.Reason = ReasonName(ev.Reason)
		if ev.Line != NoLine {
			line := ev.Line
			j.Line = &line
		}
		if ev.Aborter != NoThread {
			by := ev.Aborter
			j.Aborter = &by
		}
	}
	if ev.Kind == KindModeSwitch {
		j.From = ModeName(uint8(ev.Aborter))
		j.To = ModeName(ev.Reason)
		if ev.Line != NoLine {
			site := ev.Line
			j.Site = &site
		}
	}
	return j
}

// WriteJSONL writes events as JSON Lines: one object per event, schema as
// validated by ValidateFile.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		if err := enc.Encode(toJSON(ev)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteJSONLFile writes events to path, creating or truncating it.
func WriteJSONLFile(path string, events []Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteJSONL(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Validate checks an event stream in JSONL form against the schema: every
// line must parse with no unknown fields, kinds and reasons must be
// well-formed, durations must not exceed the event clock, and each thread's
// clock must be non-decreasing. It returns the number of events read.
func Validate(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	count := 0
	lastClock := map[uint8]uint64{}
	for lineNo := 1; sc.Scan(); lineNo++ {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var j eventJSON
		if err := dec.Decode(&j); err != nil {
			return count, fmt.Errorf("line %d: %v", lineNo, err)
		}
		switch j.Kind {
		case "begin":
			if j.Reason != "" || j.Dur != 0 {
				return count, fmt.Errorf("line %d: begin event carries commit/abort fields", lineNo)
			}
		case "commit":
			if j.Reason != "" {
				return count, fmt.Errorf("line %d: commit event carries an abort reason", lineNo)
			}
		case "abort":
			if j.Reason == "" {
				return count, fmt.Errorf("line %d: abort event without a reason", lineNo)
			}
		case "mode":
			if j.From == "" || j.To == "" {
				return count, fmt.Errorf("line %d: mode event without from/to modes", lineNo)
			}
			if j.Reason != "" || j.Dur != 0 {
				return count, fmt.Errorf("line %d: mode event carries commit/abort fields", lineNo)
			}
		default:
			return count, fmt.Errorf("line %d: unknown event kind %q", lineNo, j.Kind)
		}
		if j.Kind != "mode" && (j.From != "" || j.To != "" || j.Site != nil) {
			return count, fmt.Errorf("line %d: %s event carries mode-switch fields", lineNo, j.Kind)
		}
		if j.Dur > j.VClock {
			return count, fmt.Errorf("line %d: dur %d exceeds vclock %d", lineNo, j.Dur, j.VClock)
		}
		if last, ok := lastClock[j.Thread]; ok && j.VClock < last {
			return count, fmt.Errorf("line %d: thread %d clock went backwards (%d < %d)",
				lineNo, j.Thread, j.VClock, last)
		}
		lastClock[j.Thread] = j.VClock
		count++
	}
	return count, sc.Err()
}

// ValidateFile is Validate over the file at path. CI uses it to guard the
// emitted event streams against schema drift.
func ValidateFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n, err := Validate(f)
	if err != nil {
		return n, fmt.Errorf("%s: %w", path, err)
	}
	return n, nil
}
