package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer. Times are
// nanoseconds since the recorder was made.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	// Cell is the sweep cache key of the cell the span worked for, shared by
	// all spans of that cell; empty outside cells.
	Cell  string `json:"cell,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// unattributed is the layer of time spent in the benchmark's own code
// between calls into the layers.
const unattributed = "unattributed"

// recorder keeps spans in memory; they are written out once, at exit. It
// serves one goroutine (both twins call into the layers from one). A nil
// recorder records nothing, which is how a twin runs with tracing off.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int  // stack of open span ids
	cell  string // identifier stamped on new spans
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (r *recorder) begin(layer, name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Cell: r.cell,
		Start: int64(time.Since(r.epoch))})
	r.open = append(r.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	n := len(r.open)
	if n == 0 || r.open[n-1] != id {
		panic(fmt.Sprintf("bench: span %d closed out of order", id))
	}
	r.spans[id].End = int64(time.Since(r.epoch))
	r.open = r.open[:n-1]
}

func (r *recorder) setCell(key string) {
	if r != nil {
		r.cell = key
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Overlapping children are counted
// once, and a child is clipped to its parent.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// layerSeconds sums self time per layer. Roots belong to the unattributed
// layer, so the values sum to the roots' total duration.
func layerSeconds(spans []span) map[string]float64 {
	out := map[string]float64{}
	for i, ns := range selfTimes(spans) {
		out[spans[i].Layer] += float64(ns) / 1e9
	}
	return out
}

// nameSeconds sums the durations of all spans with the given name.
func nameSeconds(spans []span, name string) float64 {
	t := int64(0)
	for _, s := range spans {
		if s.Name == name {
			t += s.End - s.Start
		}
	}
	return float64(t) / 1e9
}

// rootSeconds is the total duration of the root spans.
func rootSeconds(spans []span) float64 {
	t := int64(0)
	for _, s := range spans {
		if s.Parent < 0 {
			t += s.End - s.Start
		}
	}
	return float64(t) / 1e9
}

// printLayerTable prints per-layer self time with shares of the root span.
func printLayerTable(w io.Writer, title string, spans []span, stale bool) {
	total := rootSeconds(spans)
	byLayer := layerSeconds(spans)
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		if l != unattributed {
			layers = append(layers, l)
		}
	}
	sort.Slice(layers, func(a, b int) bool { return byLayer[layers[a]] > byLayer[layers[b]] })
	layers = append(layers, unattributed)
	mark := ""
	if stale {
		mark = "  [stale: the replica no longer tracks harness.Run, see harness.replica_ratio]"
	}
	fmt.Fprintf(w, "%s: self time by layer, root %.3f s, %d spans%s\n", title, total, len(spans), mark)
	for _, l := range layers {
		fmt.Fprintf(w, "  %-14s %9.4f s  %5.1f %%\n", l, byLayer[l], 100*ratio(byLayer[l], total))
	}
}

// writeSpans writes each twin's spans as a JSON array under the twin's name;
// span ids are indexes into their own array.
func writeSpans(path string, twins map[string][]span) error {
	data, err := json.Marshal(twins)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
