package obs

import (
	"fmt"
	"io"
	"sort"

	"htmcmp/internal/stats"
)

// RetryBuckets is the number of retry-depth buckets in the abort histogram:
// depths 0..3 get their own bucket, 4 and deeper share the last.
const RetryBuckets = 5

// ReportOptions configures Aggregate.
type ReportOptions struct {
	// TopN is how many conflicting lines to keep in TopLines (default 15).
	TopN int
	// LineSize converts a line index back to a byte address for region
	// lookup (0 disables address/region resolution).
	LineSize int
	// RegionAt names the labelled region containing a byte address, or ""
	// (typically mem.Space.RegionAt). Only consulted when LineSize > 0.
	RegionAt func(addr uint64) string
}

// LineCount is one row of the abort-attribution table: a conflict-detection
// line and how many aborts were attributed to it.
type LineCount struct {
	Line   uint32  `json:"line"`
	Addr   uint64  `json:"addr"`
	Region string  `json:"region,omitempty"`
	Aborts uint64  `json:"aborts"`
	Share  float64 `json:"share"` // fraction of line-attributed aborts
}

// ReasonHist is the abort count for one reason across retry depths.
type ReasonHist struct {
	Reason string               `json:"reason"`
	Total  uint64               `json:"total"`
	Depth  [RetryBuckets]uint64 `json:"by_retry_depth"` // 0,1,2,3,4+
}

// Report is the in-memory aggregation of an event stream: the
// abort-attribution tables behind the paper's Figure 9-style breakdowns.
type Report struct {
	Events  uint64 `json:"events"`
	Begins  uint64 `json:"begins"`
	Commits uint64 `json:"commits"`
	Aborts  uint64 `json:"aborts"`
	// ModeSwitches counts adaptive-runtime site transitions in the stream
	// (0 for static-policy runs).
	ModeSwitches uint64 `json:"mode_switches,omitempty"`

	// Reasons is the abort-reason × retry-depth histogram, most frequent
	// reason first.
	Reasons []ReasonHist `json:"reasons,omitempty"`

	// TopLines ranks conflict-detection lines by attributed aborts.
	TopLines []LineCount `json:"top_lines,omitempty"`

	// Latency percentiles of per-transaction virtual duration (commit and
	// abort events' Dur), in cost units.
	LatP50 float64 `json:"lat_p50"`
	LatP90 float64 `json:"lat_p90"`
	LatP99 float64 `json:"lat_p99"`
	LatMax float64 `json:"lat_max"`

	// Footprint percentiles over committed transactions (distinct lines).
	ReadLinesP90  float64 `json:"read_lines_p90"`
	WriteLinesP90 float64 `json:"write_lines_p90"`
}

// retryBucket maps a retry depth to its histogram bucket.
func retryBucket(d uint16) int {
	if d >= RetryBuckets-1 {
		return RetryBuckets - 1
	}
	return int(d)
}

// Aggregate folds an event stream into a Report.
func Aggregate(events []Event, opt ReportOptions) *Report {
	if opt.TopN <= 0 {
		opt.TopN = 15
	}
	r := &Report{Events: uint64(len(events))}

	byReason := map[uint8]*ReasonHist{}
	byLine := map[uint32]uint64{}
	var lats []float64
	var readFp, writeFp []int

	for _, ev := range events {
		switch ev.Kind {
		case KindBegin:
			r.Begins++
		case KindCommit:
			r.Commits++
			lats = append(lats, float64(ev.Dur))
			readFp = append(readFp, int(ev.ReadLines))
			writeFp = append(writeFp, int(ev.WriteLines))
		case KindAbort:
			r.Aborts++
			lats = append(lats, float64(ev.Dur))
			h := byReason[ev.Reason]
			if h == nil {
				h = &ReasonHist{Reason: ReasonName(ev.Reason)}
				byReason[ev.Reason] = h
			}
			h.Total++
			h.Depth[retryBucket(ev.Retry)]++
			if ev.Line != NoLine {
				byLine[ev.Line]++
			}
		case KindModeSwitch:
			r.ModeSwitches++
		}
	}

	for _, h := range byReason {
		r.Reasons = append(r.Reasons, *h)
	}
	sort.Slice(r.Reasons, func(i, j int) bool {
		if r.Reasons[i].Total != r.Reasons[j].Total {
			return r.Reasons[i].Total > r.Reasons[j].Total
		}
		return r.Reasons[i].Reason < r.Reasons[j].Reason
	})

	var lineTotal uint64
	for _, n := range byLine {
		lineTotal += n
	}
	for line, n := range byLine {
		lc := LineCount{Line: line, Aborts: n}
		if lineTotal > 0 {
			lc.Share = float64(n) / float64(lineTotal)
		}
		if opt.LineSize > 0 {
			lc.Addr = uint64(line) * uint64(opt.LineSize)
			if opt.RegionAt != nil {
				lc.Region = opt.RegionAt(lc.Addr)
			}
		}
		r.TopLines = append(r.TopLines, lc)
	}
	sort.Slice(r.TopLines, func(i, j int) bool {
		if r.TopLines[i].Aborts != r.TopLines[j].Aborts {
			return r.TopLines[i].Aborts > r.TopLines[j].Aborts
		}
		return r.TopLines[i].Line < r.TopLines[j].Line
	})
	if len(r.TopLines) > opt.TopN {
		r.TopLines = r.TopLines[:opt.TopN]
	}

	r.LatP50 = stats.Percentile(lats, 50)
	r.LatP90 = stats.Percentile(lats, 90)
	r.LatP99 = stats.Percentile(lats, 99)
	r.LatMax = stats.Max(lats)
	r.ReadLinesP90 = stats.PercentileInts(readFp, 90)
	r.WriteLinesP90 = stats.PercentileInts(writeFp, 90)
	return r
}

// Fprint renders the report as the abort-attribution tables htmtrace
// prints.
func (r *Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "events: %d (begins %d, commits %d, aborts %d", r.Events, r.Begins, r.Commits, r.Aborts)
	if r.Begins > 0 {
		fmt.Fprintf(w, ", abort ratio %.1f%%", 100*float64(r.Aborts)/float64(r.Begins))
	}
	fmt.Fprint(w, ")\n")
	if r.ModeSwitches > 0 {
		fmt.Fprintf(w, "adaptive mode switches: %d\n", r.ModeSwitches)
	}

	fmt.Fprintf(w, "tx latency (vclock units): p50 %.0f  p90 %.0f  p99 %.0f  max %.0f\n",
		r.LatP50, r.LatP90, r.LatP99, r.LatMax)
	fmt.Fprintf(w, "committed footprint p90: %.0f read lines, %.0f write lines\n",
		r.ReadLinesP90, r.WriteLinesP90)

	if len(r.Reasons) > 0 {
		fmt.Fprint(w, "\naborts by reason x retry depth (columns: depth 0,1,2,3,4+):\n")
		fmt.Fprintf(w, "  %-20s %8s  %8s %8s %8s %8s %8s\n", "reason", "total", "0", "1", "2", "3", "4+")
		for _, h := range r.Reasons {
			fmt.Fprintf(w, "  %-20s %8d  %8d %8d %8d %8d %8d\n",
				h.Reason, h.Total, h.Depth[0], h.Depth[1], h.Depth[2], h.Depth[3], h.Depth[4])
		}
	}

	if len(r.TopLines) > 0 {
		fmt.Fprint(w, "\ntop conflicting lines:\n")
		fmt.Fprintf(w, "  %-8s %-12s %8s %7s  %s\n", "line", "addr", "aborts", "share", "region")
		for _, lc := range r.TopLines {
			region := lc.Region
			if region == "" {
				region = "?"
			}
			fmt.Fprintf(w, "  %-8d %#-12x %8d %6.1f%%  %s\n",
				lc.Line, lc.Addr, lc.Aborts, 100*lc.Share, region)
		}
	}
}
