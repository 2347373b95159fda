package obs

import (
	"sync"
	"time"
)

// WorkerTable is the live view of a worker pool: which cell each sweep
// worker is running, since when, and how much it has finished. The sweep
// scheduler publishes Begin/End transitions; the dashboard renders
// the table and the flight recorder scans it for stalled cells. Transitions
// are off the simulated hot path (one per cell, not per transaction), so a
// mutex is fine.
type WorkerTable struct {
	mu   sync.Mutex
	rows []WorkerRow
}

// WorkerRow is one worker's state snapshot.
type WorkerRow struct {
	ID      int    `json:"id"`
	State   string `json:"state"` // "idle" or "run"
	Cell    string `json:"cell,omitempty"`
	SinceMs int64  `json:"since_ms"` // unix ms of the last transition
	Done    uint64 `json:"done"`     // cells finished
}

// NewWorkerTable returns a table of n idle workers.
func NewWorkerTable(n int) *WorkerTable {
	t := &WorkerTable{rows: make([]WorkerRow, n)}
	now := time.Now().UnixMilli()
	for i := range t.rows {
		t.rows[i] = WorkerRow{ID: i, State: "idle", SinceMs: now}
	}
	return t
}

// Begin marks worker id as running cell.
func (t *WorkerTable) Begin(id int, cell string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 0 || id >= len(t.rows) {
		return
	}
	t.rows[id].State = "run"
	t.rows[id].Cell = cell
	t.rows[id].SinceMs = time.Now().UnixMilli()
}

// End marks worker id idle and counts the finished cell.
func (t *WorkerTable) End(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 0 || id >= len(t.rows) {
		return
	}
	t.rows[id].State = "idle"
	t.rows[id].Cell = ""
	t.rows[id].SinceMs = time.Now().UnixMilli()
	t.rows[id].Done++
}

// Snapshot copies all rows.
func (t *WorkerTable) Snapshot() []WorkerRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]WorkerRow(nil), t.rows...)
}

// Stalled returns the workers that have been running one cell for longer
// than timeout as of now.
func (t *WorkerTable) Stalled(now time.Time, timeout time.Duration) []WorkerRow {
	if timeout <= 0 {
		return nil
	}
	cutoff := now.Add(-timeout).UnixMilli()
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []WorkerRow
	for _, r := range t.rows {
		if r.State == "run" && r.SinceMs <= cutoff {
			out = append(out, r)
		}
	}
	return out
}
