package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// runAA is the A/A check: two complete untraced sets on the same tree must
// agree within the bounds the benchmark sets for a change.
func (e *env) runAA(seconds float64, repsFor func(workload) int) error {
	type row struct {
		Workload string  `json:"workload"`
		Metric   string  `json:"metric"`
		A        float64 `json:"a"`
		B        float64 `json:"b"`
		RelDiff  float64 `json:"rel_diff"`
		Bound    float64 `json:"bound"`
		Within   bool    `json:"within"`
	}
	var sets [2]map[string]resultLine
	for i := range sets {
		sets[i] = map[string]resultLine{}
		buildS, err := e.build() // each set pays its own set-up
		if err != nil {
			return err
		}
		for _, w := range workloads {
			line, _, err := e.report(e.runWorkload(w, seconds, repsFor(w), buildS))
			if err != nil {
				return fmt.Errorf("set %c, %s: %w", 'A'+i, w.Name, err)
			}
			sets[i][w.Name] = line
		}
	}
	var rows []row
	ok := true
	fmt.Fprintf(e.W, "\n== A/A: two sets of the same tree, B against A\n")
	for _, w := range workloads {
		a, b := sets[0][w.Name], sets[1][w.Name]
		if !a.Correct || !b.Correct || a.Failed+b.Failed > 0 {
			fmt.Fprintf(e.W, "   %-14s output checks failed or cells failed\n", w.Name)
			ok = false
		}
		for _, d := range endToEnd {
			x, y := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			r := row{w.Name, d.Name, x, y, ratio(y-x, x), d.Bound, true}
			// Worse means higher for every end-to-end metric declared.
			r.Within = r.RelDiff <= d.Bound
			ok = ok && r.Within
			rows = append(rows, r)
			fmt.Fprintf(e.W, "   %-14s %-8s A %9.4f  B %9.4f  %+6.1f %% (bound +%.0f %%)  %s\n",
				w.Name, d.Name, x, y, 100*r.RelDiff, 100*d.Bound, verdict(r.Within))
		}
	}
	if err := os.MkdirAll(e.OutDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(e.OutDir, "aa.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(e.W, "   comparison written to %s\n", path)
	if !ok {
		return fmt.Errorf("A/A sets disagree beyond the bounds")
	}
	return nil
}
