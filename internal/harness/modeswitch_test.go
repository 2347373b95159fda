package harness

import (
	"testing"

	"htmcmp/internal/adapt"
	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
)

// TestAdaptiveModeSwitches drives the adaptive runtime's state machine
// through harness at test scale, where `-exp all`'s 4-thread adaptive cells
// never switch a site. POWER8 with a two-entry TMCAM (sweep's metricsCells)
// overflows it: ssca2 demotes sites to STM, bayes to STM and to the lock,
// and neither promotes one back within the run. With four entries, 8-thread
// ssca2 demotes, probes, wins its probes and promotes sites back to HTM.
func TestAdaptiveModeSwitches(t *testing.T) {
	for _, tc := range []struct {
		bench            string
		threads, tmcam   int
		toLock, promoted bool
	}{
		{"ssca2", 2, 2, false, false},
		{"bayes", 2, 2, true, false},
		{"ssca2", 8, 4, false, true},
	} {
		res, err := Run(RunSpec{
			Platform: platform.POWER8, Benchmark: tc.bench, Threads: tc.threads,
			Scale: stamp.ScaleTest, Variant: stamp.Modified, Seed: 42, Repeats: 1,
			Adaptive: true, TMCAMEntries: tc.tmcam,
		})
		if err != nil {
			t.Fatal(err)
		}
		to := res.TM.ModeSwitchesTo
		if to[adapt.ModeSTM] == 0 || (to[adapt.ModeLock] > 0) != tc.toLock || (to[adapt.ModeHTM] > 0) != tc.promoted {
			t.Errorf("%s, %d threads, %d-entry TMCAM: switches to htm/stm/lock %v; want some to stm, to the lock: %v, to htm: %v",
				tc.bench, tc.threads, tc.tmcam, to, tc.toLock, tc.promoted)
		}
	}
}
