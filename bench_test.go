package htmcmp

import (
	"testing"

	"htmcmp/internal/harness"
	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
)

// Ablation benches for the design choices DESIGN.md calls out.

func BenchmarkAblationPrefetch(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		on, err := harness.Run(harness.RunSpec{
			Platform: platform.IntelCore, Benchmark: "kmeans-low",
			Threads: 4, Scale: stamp.ScaleTest, Repeats: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		off, err := harness.Run(harness.RunSpec{
			Platform: platform.IntelCore, Benchmark: "kmeans-low",
			Threads: 4, Scale: stamp.ScaleTest, Repeats: 1,
			DisablePrefetch: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		delta = off.Speedup - on.Speedup
	}
	b.ReportMetric(delta, "speedup-gain-prefetch-off")
}

func BenchmarkAblationResponderWins(b *testing.B) {
	var speed float64
	for i := 0; i < b.N; i++ {
		res, err := harness.Run(harness.RunSpec{
			Platform: platform.ZEC12, Benchmark: "vacation-low",
			Threads: 4, Scale: stamp.ScaleTest, Repeats: 1,
			ResponderWins: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		speed = res.Speedup
	}
	b.ReportMetric(speed, "responder-wins-speedup")
}

func BenchmarkAblationSMTSharing(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		shared, err := harness.Run(harness.RunSpec{
			Platform: platform.POWER8, Benchmark: "vacation-low",
			Threads: 12, Scale: stamp.ScaleTest, Repeats: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		unshared, err := harness.Run(harness.RunSpec{
			Platform: platform.POWER8, Benchmark: "vacation-low",
			Threads: 12, Scale: stamp.ScaleTest, Repeats: 1,
			DisableSMTSharing: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		gain = unshared.Speedup - shared.Speedup
	}
	b.ReportMetric(gain, "speedup-gain-no-smt-sharing")
}

func BenchmarkAblationBGQMode(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		short, err := harness.Run(harness.RunSpec{
			Platform: platform.BlueGeneQ, Benchmark: "labyrinth",
			Threads: 4, Scale: stamp.ScaleTest, Repeats: 1,
			Mode: platform.ShortRunning,
		})
		if err != nil {
			b.Fatal(err)
		}
		long, err := harness.Run(harness.RunSpec{
			Platform: platform.BlueGeneQ, Benchmark: "labyrinth",
			Threads: 4, Scale: stamp.ScaleTest, Repeats: 1,
			Mode: platform.LongRunning,
		})
		if err != nil {
			b.Fatal(err)
		}
		delta = long.Speedup - short.Speedup
	}
	b.ReportMetric(delta, "labyrinth-long-vs-short-gain")
}
