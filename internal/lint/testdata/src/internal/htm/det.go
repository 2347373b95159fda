// Package htm sits on a deterministic-core import path, so the
// determinism check applies to every file here.
package htm

import (
	"math/rand"
	"os"
	"time"
)

func wallClock() int64 {
	return time.Now().UnixNano() // want "time.Now in deterministic core"
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want "time.Since in deterministic core"
}

func hostRandom() int {
	return rand.Int() // want "math/rand.Int in deterministic core"
}

func envProbe() string {
	v, _ := os.LookupEnv("HTM_MODE") // want "os.LookupEnv in deterministic core"
	return v
}

func tuneFromEnv() string {
	return os.Getenv("HTM_DEBUG") // want "os.Getenv in deterministic core"
}

func sumCounts(m map[string]int) int {
	total := 0
	for _, v := range m { // want "map iteration order is unordered"
		total += v
	}
	return total
}

// countKeys observes only the map's size; no iteration order escapes.
func countKeys(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// tick does pure Duration arithmetic — time the package is fine, only
// the wall-clock readers are banned.
func tick(d time.Duration) time.Duration { return d * 2 }
