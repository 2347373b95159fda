// Package prng provides small, fast, deterministic pseudo-random number
// generators used by the workloads and by the stochastic parts of the HTM
// models (e.g. the zEC12 cache-fetch abort injector).
//
// The STAMP benchmarks depend on reproducible random streams: the C originals
// ship their own Mersenne Twister so that every platform sees the same input.
// We use splitmix64/xoshiro256** instead — equally deterministic, much
// smaller — and derive per-thread streams from a single seed so that runs are
// reproducible regardless of goroutine scheduling.
package prng

// SplitMix64 is the seeding generator recommended for xoshiro state
// initialization. It is also a perfectly good generator on its own for
// non-overlapping single streams.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit value in the stream.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a xoshiro256** generator. The zero value is not usable; construct
// with New or Derive, or Reseed one in place.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via SplitMix64, per the xoshiro
// authors' recommendation.
func New(seed uint64) *Rand {
	r := new(Rand)
	r.seed(seed)
	return r
}

// Derive returns an independent generator for stream id derived from seed.
// Two Derive calls with different ids yield streams that do not overlap in
// practice (distinct splitmix seeds).
func Derive(seed uint64, id int) *Rand {
	r := new(Rand)
	r.Reseed(seed, id)
	return r
}

// Reseed restarts r, in place, as the stream Derive(seed, id) returns.
func (r *Rand) Reseed(seed uint64, id int) {
	r.seed(seed ^ (0x9e3779b97f4a7c15 * uint64(id+1)))
}

func (r *Rand) seed(seed uint64) {
	sm := SplitMix64{state: seed}
	for i := range r.s {
		r.s[i] = sm.Next()
	}
	// A zero state would be absorbing; splitmix output makes this
	// astronomically unlikely, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n)) // modulo bias is irrelevant here
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli reports true with probability p.
func (r *Rand) Bernoulli(p float64) bool { return r.Float64() < p }

// Perm returns a random permutation of [0, n), Fisher–Yates shuffled.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle randomizes the order of the first n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
