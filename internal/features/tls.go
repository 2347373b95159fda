package features

import (
	"fmt"

	"htmcmp/internal/htm"
	"htmcmp/internal/mem"
	"htmcmp/internal/platform"
)

// Thread-level speculation on POWER8 (Section 6.3, Figures 8 and 9). Loop
// iterations run speculatively in transactions but must commit in program
// order, coordinated through a shared NextIterToCommit word:
//
//   - Without suspend/resume, the transaction reads NextIterToCommit at its
//     end and aborts if it is not its turn (Figure 8's dark-grey code) — the
//     ordering variable sits in every transaction's read set, so the
//     predecessor's commit-order store conflicts with every speculative
//     successor and abort ratios are huge (69–83% in the paper).
//   - With suspend/resume, the transaction suspends, spin-waits on
//     NextIterToCommit outside transactional tracking, resumes and commits
//     (Figure 8's light-grey code); only genuine data conflicts remain.
//
// Two loop kernels stand in for the paper's SPEC CPU2006 loops (see
// DESIGN.md): "milc" iterations write 72-byte blocks that straddle 128-byte
// conflict-detection lines, so neighbouring iterations share lines and some
// false conflicts survive suspend/resume (the paper's residual 10% abort
// ratio on 433.milc); "sphinx3" iterations write line-aligned private slots
// and become conflict-free with suspend/resume (0.1% in the paper).

// TLSKernel selects the loop kernel.
type TLSKernel int

// The two Figure 9 kernels.
const (
	KernelMilc TLSKernel = iota
	KernelSphinx3
)

// String returns the SPEC benchmark name the kernel stands in for.
func (k TLSKernel) String() string {
	if k == KernelMilc {
		return "433.milc"
	}
	return "482.sphinx3"
}

// TLSResult is one Figure 9 point.
type TLSResult struct {
	Kernel        TLSKernel
	Threads       int
	SuspendResume bool
	Speedup       float64
	AbortRatio    float64
}

// TLSOptions configure the Figure 9 experiment.
type TLSOptions struct {
	Iterations int
	Threads    []int
	CostScale  float64
	Seed       uint64
	// Exec executes the experiment's engine runs (sweep scheduling /
	// caching); nil runs each on the spot via RunTLSPoint.
	Exec Exec
}

func (o TLSOptions) withDefaults() TLSOptions {
	if o.Iterations <= 0 {
		o.Iterations = 1536
	}
	if len(o.Threads) == 0 {
		o.Threads = []int{1, 2, 3, 4, 5, 6}
	}
	if o.CostScale == 0 {
		o.CostScale = 1
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Exec == nil {
		o.Exec = inline{}
	}
	return o
}

// TLSPoint is one engine run of Figure 9, every field explicit (see
// CLQPoint). Its JSON encoding is the cache identity of a sweep TLSRun cell.
type TLSPoint struct {
	Kernel TLSKernel `json:"kernel,omitempty"`
	// Threads is the TLS thread count; 0 is the kernel's sequential
	// baseline, which every parallel point of the kernel is measured against.
	Threads       int     `json:"threads,omitempty"`
	SuspendResume bool    `json:"suspend_resume,omitempty"`
	Iterations    int     `json:"iterations,omitempty"`
	CostScale     float64 `json:"cost_scale,omitempty"`
	Seed          uint64  `json:"seed,omitempty"`
}

// Label is a short identifier for progress and error reporting.
func (p TLSPoint) Label() string {
	return fmt.Sprintf("tls/%v/t%d/sr=%t", p.Kernel, p.Threads, p.SuspendResume)
}

// tlsState is one kernel instance in simulated memory.
type tlsState struct {
	kernel    TLSKernel
	iters     int
	blockSize int // bytes written per iteration
	in        mem.Addr
	out       mem.Addr
	links     mem.Addr // milc: occasionally shared gauge-link cells
	next      mem.Addr // NextIterToCommit
}

func newTLSState(t *htm.Thread, kernel TLSKernel, iters int) *tlsState {
	s := &tlsState{kernel: kernel, iters: iters}
	line := t.Engine().LineSize()
	s.blockSize = line
	s.out = t.AllocAligned(iters*s.blockSize, line)
	if kernel == KernelMilc {
		// milc iterations occasionally update gauge-link cells shared by
		// groups of eight iterations: the false conflicts that survive
		// suspend/resume in the paper (abort ratio 83% -> 10%).
		s.links = t.AllocAligned((iters/8+1)*line, line)
	}
	s.in = t.Alloc(iters * 8)
	for i := 0; i < iters; i++ {
		t.Store64(s.in+uint64(i*8), uint64(i)*0x9e3779b97f4a7c15+1)
	}
	s.next = t.AllocAligned(line, line) // a full line: only true ordering conflicts
	t.Store64(s.next, 0)
	return s
}

// expected computes iteration i's first output word (the validation oracle).
func (s *tlsState) expected(i int) uint64 {
	x := uint64(i)*0x9e3779b97f4a7c15 + 1
	for k := 0; k < 8; k++ {
		x ^= x << 13
		x ^= x >> 7
		x *= 0xc4ceb9fe1a85ec53
	}
	return x
}

// body runs iteration i's loop body: read the input word, compute, write the
// iteration's output block.
func (s *tlsState) body(t *htm.Thread, i int) {
	t.Work(60) // the iteration's arithmetic (su3 multiply / frame scoring)
	x := t.LoadRO64(s.in + uint64(i*8))
	for k := 0; k < 8; k++ {
		x ^= x << 13
		x ^= x >> 7
		x *= 0xc4ceb9fe1a85ec53
	}
	base := s.out + uint64(i*s.blockSize)
	for wd := 0; wd < 9; wd++ { // a 3x3 complex block
		t.Store64(base+uint64(wd*8), x+uint64(wd))
	}
	if s.kernel == KernelMilc && x%5 == 0 {
		// Shared gauge-link update: a true cross-iteration conflict.
		a := s.links + uint64(i/8)*uint64(s.blockSize)
		t.Store64(a, t.Load64(a)+x)
	}
}

// RunTLS reproduces Figure 9 on the POWER8 model: speed-up of TLS execution
// over sequential, with and without suspend/resume, for each thread count.
func RunTLS(opts TLSOptions) ([]TLSResult, error) {
	opts = opts.withDefaults()
	var out []TLSResult
	for _, kernel := range []TLSKernel{KernelMilc, KernelSphinx3} {
		p := TLSPoint{Kernel: kernel, Iterations: opts.Iterations, CostScale: opts.CostScale, Seed: opts.Seed}
		seq, err := opts.Exec.TLS(p)
		if err != nil {
			return nil, err
		}
		for _, sr := range []bool{false, true} {
			for _, threads := range opts.Threads {
				p.Threads, p.SuspendResume = threads, sr
				par, err := opts.Exec.TLS(p)
				if err != nil {
					return nil, err
				}
				out = append(out, TLSResult{
					Kernel:        kernel,
					Threads:       threads,
					SuspendResume: sr,
					Speedup:       seq.Seconds / par.Seconds,
					AbortRatio:    par.Engine.AbortRatio(),
				})
			}
		}
	}
	return out, nil
}

// RunTLSPoint executes one Figure 9 engine run: the kernel's sequential
// baseline when p.Threads is 0, ordered speculation on p.Threads otherwise.
func RunTLSPoint(p TLSPoint) (PointResult, error) {
	if p.Threads < 0 || p.Iterations < 0 {
		return PointResult{}, fmt.Errorf("tls %v: %d threads, %d iterations", p.Kernel, p.Threads, p.Iterations)
	}
	threads := max(p.Threads, 1)
	e := htm.New(platform.New(platform.POWER8), htm.Config{
		Threads: threads, SpaceSize: 32 << 20, Seed: p.Seed, CostScale: p.CostScale,
	})
	t0 := e.Thread(0)
	s := newTLSState(t0, p.Kernel, p.Iterations)
	e.ResetClocks()
	e.Run(threads, func(tid int, t *htm.Thread) {
		for i := tid; i < s.iters; i += threads {
			if p.Threads == 0 {
				s.body(t, i)
			} else {
				s.runIteration(t, i, p.SuspendResume)
			}
		}
	})
	res := PointResult{Seconds: float64(e.MaxClock())} // read before validate, whose loads advance the clock
	if err := s.validate(t0); err != nil {
		return PointResult{}, err
	}
	if p.Threads > 0 {
		if got := t0.Load64(s.next); got != uint64(s.iters) {
			return PointResult{}, fmt.Errorf("tls: NextIterToCommit = %d, want %d", got, s.iters)
		}
	}
	res.Engine = e.Stats()
	e.Release()
	return res, nil
}

func (s *tlsState) validate(t *htm.Thread) error {
	for i := 0; i < s.iters; i++ {
		got := t.Load64(s.out + uint64(i*s.blockSize))
		if got != s.expected(i) {
			return fmt.Errorf("tls %v: iteration %d output %#x, want %#x", s.kernel, i, got, s.expected(i))
		}
	}
	return nil
}

// runIteration executes iteration i under ordered speculation, following
// Figure 8's transformation.
func (s *tlsState) runIteration(t *htm.Thread, i int, suspendResume bool) {
	for {
		// Non-speculative turn: when it is already this iteration's turn,
		// run in order without a transaction.
		if t.Load64(s.next) == uint64(i) {
			s.body(t, i)
			t.Store64(s.next, uint64(i)+1)
			return
		}
		ok, _ := t.TryTx(htm.TxNormal, func() {
			s.body(t, i)
			if suspendResume {
				// Light-grey path: wait for our turn outside tracking.
				t.Suspend()
				for t.Load64(s.next) != uint64(i) {
					t.Pause(40) // inter-core line transfer latency per poll
				}
				t.Resume()
			} else {
				// Dark-grey path: the ordering read joins the read set;
				// not our turn yet means abort and retry.
				if t.Load64(s.next) != uint64(i) {
					t.Abort()
				}
			}
		})
		if ok {
			// Commit order held: publish the next turn (after tend, as in
			// Figure 8(b)).
			t.Store64(s.next, uint64(i)+1)
			return
		}
	}
}
