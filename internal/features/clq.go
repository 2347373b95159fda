// Package features implements the processor-specific feature evaluations of
// the paper's Section 6: zEC12 constrained transactions on a concurrent
// linked queue (Figure 6), and POWER8 thread-level speculation with
// suspend/resume (Figure 9). Intel HLE (Figure 7) lives in internal/harness
// since it reuses the STAMP machinery.
package features

import (
	"fmt"

	"htmcmp/internal/htm"
	"htmcmp/internal/mem"
	"htmcmp/internal/platform"
)

// PointResult is what one point of either experiment answers: the region's
// duration in virtual cycles and the engine's transaction counts (for
// OptRetryTM, those of the search's winning run).
type PointResult struct {
	Seconds float64
	Engine  htm.Stats
}

// Exec abstracts how the experiments' engine runs are executed, as
// harness.Exec does for measured cells: a sweep records the requested points
// as cells and later serves them precomputed. Control flow never reads an
// answer, so an Exec that answers with zeros (the planning pass) sees every
// request.
type Exec interface {
	CLQ(CLQPoint) (PointResult, error)
	TLS(TLSPoint) (PointResult, error)
}

// inline is the default Exec: it runs every point on the spot.
type inline struct{}

func (inline) CLQ(p CLQPoint) (PointResult, error) { return RunCLQPoint(p) }
func (inline) TLS(p TLSPoint) (PointResult, error) { return RunTLSPoint(p) }

// CLQ is a Michael–Scott concurrent linked queue in simulated memory — the
// analogue of Java's ConcurrentLinkedQueue that Section 6.1 uses to evaluate
// zEC12 constrained transactions. The lock-free CAS paths are the baseline;
// the transactional paths replace the multi-CAS dance with a short
// transaction, falling back to the lock-free code exactly as the paper
// describes ("Otherwise, it falls back to the original lock-free code").
//
// Node layout: [value][next]; the queue header holds [head][tail] on
// separate lines to avoid needless head/tail false sharing.
type CLQ struct {
	headAddr mem.Addr
	tailAddr mem.Addr

	// maxFailed is the most failed transaction attempts one transactional
	// operation has made so far; retries+1 means it fell back to the
	// lock-free code.
	maxFailed int
}

// noteTM records a transactional operation that made failed failed attempts.
func (q *CLQ) noteTM(failed int) {
	if failed > q.maxFailed {
		q.maxFailed = failed
	}
}

const (
	nodeVal  = 0
	nodeNext = 8
)

// NewCLQ allocates an empty queue (one dummy node).
func NewCLQ(t *htm.Thread) *CLQ {
	line := t.Engine().LineSize()
	q := &CLQ{
		headAddr: t.AllocAligned(line, line), // full lines: no false sharing
		tailAddr: t.AllocAligned(line, line),
	}
	dummy := t.Alloc(16)
	t.Store64(q.headAddr, dummy)
	t.Store64(q.tailAddr, dummy)
	return q
}

func newNode(t *htm.Thread, v uint64) mem.Addr {
	n := t.Alloc(16)
	t.Store64(n+nodeVal, v)
	t.Store64(n+nodeNext, mem.Nil)
	return n
}

// EnqueueLockFree appends v with the Michael–Scott CAS protocol.
func (q *CLQ) EnqueueLockFree(t *htm.Thread, v uint64) {
	n := newNode(t, v)
	for {
		tail := t.Load64(q.tailAddr)
		next := t.Load64(tail + nodeNext)
		if tail != t.Load64(q.tailAddr) {
			continue
		}
		if next == mem.Nil {
			if t.CompareAndSwap64(tail+nodeNext, mem.Nil, n) {
				t.CompareAndSwap64(q.tailAddr, tail, n)
				return
			}
		} else {
			t.CompareAndSwap64(q.tailAddr, tail, next)
		}
	}
}

// DequeueLockFree removes the oldest value with the Michael–Scott protocol.
func (q *CLQ) DequeueLockFree(t *htm.Thread) (uint64, bool) {
	for {
		head := t.Load64(q.headAddr)
		tail := t.Load64(q.tailAddr)
		next := t.Load64(head + nodeNext)
		if head != t.Load64(q.headAddr) {
			continue
		}
		if head == tail {
			if next == mem.Nil {
				return 0, false
			}
			t.CompareAndSwap64(q.tailAddr, tail, next)
			continue
		}
		v := t.Load64(next + nodeVal)
		if t.CompareAndSwap64(q.headAddr, head, next) {
			return v, true
		}
	}
}

// enqueueTxBody is the transactional enqueue fast path: the paper's
// "enqueuing operation in a transaction adds a new element to the last
// element (tail) if the next pointer of the last element is null". It
// reports whether the fast path applied.
func (q *CLQ) enqueueTxBody(t *htm.Thread, n mem.Addr) bool {
	tail := t.Load64(q.tailAddr)
	if t.Load64(tail+nodeNext) != mem.Nil {
		return false // tail lagging: revert to lock-free code
	}
	t.Store64(tail+nodeNext, n)
	t.Store64(q.tailAddr, n)
	return true
}

// dequeueTxBody is the transactional dequeue fast path.
func (q *CLQ) dequeueTxBody(t *htm.Thread) (v uint64, ok, fast bool) {
	head := t.Load64(q.headAddr)
	next := t.Load64(head + nodeNext)
	if next == mem.Nil {
		return 0, false, true // empty
	}
	v = t.Load64(next + nodeVal)
	t.Store64(q.headAddr, next)
	return v, true, true
}

// EnqueueTM appends v using a normal transaction with up to retries
// attempts before reverting to the lock-free code (NoRetryTM: retries = 0;
// OptRetryTM: tuned retries).
func (q *CLQ) EnqueueTM(t *htm.Thread, v uint64, retries int) {
	n := newNode(t, v)
	for attempt := 0; attempt <= retries; attempt++ {
		fast := false
		ok, _ := t.TryTx(htm.TxNormal, func() {
			fast = q.enqueueTxBody(t, n)
			if !fast {
				t.Abort()
			}
		})
		if ok && fast {
			q.noteTM(attempt)
			return
		}
	}
	q.noteTM(retries + 1)
	// Fall back to the lock-free path, reusing the node.
	for {
		tail := t.Load64(q.tailAddr)
		next := t.Load64(tail + nodeNext)
		if tail != t.Load64(q.tailAddr) {
			continue
		}
		if next == mem.Nil {
			if t.CompareAndSwap64(tail+nodeNext, mem.Nil, n) {
				t.CompareAndSwap64(q.tailAddr, tail, n)
				return
			}
		} else {
			t.CompareAndSwap64(q.tailAddr, tail, next)
		}
	}
}

// DequeueTM removes the oldest value via transaction, falling back to the
// lock-free path after retries failed attempts.
func (q *CLQ) DequeueTM(t *htm.Thread, retries int) (uint64, bool) {
	for attempt := 0; attempt <= retries; attempt++ {
		var v uint64
		var okv, fast bool
		committed, _ := t.TryTx(htm.TxNormal, func() {
			v, okv, fast = q.dequeueTxBody(t)
		})
		if committed && fast {
			q.noteTM(attempt)
			return v, okv
		}
	}
	q.noteTM(retries + 1)
	return q.DequeueLockFree(t)
}

// EnqueueConstrained appends v with a zEC12 constrained transaction: no
// retry logic, no fallback — the hardware guarantees completion.
func (q *CLQ) EnqueueConstrained(t *htm.Thread, v uint64) {
	n := newNode(t, v)
	for {
		fast := false
		t.RunConstrained(func() {
			fast = q.enqueueTxBody(t, n)
		})
		if fast {
			return
		}
		// Tail was lagging (cannot happen with constrained-only use, but
		// tolerate mixed use): help via lock-free step.
		tail := t.Load64(q.tailAddr)
		next := t.Load64(tail + nodeNext)
		if next != mem.Nil {
			t.CompareAndSwap64(q.tailAddr, tail, next)
		}
	}
}

// DequeueConstrained removes the oldest value with a constrained
// transaction.
func (q *CLQ) DequeueConstrained(t *htm.Thread) (uint64, bool) {
	var v uint64
	var ok bool
	t.RunConstrained(func() {
		v, ok, _ = q.dequeueTxBody(t)
	})
	return v, ok
}

// Len walks the queue (single-threaded use only).
func (q *CLQ) Len(t *htm.Thread) int {
	n := 0
	for cur := t.Load64(t.Load64(q.headAddr) + nodeNext); cur != mem.Nil; cur = t.Load64(cur + nodeNext) {
		n++
	}
	return n
}

// CLQMode selects the Figure 6 execution mode.
type CLQMode int

// The four Figure 6 series.
const (
	CLQLockFree CLQMode = iota
	CLQNoRetryTM
	CLQOptRetryTM
	CLQConstrainedTM
)

// String returns the figure label.
func (m CLQMode) String() string {
	switch m {
	case CLQLockFree:
		return "LockFree"
	case CLQNoRetryTM:
		return "NoRetryTM"
	case CLQOptRetryTM:
		return "OptRetryTM"
	case CLQConstrainedTM:
		return "ConstrainedTM"
	}
	return "?"
}

// CLQResult is one measured Figure 6 point.
type CLQResult struct {
	Mode     CLQMode
	Threads  int
	Seconds  float64
	Relative float64 // vs the lock-free baseline at the same thread count
}

// CLQOptions configure the Figure 6 experiment.
type CLQOptions struct {
	OpsPerThread int
	Threads      []int
	CostScale    float64
	Seed         uint64
	// Exec executes the experiment's engine runs (sweep scheduling /
	// caching); nil runs each on the spot via RunCLQPoint.
	Exec Exec
}

func (o CLQOptions) withDefaults() CLQOptions {
	if o.OpsPerThread <= 0 {
		o.OpsPerThread = 3000
	}
	if len(o.Threads) == 0 {
		o.Threads = []int{1, 2, 4, 8, 16}
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

// CLQPoint is one point of Figure 6, every field explicit: RunCLQ builds
// points from defaulted options, so equal points are equal values however
// the options were spelled. Its JSON encoding is the cache identity of a
// sweep CLQRun cell, so every field is omitempty (TestInvariants in the root
// package checks this).
type CLQPoint struct {
	Mode         CLQMode `json:"mode,omitempty"`
	Threads      int     `json:"threads,omitempty"`
	OpsPerThread int     `json:"ops_per_thread,omitempty"`
	CostScale    float64 `json:"cost_scale,omitempty"`
	Seed         uint64  `json:"seed,omitempty"`
}

// Label is a short identifier for progress and error reporting.
func (p CLQPoint) Label() string {
	return fmt.Sprintf("clq/%v/t%d", p.Mode, p.Threads)
}

// RunCLQ runs the Figure 6 experiment on the zEC12 model: each thread
// alternately enqueues to and dequeues from a single queue; execution time
// is reported relative to the lock-free baseline at the same thread count.
func RunCLQ(opts CLQOptions) ([]CLQResult, error) {
	opts = opts.withDefaults()
	var out []CLQResult
	for _, threads := range opts.Threads {
		var base float64
		for _, mode := range []CLQMode{CLQLockFree, CLQNoRetryTM, CLQOptRetryTM, CLQConstrainedTM} {
			res, err := opts.Exec.CLQ(CLQPoint{Mode: mode, Threads: threads,
				OpsPerThread: opts.OpsPerThread, CostScale: opts.CostScale, Seed: opts.Seed})
			if err != nil {
				return nil, err
			}
			if mode == CLQLockFree {
				base = res.Seconds
			}
			out = append(out, CLQResult{
				Mode: mode, Threads: threads, Seconds: res.Seconds, Relative: res.Seconds / base,
			})
		}
	}
	return out, nil
}

// RunCLQPoint executes one Figure 6 point: one engine run, or for
// OptRetryTM the retry-count search (searchOptRetry).
func RunCLQPoint(p CLQPoint) (PointResult, error) {
	if p.Mode == CLQOptRetryTM {
		best, _, err := searchOptRetry(p)
		return best.PointResult, err
	}
	run, err := runCLQ(p, 0)
	return run.PointResult, err
}

// optRetryGrid is the retry counts OptRetryTM searches, largest first: a
// run whose operations never needed its whole budget also answers the
// smaller counts it did not reach.
var optRetryGrid = []int{16, 8, 4, 2, 1}

// searchOptRetry is OptRetryTM, the paper's tuned retry count (Section 6.1:
// "we tuned the retry count to obtain the maximum performance"): the
// fastest of p's runs over optRetryGrid, the smallest retry count among
// equally fast ones. A count that an earlier run serves (clqRun.serves) is
// that run and is not simulated again. grid holds the run answering each
// count, in optRetryGrid order; a served entry keeps the retries it ran
// with.
func searchOptRetry(p CLQPoint) (best clqRun, grid []clqRun, err error) {
	var simulated []clqRun
	for _, r := range optRetryGrid {
		run, served := clqRun{}, false
		for _, s := range simulated {
			if s.serves(r) {
				run, served = s, true
				break
			}
		}
		if !served {
			if run, err = runCLQ(p, r); err != nil {
				return clqRun{}, nil, err
			}
			simulated = append(simulated, run)
		}
		if len(grid) == 0 || run.Seconds <= best.Seconds {
			best = run
		}
		grid = append(grid, run)
	}
	return best, grid, nil
}

// clqRun is one simulated Figure 6 run and the most failed attempts one of
// its transactional operations made (CLQ.maxFailed).
type clqRun struct {
	PointResult
	retries   int
	maxFailed int
}

// fellBack reports whether an operation of r ran out of retries and took
// the lock-free code.
func (r clqRun) fellBack() bool { return r.maxFailed > r.retries }

// serves reports whether the run with a smaller retry count is this very
// run: no operation fell back and none failed more than retries attempts,
// so none reaches the smaller budget and virtual time replays the run
// exactly.
func (r clqRun) serves(retries int) bool {
	return !r.fellBack() && r.maxFailed <= retries
}

// runCLQ executes one Figure 6 engine run with the given retry budget for
// the transactional modes.
func runCLQ(p CLQPoint, retries int) (clqRun, error) {
	if p.Threads < 1 {
		return clqRun{}, fmt.Errorf("clq %v: %d threads", p.Mode, p.Threads)
	}
	if p.Mode < CLQLockFree || p.Mode > CLQConstrainedTM {
		return clqRun{}, fmt.Errorf("clq: unknown mode %d", int(p.Mode))
	}
	threads := p.Threads
	e := htm.New(platform.New(platform.ZEC12), htm.Config{
		Threads:   threads,
		SpaceSize: 64 << 20,
		Seed:      p.Seed,
		CostScale: p.CostScale,
	})
	q := NewCLQ(e.Thread(0))
	// Pre-fill so dequeues find work.
	for i := 0; i < threads*4; i++ {
		q.EnqueueLockFree(e.Thread(0), uint64(i))
	}
	var enqTotal, deqTotal int64 // a virtual region is one goroutine: no lock
	e.ResetClocks()
	e.Run(threads, func(tid int, t *htm.Thread) {
		for i := 0; i < p.OpsPerThread; i++ {
			v := uint64(tid<<32 | i)
			switch p.Mode {
			case CLQLockFree:
				q.EnqueueLockFree(t, v)
				if _, ok := q.DequeueLockFree(t); ok {
					deqTotal++
				}
			case CLQNoRetryTM, CLQOptRetryTM:
				q.EnqueueTM(t, v, retries)
				if _, ok := q.DequeueTM(t, retries); ok {
					deqTotal++
				}
			case CLQConstrainedTM:
				q.EnqueueConstrained(t, v)
				if _, ok := q.DequeueConstrained(t); ok {
					deqTotal++
				}
			}
			enqTotal++
		}
	})
	run := clqRun{PointResult: PointResult{Seconds: float64(e.MaxClock())},
		retries: retries, maxFailed: q.maxFailed}
	// Consistency: remaining length == prefill + enqueues - dequeues.
	want := threads*4 + int(enqTotal) - int(deqTotal)
	if got := q.Len(e.Thread(0)); got != want {
		return clqRun{}, fmt.Errorf("clq %v/%d threads: queue length %d, want %d", p.Mode, threads, got, want)
	}
	run.Engine = e.Stats()
	e.Release()
	return run, nil
}
