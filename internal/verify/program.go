package verify

import (
	"fmt"

	"htmcmp/internal/htm"
	"htmcmp/internal/mem"
	"htmcmp/internal/platform"
	"htmcmp/internal/prng"
	"htmcmp/internal/tm"
)

// A Program is a deterministic, randomly generated transactional workload:
// per-thread sequences of transactions whose operations are loads, stores,
// explicit aborts, compute and suspended regions over labelled shared
// arrays. Stores are commutative per array (every store to an array applies
// that array's fixed combine operator, add or xor), so the final array
// contents are independent of transaction interleaving — any serializable
// execution of the same program produces the same digest, which is what
// lets Differential compare HTM, STM and global-lock runs bit-for-bit.
//
// Offsets and Quantum are the schedule inputs. The scheduler's elections are
// a pure function of the threads' clocks, so shifting a thread's start and
// changing how often threads yield steers the run through interleavings the
// default schedule would never pick, reproducibly.
type Program struct {
	Seed    uint64
	Threads int
	Arrays  []ArraySpec
	// Txns[t] is the transaction sequence of thread t.
	Txns [][]Txn
	// Offsets[t] is the cost thread t charges (Thread.Work) before its first
	// transaction; a missing entry is 0.
	Offsets []int
	// Quantum is htm.Config.Quantum for the run (0 = the engine default).
	Quantum int
}

// CombineKind is an array's store operator.
type CombineKind uint8

const (
	// CombineAdd: stores do word += operand.
	CombineAdd CombineKind = iota
	// CombineXor: stores do word ^= operand.
	CombineXor
)

func (k CombineKind) String() string {
	if k == CombineXor {
		return "xor"
	}
	return "add"
}

// ArraySpec describes one shared array of 8-byte words.
type ArraySpec struct {
	Words   int
	Combine CombineKind
}

// Txn is one atomic critical section.
type Txn struct{ Ops []Op }

// OpKind enumerates program operations.
type OpKind uint8

const (
	// OpLoad reads Arr[Idx] into a thread-local sink.
	OpLoad OpKind = iota
	// OpStore combines K into Arr[Idx] with the array's operator
	// (read-modify-write).
	OpStore
	// OpAbortOnce explicitly aborts the first attempt of this critical
	// section (no-op on later attempts and in lock mode, where there is
	// nothing to abort).
	OpAbortOnce
	// OpWork charges K%256 cost units of compute.
	OpWork
	// OpSuspended performs K%4+1 stores to the thread's private scratch
	// line inside a POWER8 suspended region (plain stores elsewhere).
	// Scratch lines are excluded from digests: suspended stores are
	// non-transactional and re-execute on retry, so they are not
	// exactly-once.
	OpSuspended
)

// Op is one operation of a transaction.
type Op struct {
	Kind OpKind
	Arr  uint8
	Idx  uint32
	K    uint64
}

// Mode selects the synchronisation a Program runs under.
type Mode int

const (
	// ModeHTM runs critical sections through the Figure 1 HTM runtime
	// (speculation with global-lock fallback).
	ModeHTM Mode = iota
	// ModeSTM runs them as NOrec software transactions.
	ModeSTM
	// ModeLock runs them irrevocably under the global lock.
	ModeLock
)

func (m Mode) String() string {
	switch m {
	case ModeHTM:
		return "htm"
	case ModeSTM:
		return "stm"
	case ModeLock:
		return "lock"
	}
	return "?"
}

// GenProgram deterministically generates a random program from seed. The
// thread count is drawn from the seed too; use GenProgramThreads to pin it.
func GenProgram(seed uint64) *Program {
	rng := prng.New(seed)
	threads := []int{1, 2, 4, 8}[rng.Intn(4)]
	return genProgram(seed, threads, rng)
}

// GenProgramThreads is GenProgram with a fixed thread count.
func GenProgramThreads(seed uint64, threads int) *Program {
	return genProgram(seed, threads, prng.New(seed^0x9e3779b97f4a7c15))
}

func genProgram(seed uint64, threads int, rng *prng.Rand) *Program {
	p := &Program{Seed: seed, Threads: threads}
	nArrays := 1 + rng.Intn(3)
	sizes := []int{8, 16, 64, 256, 1024}
	for i := 0; i < nArrays; i++ {
		p.Arrays = append(p.Arrays, ArraySpec{
			Words:   sizes[rng.Intn(len(sizes))],
			Combine: CombineKind(rng.Intn(2)),
		})
	}
	p.Txns = make([][]Txn, threads)
	for t := 0; t < threads; t++ {
		nTxns := 3 + rng.Intn(12)
		for j := 0; j < nTxns; j++ {
			var tx Txn
			// Hot transactions confine their indices to the first few
			// words of an array, manufacturing conflicts; cold ones range
			// over the whole array.
			hot := rng.Bernoulli(0.5)
			nOps := 1 + rng.Intn(16)
			if rng.Bernoulli(0.05) {
				nOps += 64 // occasionally large: exercises capacity aborts
			}
			for k := 0; k < nOps; k++ {
				arr := uint8(rng.Intn(nArrays))
				span := p.Arrays[arr].Words
				if hot && span > 8 {
					span = 8
				}
				op := Op{Arr: arr, Idx: uint32(rng.Intn(span)), K: rng.Uint64()}
				switch r := rng.Float64(); {
				case r < 0.40:
					op.Kind = OpLoad
				case r < 0.80:
					op.Kind = OpStore
				case r < 0.85:
					op.Kind = OpAbortOnce
				case r < 0.95:
					op.Kind = OpWork
				default:
					op.Kind = OpSuspended
				}
				tx.Ops = append(tx.Ops, op)
			}
			p.Txns[t] = append(p.Txns[t], tx)
		}
	}
	// Drawn last, so a seed's transactions are what they were before
	// programs carried a schedule.
	p.Quantum = []int{1, 2, 8}[rng.Intn(3)]
	for t := 0; t < threads; t++ {
		p.Offsets = append(p.Offsets, rng.Intn(64))
	}
	return p
}

// RunResult is one execution of a Program.
type RunResult struct {
	// Digest is the FNV-64a hash over the final contents of all shared
	// arrays (scratch lines excluded).
	Digest uint64
	// ArraySums are the per-array word sums (diagnostics for mismatches).
	ArraySums []uint64
	// Log is the extracted witness log (zero-valued when withWitness was
	// false).
	Log   htm.WitnessLog
	Stats htm.Stats
}

// Run executes the program on the given platform model under mode. When
// withWitness is set the run records the commit-order witness log for Replay.
func (p *Program) Run(kind platform.Kind, mode Mode, withWitness bool) (*RunResult, error) {
	spec := platform.New(kind)
	threads := p.Threads
	cfg := htm.Config{
		Threads:   threads,
		SpaceSize: 64 << 10, // arrays (≤ 24 KB), scratch lines and the lock word; the witness copies it thrice a run
		Seed:      p.Seed | 1,
		Quantum:   p.Quantum,
	}
	var wit *htm.Witness
	if withWitness {
		wit = htm.NewWitness()
		cfg.Witness = wit
	}
	e := htm.New(spec, cfg)

	// Layout: each array line-aligned and labelled, then one private
	// scratch line per thread.
	space := e.Space()
	arrays := make([]mem.Addr, len(p.Arrays))
	for i, a := range p.Arrays {
		addr := space.AllocAligned(a.Words*8, e.LineSize())
		space.Label(addr, a.Words*8, fmt.Sprintf("verify/arr%d(%s)", i, a.Combine))
		arrays[i] = addr
	}
	scratch := make([]mem.Addr, threads)
	for t := range scratch {
		scratch[t] = space.AllocAligned(e.LineSize(), e.LineSize())
		space.Label(scratch[t], e.LineSize(), fmt.Sprintf("verify/scratch%d", t))
	}
	lock := tm.NewGlobalLock(e)
	if wit != nil {
		wit.Start()
	}

	errs := make([]error, threads)
	e.Run(threads, func(t int, th *htm.Thread) {
		defer func() {
			if r := recover(); r != nil {
				errs[t] = fmt.Errorf("thread %d panicked: %v", t, r)
			}
		}()
		x := tm.NewExecutor(th, lock, tm.DefaultPolicy(kind))
		if t < len(p.Offsets) && p.Offsets[t] > 0 {
			th.Work(p.Offsets[t])
		}
		for _, tx := range p.Txns[t] {
			p.runTxn(th, x, mode, tx, arrays, scratch[t])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &RunResult{Stats: e.Stats()}
	for i, a := range p.Arrays {
		sum := uint64(0)
		for w := 0; w < a.Words; w++ {
			sum += space.Load64(arrays[i] + uint64(w*8))
		}
		res.ArraySums = append(res.ArraySums, sum)
		bytes := space.ReadBytes(arrays[i], a.Words*8)
		res.Digest = fnvMix(res.Digest, bytes)
	}
	if wit != nil {
		res.Log = wit.Log()
	}
	return res, nil
}

// runTxn executes one critical section under the selected mode, with
// exactly-once shared-memory semantics across retries.
func (p *Program) runTxn(th *htm.Thread, x *tm.Executor, mode Mode, tx Txn, arrays []mem.Addr, scratch mem.Addr) {
	attempt := 0
	var sink uint64
	body := func(t *htm.Thread) {
		attempt++
		for _, op := range tx.Ops {
			switch op.Kind {
			case OpLoad:
				sink ^= t.Load64(p.addrOf(op, arrays))
			case OpStore:
				a := p.addrOf(op, arrays)
				v := t.Load64(a)
				if p.Arrays[op.Arr].Combine == CombineXor {
					v ^= op.K
				} else {
					v += op.K
				}
				t.Store64(a, v)
			case OpAbortOnce:
				// Abort only the first attempt so retrying runtimes
				// (including RunSTM, which retries forever) terminate, and
				// only where an abort is meaningful.
				if attempt <= 1 && (t.InTx() || t.InSTM()) {
					t.Abort()
				}
			case OpWork:
				t.Work(int(op.K % 256))
			case OpSuspended:
				n := int(op.K%4) + 1
				suspend := t.InTx() && t.Engine().Platform().HasSuspendResume
				if suspend {
					t.Suspend()
				}
				wordsPerLine := t.Engine().LineSize() / 8
				for i := 0; i < n; i++ {
					idx := (int(op.K%64) + i) % wordsPerLine
					t.Store64(scratch+uint64(idx*8), op.K+uint64(i))
				}
				if suspend {
					t.Resume()
				}
			}
		}
	}
	switch mode {
	case ModeHTM:
		x.Run(body)
	case ModeSTM:
		x.RunSTM(body)
	case ModeLock:
		x.RunIrrevocable(body)
	}
	_ = sink
}

func (p *Program) addrOf(op Op, arrays []mem.Addr) mem.Addr {
	return arrays[op.Arr] + uint64(op.Idx)*8
}

// NumOps returns the total operation count (shrinking progress metric).
func (p *Program) NumOps() int {
	n := 0
	for _, txs := range p.Txns {
		for _, tx := range txs {
			n += len(tx.Ops)
		}
	}
	return n
}

func fnvMix(h uint64, b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	if h == 0 {
		h = offset64
	}
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}
