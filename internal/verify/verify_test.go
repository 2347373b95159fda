package verify

import (
	"fmt"
	"strings"
	"testing"

	"htmcmp/internal/htm"
	"htmcmp/internal/platform"
	"htmcmp/internal/prng"
)

var allPlatforms = []platform.Kind{
	platform.BlueGeneQ, platform.ZEC12, platform.IntelCore, platform.POWER8,
}

// TestGenProgramDeterministic pins the generator: the same seed must yield
// an identical program and an identical execution.
func TestGenProgramDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		a, b := GenProgram(seed), GenProgram(seed)
		if a.Threads != b.Threads || a.NumOps() != b.NumOps() {
			t.Fatalf("seed %d: generator not deterministic", seed)
		}
		ra, err := a.Run(platform.IntelCore, ModeHTM, false)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Run(platform.IntelCore, ModeHTM, false)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Digest != rb.Digest || ra.Stats != rb.Stats {
			t.Fatalf("seed %d: run not deterministic", seed)
		}
	}
}

// TestDifferentialMatrix is the tentpole end-to-end check: generated
// programs on all four platform models × {1,2,4,8} threads —
// HTM, STM and lock executions must agree and the HTM/lock witness logs
// must replay serializably.
func TestDifferentialMatrix(t *testing.T) {
	for _, kind := range allPlatforms {
		for _, threads := range []int{1, 2, 4, 8} {
			for seed := uint64(1); seed <= 3; seed++ {
				p := GenProgramThreads(seed+uint64(threads)<<8, threads)
				if err := Differential(p, kind); err != nil {
					t.Errorf("%s t=%d seed=%d: %v", kind.Short(), threads, seed, err)
				}
			}
		}
	}
}

// smallProgram is one box for exploreSchedules: threads × txns transactions
// of at most four loads and read-modify-write stores (the odd first-attempt
// abort among them) over two arrays of a line or two, so every pair of
// transactions conflicts and the commit order is the schedule's to decide.
func smallProgram(seed uint64, threads, txns int) *Program {
	rng := prng.New(seed)
	p := &Program{
		Seed: seed, Threads: threads, Quantum: 1,
		Arrays:  []ArraySpec{{Words: 8, Combine: CombineAdd}, {Words: 16, Combine: CombineXor}},
		Txns:    make([][]Txn, threads),
		Offsets: make([]int, threads),
	}
	for t := range p.Txns {
		for j := 0; j < txns; j++ {
			var tx Txn
			for k := 1 + rng.Intn(4); k > 0; k-- {
				arr := uint8(rng.Intn(2))
				op := Op{Kind: OpStore, Arr: arr, Idx: uint32(rng.Intn(p.Arrays[arr].Words)), K: rng.Uint64()}
				switch r := rng.Float64(); {
				case r < 0.35:
					op.Kind = OpLoad
				case r < 0.45:
					op.Kind = OpAbortOnce
				}
				tx.Ops = append(tx.Ops, op)
			}
			p.Txns[t] = append(p.Txns[t], tx)
		}
	}
	return p
}

// exploreSchedules runs two small programs (2 threads × 3 transactions,
// 3 threads × 2) through Differential at Quantum 1 under every vector of
// start offsets in {0, 4, …, 28}^threads — 4 being what one access costs
// these runs, a finer step only repeats schedules. It returns how many
// distinct commit orders (thread and kind of each witness record of the HTM
// run) the vectors produced, and the vectors Differential rejected.
func exploreSchedules(t *testing.T, kind platform.Kind) (orders int, failed []error) {
	t.Helper()
	const steps, stride = 8, 4
	seen := map[string]bool{}
	for _, p := range []*Program{smallProgram(1, 2, 3), smallProgram(2, 3, 2)} {
		vectors := 1
		for range p.Offsets {
			vectors *= steps
		}
		for v := 0; v < vectors; v++ {
			for i, rest := 0, v; i < p.Threads; i, rest = i+1, rest/steps {
				p.Offsets[i] = rest % steps * stride
			}
			res, err := p.Run(kind, ModeHTM, true)
			if err != nil {
				t.Fatal(err)
			}
			order := fmt.Sprint(p.Threads)
			for _, r := range res.Log.Records {
				order += fmt.Sprintf(" %d%s", r.Thread, r.Kind)
			}
			seen[order] = true
			if err := Differential(p, kind); err != nil {
				failed = append(failed, fmt.Errorf("offsets %v: %w", p.Offsets, err))
			}
		}
	}
	return len(seen), failed
}

// TestSmallSchedulesExhaustive is the oracle for interleavings the default
// schedule never picks: every start-offset vector of a small box, on every
// platform, under HTM, STM and the lock. More than one commit order must
// come out of the box, or it explores nothing.
func TestSmallSchedulesExhaustive(t *testing.T) {
	for _, kind := range allPlatforms {
		orders, failed := exploreSchedules(t, kind)
		for _, err := range failed {
			t.Errorf("%s: %v", kind.Short(), err)
		}
		if orders < 2 {
			t.Errorf("%s: the box produced %d distinct commit orders", kind.Short(), orders)
		}
		t.Logf("%s: %d distinct commit orders", kind.Short(), orders)
	}
}

// tamperableLog runs a contended program and returns a log that contains at
// least one transaction record with reads and writes.
func tamperableLog(t *testing.T) htm.WitnessLog {
	t.Helper()
	p := GenProgramThreads(7, 4)
	res, err := p.Run(platform.ZEC12, ModeHTM, true)
	if err != nil {
		t.Fatal(err)
	}
	if v := Replay(res.Log); v != nil {
		t.Fatalf("clean log does not replay: %v", v)
	}
	return res.Log
}

// TestReplayCatchesTamperedLog unit-tests the oracle's decision procedure:
// corrupting the log in each dimension must produce the matching violation.
func TestReplayCatchesTamperedLog(t *testing.T) {
	find := func(log htm.WitnessLog, want func(*htm.TxRecord) bool) int {
		for i := range log.Records {
			if want(&log.Records[i]) {
				return i
			}
		}
		t.Fatal("no suitable record in log")
		return -1
	}

	t.Run("stale read", func(t *testing.T) {
		log := tamperableLog(t)
		i := find(log, func(r *htm.TxRecord) bool { return len(r.Reads) > 0 })
		log.Records[i].Reads[0].Ver += 1
		v := Replay(log)
		if v == nil || v.Kind != StaleRead {
			t.Fatalf("want stale-read violation, got %v", v)
		}
	})
	t.Run("dirty read", func(t *testing.T) {
		log := tamperableLog(t)
		// Tamper a read of a workload line — not the global-lock word, which
		// every transaction reads first — so the violation symbolises to a
		// verify/ region.
		ri := -1
		i := find(log, func(r *htm.TxRecord) bool {
			for j, rd := range r.Reads {
				reg := log.Space.RegionAt(uint64(rd.Line) * uint64(log.LineSize))
				if strings.HasPrefix(reg, "verify/") {
					ri = j
					return true
				}
			}
			return false
		})
		log.Records[i].Reads[ri].Sum ^= 1
		v := Replay(log)
		if v == nil || v.Kind != DirtyRead {
			t.Fatalf("want dirty-read violation, got %v", v)
		}
		if !strings.Contains(v.Error(), "verify/") {
			t.Fatalf("violation not symbolised through RegionAt: %v", v)
		}
	})
	t.Run("lost write", func(t *testing.T) {
		log := tamperableLog(t)
		i := find(log, func(r *htm.TxRecord) bool {
			return r.Kind == htm.WitnessTx && len(r.Writes) > 0
		})
		log.Records[i].Writes[0].Data[0] ^= 0xff
		if v := Replay(log); v == nil {
			t.Fatal("corrupted write image not detected")
		}
	})
	t.Run("duplicate seq", func(t *testing.T) {
		log := tamperableLog(t)
		if len(log.Records) < 2 {
			t.Skip("log too short")
		}
		log.Records[1].Seq = log.Records[0].Seq
		v := Replay(log)
		if v == nil || v.Kind != BadLog {
			t.Fatalf("want bad-log violation, got %v", v)
		}
	})
	t.Run("missing snapshot", func(t *testing.T) {
		log := tamperableLog(t)
		log.Initial = nil
		v := Replay(log)
		if v == nil || v.Kind != BadLog {
			t.Fatalf("want bad-log violation, got %v", v)
		}
	})
}

// TestShrink checks the minimiser against a synthetic predicate: it must
// reduce a noisy program to the single responsible operation.
func TestShrink(t *testing.T) {
	const magic = 0xdeadbeef
	p := GenProgramThreads(3, 4)
	p.Txns[2] = append(p.Txns[2], Txn{Ops: []Op{
		{Kind: OpStore, Arr: 0, Idx: 0, K: 1},
		{Kind: OpStore, Arr: 0, Idx: 1, K: magic},
	}})
	failing := func(q *Program) bool {
		for _, txs := range q.Txns {
			for _, tx := range txs {
				for _, op := range tx.Ops {
					if op.K == magic {
						return true
					}
				}
			}
		}
		return false
	}
	s := Shrink(p, failing)
	if !failing(s) {
		t.Fatal("shrunk program no longer fails")
	}
	if s.Threads != 1 || s.NumOps() != 1 {
		t.Fatalf("shrink not minimal: threads=%d ops=%d", s.Threads, s.NumOps())
	}
	if s.Quantum != 0 || len(s.Offsets) != 1 || s.Offsets[0] != 0 {
		t.Fatalf("shrink kept a schedule the failure does not need: quantum=%d offsets=%v", s.Quantum, s.Offsets)
	}
}

// TestWriteReproTest pins the reproducer format: the emitted source must be
// a self-contained test that names the platform and the program.
func TestWriteReproTest(t *testing.T) {
	p := GenProgramThreads(11, 2)
	var b strings.Builder
	if err := WriteReproTest(&b, "Example", p, platform.POWER8); err != nil {
		t.Fatal(err)
	}
	src := b.String()
	for _, want := range []string{
		"package verify", "func TestReproExample", "platform.POWER8",
		"&Program{", "Txns: [][]Txn{", "Differential(p,",
		fmt.Sprintf("Offsets: %#v, Quantum: %d,", p.Offsets, p.Quantum),
	} {
		if !strings.Contains(src, want) {
			t.Errorf("repro source missing %q:\n%s", want, src)
		}
	}
}

// TestSTMWitnessReplays covers the write-only STM record path explicitly.
func TestSTMWitnessReplays(t *testing.T) {
	p := GenProgramThreads(5, 4)
	res, err := p.Run(platform.IntelCore, ModeSTM, true)
	if err != nil {
		t.Fatal(err)
	}
	sawSTM := false
	for _, r := range res.Log.Records {
		if r.Kind == htm.WitnessSTM {
			sawSTM = true
			if len(r.Reads) != 0 {
				t.Fatal("STM record must be write-only")
			}
		}
	}
	if !sawSTM {
		t.Fatal("no STM commit records witnessed")
	}
	if v := Replay(res.Log); v != nil {
		t.Fatalf("STM log does not replay: %v", v)
	}
}
