package verify

// Shrinking: greedily minimise a failing Program while the predicate keeps
// failing, so fuzz counterexamples come out small enough to read. Passes
// remove whole threads, then whole transactions, then individual
// operations, then zero the schedule inputs (quantum, start offsets),
// repeating until a fixpoint (or the evaluation budget runs
// out). The predicate receives a candidate and reports whether it still
// fails; every candidate is a deep copy, so the predicate may run it
// freely.

// shrinkBudget bounds predicate evaluations: shrinking a pathological case
// must terminate within a fuzz iteration's time budget.
const shrinkBudget = 400

// Shrink returns a minimal (under its greedy passes) program that still
// makes failing return true. p itself must fail; the result always fails.
func Shrink(p *Program, failing func(*Program) bool) *Program {
	cur := p.clone()
	evals := 0
	try := func(cand *Program) bool {
		if evals >= shrinkBudget {
			return false
		}
		evals++
		if failing(cand) {
			cur = cand
			return true
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		// Drop whole threads (any index: the remaining schedules slide down,
		// keeping Threads contiguous).
		for t := cur.Threads - 1; t >= 0 && cur.Threads > 1; t-- {
			cand := cur.clone()
			cand.Txns = append(cand.Txns[:t:t], cand.Txns[t+1:]...)
			if t < len(cand.Offsets) {
				cand.Offsets = append(cand.Offsets[:t:t], cand.Offsets[t+1:]...)
			}
			cand.Threads--
			if try(cand) {
				changed = true
			}
		}
		// Drop whole transactions.
		for t := 0; t < cur.Threads; t++ {
			for j := len(cur.Txns[t]) - 1; j >= 0; j-- {
				cand := cur.clone()
				cand.Txns[t] = append(cand.Txns[t][:j:j], cand.Txns[t][j+1:]...)
				if try(cand) {
					changed = true
				}
			}
		}
		// Drop individual operations.
		for t := 0; t < cur.Threads; t++ {
			for j := range cur.Txns[t] {
				for k := len(cur.Txns[t][j].Ops) - 1; k >= 0; k-- {
					cand := cur.clone()
					ops := cand.Txns[t][j].Ops
					cand.Txns[t][j].Ops = append(ops[:k:k], ops[k+1:]...)
					if try(cand) {
						changed = true
					}
				}
			}
		}
		// Zero the schedule inputs: a counterexample that fails on the
		// default schedule reads better without one.
		if cur.Quantum != 0 {
			cand := cur.clone()
			cand.Quantum = 0
			if try(cand) {
				changed = true
			}
		}
		for t := range cur.Offsets {
			if cur.Offsets[t] == 0 {
				continue
			}
			cand := cur.clone()
			cand.Offsets[t] = 0
			if try(cand) {
				changed = true
			}
		}
		if evals >= shrinkBudget {
			break
		}
	}
	return cur
}

// clone deep-copies the program.
func (p *Program) clone() *Program {
	q := &Program{Seed: p.Seed, Threads: p.Threads, Quantum: p.Quantum}
	q.Arrays = append([]ArraySpec(nil), p.Arrays...)
	q.Offsets = append([]int(nil), p.Offsets...)
	q.Txns = make([][]Txn, len(p.Txns))
	for t, txs := range p.Txns {
		q.Txns[t] = make([]Txn, len(txs))
		for j, tx := range txs {
			q.Txns[t][j] = Txn{Ops: append([]Op(nil), tx.Ops...)}
		}
	}
	return q
}
