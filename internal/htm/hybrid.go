package htm

import (
	"htmcmp/internal/mem"
)

// Hybrid-NOrec coexistence: letting hardware transactions, NOrec software
// transactions and the irrevocable global lock run concurrently over the
// same memory — the execution model behind the adaptive runtime
// (internal/adapt), after Hybrid NOrec (Dalessandro et al., reference [15]'s
// successor design).
//
// The two TM layers are not naturally isolated from each other: STM commits
// write memory directly, bypassing the line-ownership table (so HTM readers
// of those lines are never doomed), and HTM commits do not advance the NOrec
// sequence lock (so STM readers never revalidate). Three fences close the
// gap once EnableHybridSTM is on:
//
//  1. Gate subscription: every adaptive hardware transaction transactionally
//     reads a dedicated gate line (SubscribeHybridGate), becoming a line-table
//     reader of it.
//  2. STM writer commits, while they hold the sequence lock, doom every gate
//     subscriber (doomHybridGateReaders) — aborting all in-flight hardware
//     transactions, whose reads may predate the write-back.
//  3. Hardware writer commits acquire the sequence lock around their
//     publication (hybridSeqAcquire/hybridSeqRelease in commit), so STM
//     transactions observe the sequence move and revalidate by value.
//     Acquisition happens while the transaction is still doomable: if an STM
//     writer holds the lock, the spinning hardware committer is aborted
//     through the gate rather than committing stale reads.
//
// The lock side needs no line-table tricks: adaptive software transactions
// subscribe to the global lock word with an ordinary (value-logged) STM
// load, and lock acquisition calls Engine.STMFence after writing the lock
// word, forcing every in-flight software transaction to revalidate and
// observe the held lock.
//
// STM write-back and HTM publication write the arena with no per-line
// synchronisation, which the single-runner baton makes safe: there is no
// scheduling point while the sequence lock is odd.
//
// With EnableHybridSTM off (the default), the only cost is one boolean check
// per hardware writer commit — static-policy runs are byte-identical to the
// pre-hybrid engine (pinned by the golden determinism test).

// hybridFenceCost is the virtual-time cost in cycles of one sequence-lock
// fence operation (acquire or bump), scaled like the platform costs.
const hybridFenceCost = 4

// EnableHybridSTM switches the engine into hybrid HTM/STM mode: it allocates
// the gate line adaptive hardware transactions subscribe to and arms the
// commit-time fences described above. It returns the gate address
// (idempotent: every adaptive executor's constructor calls it).
func (e *Engine) EnableHybridSTM() mem.Addr {
	if e.hybrid {
		return e.hybridGate
	}
	// The gate owns a full conflict-detection line so subscription never
	// falsely conflicts with program data.
	a := e.space.AllocAligned(e.lineSize, e.lineSize)
	e.space.Label(a, e.lineSize, "tm/hybrid-gate")
	e.hybridGate = a
	e.hybrid = true
	return a
}

// SubscribeHybridGate puts the hybrid gate line into the current hardware
// transaction's read set. The adaptive runtime calls it in every hardware
// transaction's prologue; a committing STM writer dooms all subscribers.
func (t *Thread) SubscribeHybridGate() {
	if !t.eng.hybrid {
		panic("htm: SubscribeHybridGate without EnableHybridSTM")
	}
	_ = t.Load64(t.eng.hybridGate)
}

// STMFence forces every in-flight software transaction to revalidate: it
// bumps the NOrec sequence lock by two (even to even), spinning out any
// writer mid-commit. The adaptive runtime calls it after writing the global
// lock word, so software transactions — which subscribe to the lock word by
// value — observe the held lock at their next load or commit and abort.
func (e *Engine) STMFence(t *Thread) {
	t.seqAcquire(2)
	t.work(e.scaledCost(hybridFenceCost))
}

// seqAcquire moves the NOrec sequence lock from an even value s to s+delta,
// spinning out any writer mid-commit, and returns s. The closure (and
// SpinUntil's trip through the scheduler) is paid only under contention.
func (t *Thread) seqAcquire(delta uint64) uint64 {
	e := t.eng
	if s := e.stmSeq; s&1 == 0 {
		e.stmSeq = s + delta
		return s
	}
	var s uint64
	t.SpinUntil(4, func() bool {
		s = e.stmSeq
		if s&1 != 0 {
			return false
		}
		e.stmSeq = s + delta
		return true
	})
	return s
}

// hybridSeqAcquire takes the NOrec sequence lock for a hardware writer
// commit (fence 3 above). Called before the transaction becomes committing:
// while spinning here the thread is still doomable through the gate, which
// is what makes waiting on an STM writer safe.
func (t *Thread) hybridSeqAcquire() {
	t.hybridSeq = t.seqAcquire(1)
	t.work(t.eng.scaledCost(hybridFenceCost))
}

// hybridSeqRelease releases the sequence lock taken by hybridSeqAcquire,
// advancing it past the publication so software transactions revalidate.
func (t *Thread) hybridSeqRelease() {
	t.eng.stmSeq = t.hybridSeq + 2
}

// doomHybridGateReaders aborts every hardware transaction subscribed to the
// gate line (fence 2 above). Called by STM writer commits while the sequence
// lock is held: subscribers' transactional reads may predate the write-back
// this commit is publishing, so none of them may commit. A subscriber that
// already reached the committing state would hold the sequence lock itself
// (hybridSeqAcquire precedes the status transition), so every subscriber
// found here is still doomable — except read-only committers, which publish
// nothing and serialise before this commit.
func (t *Thread) doomHybridGateReaders() {
	line := t.lineOf(t.eng.hybridGate)
	rec := t.rec(line)
	if w := rec.writer; w >= 0 && w != int32(t.slot) {
		if t.doomTagged(line, w, ReasonConflict) {
			rec.writer = -1
		}
	}
	for w, word := range rec.readers {
		for word != 0 {
			bit := word & (-word)
			word &^= bit
			slot := int32(w)*64 + trailingZeros(bit)
			if slot == int32(t.slot) {
				continue
			}
			if t.doomTagged(line, slot, ReasonConflict) {
				rec.readers[w] &^= bit
			}
		}
	}
}
