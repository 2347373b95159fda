package htm

// Commit-order witness log: the recording half of the serializability oracle
// (the checking half is internal/verify).
//
// When Config.Witness is set, the engine records one TxRecord per committed
// transaction — its read set as (line, version, value hash) triples and its
// write set as published line images — plus one record per strongly-isolated
// non-transactional store. Records carry a global commit sequence number
// (drawn with no scheduling point between it and the publication, so it is
// consistent with the order in which effects became visible) and the committing
// thread's virtual clock. verify.Replay re-executes the log against a fresh
// sequential memory: if every committed transaction's recorded reads are
// consistent with the state produced by replaying the records in sequence
// order, the run was serializable in commit order.
//
// Like obs.Tracer, the witness is gated behind a single nil check and
// charges no virtual time, so witnessed runs are cycle-identical to
// unwitnessed ones (pinned by internal/tm's golden determinism test).
// Unlike the tracer it does touch the per-access path (one nil check per
// transactional load), because read versions must be sampled at first-read
// time.
//
// Scope and limitations:
//
//   - Non-transactional loads are not recorded; only transactional reads are
//     checked for consistency.
//   - NOrec software commits are recorded as write-only records (word
//     granularity) and do not participate in line versioning: STM and HTM
//     transactions are never mixed in one run, and NOrec's value-based
//     validation has no line-version analogue.
//   - POWER8 rollback-only transactions do not track loads, so their reads
//     are (correctly) not witnessed.
//   - Arena allocator reuse rewrites raw memory without a witness record
//     (mem.Space zeroes recycled blocks), so runs that free and re-allocate
//     simulated memory mid-run can produce false positives. Workloads under
//     the oracle must confine Alloc/Free churn to the setup phase; the
//     verify fuzzer's generated programs perform no transactional
//     allocation at all.

import (
	"sort"

	"htmcmp/internal/mem"
)

// WitnessKind distinguishes the three record sources.
type WitnessKind uint8

const (
	// WitnessTx is a committed hardware transaction.
	WitnessTx WitnessKind = iota
	// WitnessNonTx is one strongly-isolated non-transactional store (or a
	// successful non-transactional CompareAndSwap64).
	WitnessNonTx
	// WitnessSTM is a committed NOrec software transaction (writes only).
	WitnessSTM
)

func (k WitnessKind) String() string {
	switch k {
	case WitnessTx:
		return "tx"
	case WitnessNonTx:
		return "non-tx"
	case WitnessSTM:
		return "stm"
	}
	return "?"
}

// WitnessRead is one first-read of a conflict-detection line by a
// transaction: the line's write-version and the FNV-64a hash of its bytes at
// the moment of the read.
type WitnessRead struct {
	Line uint32
	Ver  uint64
	Sum  uint64
}

// WitnessWrite is one published write: a full line image for hardware
// commits, the stored bytes for non-transactional stores, one word for STM
// commits.
type WitnessWrite struct {
	Addr mem.Addr
	Line uint32
	Data []byte
}

// TxRecord is one witnessed commit (or non-transactional store).
type TxRecord struct {
	// Seq is the global commit sequence number; replaying records in Seq
	// order reproduces the order in which effects became visible.
	Seq    uint64
	Thread int
	VClock uint64
	Kind   WitnessKind
	Reads  []WitnessRead
	Writes []WitnessWrite
}

// Witness collects the commit-order log of one engine. Create with
// NewWitness, pass via Config.Witness, call Start after workload setup
// (Start snapshots the arena and resets the log), and extract the finished
// log with Log once the region has returned.
type Witness struct {
	space     *mem.Space
	lineSize  int
	lineShift uint
	nLines    int
	seq       uint64
	// ver counts committed writes per line; a first-read samples it together
	// with the value hash.
	ver     []uint64
	initial []byte
	recs    [][]TxRecord // per thread slot, owner-appended
}

// NewWitness returns an empty witness; htm.New sizes it to the engine it is
// attached to.
func NewWitness() *Witness { return &Witness{} }

// attach sizes the witness for engine e (called from New).
func (w *Witness) attach(e *Engine) {
	w.space = e.space
	w.lineSize = e.lineSize
	w.lineShift = e.lineShift
	w.nLines = e.nLines
	w.ver = make([]uint64, e.nLines)
	w.recs = make([][]TxRecord, e.cfg.Threads)
	w.seq = 0
	w.initial = nil
}

// Start snapshots the arena as the replay's initial state and resets the
// log. Call it after workload setup, before the measured/checked region,
// with no transactions in flight.
func (w *Witness) Start() {
	if w.space == nil {
		panic("htm: Witness.Start before the witness was attached to an engine (Config.Witness)")
	}
	w.initial = append(w.initial[:0], w.space.Data()...)
	clear(w.ver)
	clear(w.recs)
	w.seq = 0
}

// WitnessLog is the extracted, replayable log: the initial and final arena
// snapshots bracketing the records, sorted by commit sequence. Space is the
// live arena (for RegionAt symbolication); it is not consulted for bytes.
type WitnessLog struct {
	LineSize int
	NLines   int
	Space    *mem.Space
	Initial  []byte
	Final    []byte
	Records  []TxRecord
}

// Log extracts the witnessed records merged across threads in commit-
// sequence order, plus initial/final arena snapshots. Call between regions.
func (w *Witness) Log() WitnessLog {
	var all []TxRecord
	for _, rs := range w.recs {
		all = append(all, rs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	return WitnessLog{
		LineSize: w.lineSize,
		NLines:   w.nLines,
		Space:    w.space,
		Initial:  append([]byte(nil), w.initial...),
		Final:    append([]byte(nil), w.space.Data()...),
		Records:  all,
	}
}

// LineSum is the FNV-64a hash of line's bytes in data (clipped at the arena
// end), the value fingerprint used by WitnessRead.Sum. Exported so
// verify.Replay computes the same fingerprint.
func LineSum(data []byte, line uint32, lineSize int) uint64 {
	base := uint64(line) * uint64(lineSize)
	end := base + uint64(lineSize)
	if end > uint64(len(data)) {
		end = uint64(len(data))
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range data[base:end] {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// ---------------------------------------------------------------------------
// Recording hooks (called from Thread with t.wit != nil)

// witnessRead records the first transactional read of line: its current
// write-version and value hash.
func (t *Thread) witnessRead(line uint32) {
	if t.witSeen.has(line) {
		return
	}
	t.witSeen.put(line, true)
	v := t.wit.ver[line]
	sum := LineSum(t.eng.space.Data(), line, t.eng.lineSize)
	t.witReads = append(t.witReads, WitnessRead{Line: line, Ver: v, Sum: sum})
}

// witnessCommitRecord appends the TxRecord of a just-published hardware
// commit. The commit sequence number was taken before the transaction
// became visibly committing; the write images were collected during
// publication.
func (t *Thread) witnessCommitRecord(seq uint64) {
	rec := TxRecord{Seq: seq, Thread: t.slot, VClock: t.vclock, Kind: WitnessTx}
	if len(t.witReads) > 0 {
		rec.Reads = append([]WitnessRead(nil), t.witReads...)
	}
	if len(t.witWrites) > 0 {
		rec.Writes = t.witWrites
		t.witWrites = nil // ownership moves into the record
	}
	w := t.wit
	w.recs[t.slot] = append(w.recs[t.slot], rec)
}

// witnessNonTx records one strongly-isolated non-transactional store of n
// bytes at a, reading the stored bytes back from the arena. Its caller has
// no scheduling point between the store and this call, so the sequence number
// is consistent with the store's visibility order.
func (t *Thread) witnessNonTx(a mem.Addr, n int) {
	w := t.wit
	line := t.lineOf(a)
	w.seq++
	seq := w.seq
	w.ver[line]++
	data := append([]byte(nil), t.eng.space.Data()[a:a+uint64(n)]...)
	w.recs[t.slot] = append(w.recs[t.slot], TxRecord{
		Seq: seq, Thread: t.slot, VClock: t.vclock, Kind: WitnessNonTx,
		Writes: []WitnessWrite{{Addr: a, Line: line, Data: data}},
	})
}

// witnessSTM records a committed NOrec writer transaction while the global
// sequence lock is held (writes only, word granularity; no line-version
// participation — see the package comment).
func (t *Thread) witnessSTM() {
	w := t.wit
	st := &t.stm
	w.seq++
	seq := w.seq
	writes := make([]WitnessWrite, 0, len(st.order))
	data := t.eng.space.Data()
	for _, a := range st.order {
		writes = append(writes, WitnessWrite{
			Addr: a, Line: t.lineOf(a),
			Data: append([]byte(nil), data[a:a+8]...),
		})
	}
	w.recs[t.slot] = append(w.recs[t.slot], TxRecord{
		Seq: seq, Thread: t.slot, VClock: t.vclock, Kind: WitnessSTM,
		Writes: writes,
	})
}
