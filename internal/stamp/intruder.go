package stamp

import (
	"fmt"

	"htmcmp/internal/htm"
	"htmcmp/internal/mem"
	"htmcmp/internal/prng"
	"htmcmp/internal/txds"
)

func init() {
	register("intruder", func(cfg Config) Benchmark { return newIntruder(cfg) })
}

// attackSig is the signature the detector scans reassembled flows for.
const attackSig = "ATTACKSIG"

// intruder is STAMP's network intrusion detector: threads pull packet
// fragments off a shared queue (transaction 1), reassemble them into flows
// in a shared decoder dictionary (transaction 2: insert fragment; when the
// flow is complete, extract it and build the assembled payload), then scan
// the private assembled flow for attack signatures outside any transaction.
//
// Data-structure variants (Section 4): the original uses a red-black tree
// for the flow dictionary keyed by flow id (an unordered set — wrong tool)
// and a sorted linked list for each flow's fragments (an ordered set); the
// modified version uses a hash table for the dictionary and a red-black
// tree for the fragment lists.
//
// Packet record layout: [flowId][fragId][numFrags][lenBytes][dataAddr].
// Flow-state record: [received][numFrags][collectionHandle].
type intruder struct {
	cfg        Config
	nFlows     int
	maxFragLen int

	queue    txds.Queue
	decoder  dict
	nAttacks int // injected ground truth

	found     int
	done      int
	units     int
	fragTotal int
}

const (
	pktFlow  = 0
	pktFrag  = 1
	pktNFrag = 2
	pktLen   = 3
	pktData  = 4
	pktWords = 5

	flowRecv  = 0
	flowNFrag = 1
	flowColl  = 2
	flowWords = 3
)

func newIntruder(cfg Config) *intruder {
	b := &intruder{cfg: cfg}
	switch cfg.Scale {
	case ScaleTest:
		b.nFlows = 64
	case ScaleSim:
		b.nFlows = 1024
	default:
		b.nFlows = 4096
	}
	b.maxFragLen = 64
	return b
}

func (b *intruder) Setup(t *htm.Thread) {
	rng := prng.New(b.cfg.Seed ^ 0x696e7472) // "intr"
	type pkt struct{ rec mem.Addr }
	var packets []pkt

	for flow := 0; flow < b.nFlows; flow++ {
		// Flow payload: 64 bytes to ~2 KB with a long tail (multiple of
		// 8), matching the heavy-tailed flow sizes behind the paper's
		// Figure 10/11 intruder footprints.
		words := 8 + rng.Intn(25)
		if rng.Bernoulli(0.15) {
			words += 32 + rng.Intn(192)
		}
		n := words * 8
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte('a' + rng.Intn(26))
		}
		if rng.Bernoulli(0.1) {
			off := rng.Intn(n - len(attackSig))
			copy(payload[off:], attackSig)
			b.nAttacks++
		}
		data := t.Alloc(n)
		t.Engine().Space().WriteBytes(data, payload)

		// Split into 1..16 fragments on 8-byte boundaries (STAMP -l16).
		nFrag := 1 + rng.Intn(16)
		if nFrag > words {
			nFrag = words
		}
		cuts := make([]int, 0, nFrag+1)
		cuts = append(cuts, 0)
		perm := rng.Perm(words - 1)
		for _, c := range perm[:nFrag-1] {
			cuts = append(cuts, (c+1)*8)
		}
		cuts = append(cuts, n)
		sortInts(cuts)
		for f := 0; f < nFrag; f++ {
			rec := t.Alloc(pktWords * 8)
			t.Store64(rec+pktFlow*8, uint64(flow))
			t.Store64(rec+pktFrag*8, uint64(f))
			t.Store64(rec+pktNFrag*8, uint64(nFrag))
			t.Store64(rec+pktLen*8, uint64(cuts[f+1]-cuts[f]))
			t.Store64(rec+pktData*8, data+uint64(cuts[f]))
			packets = append(packets, pkt{rec: rec})
		}
		b.fragTotal += nFrag
	}
	// Shuffle fragments globally (packets arrive interleaved).
	rng.Shuffle(len(packets), func(i, j int) { packets[i], packets[j] = packets[j], packets[i] })
	b.queue = txds.NewQueue(t, len(packets)+1)
	for _, p := range packets {
		b.queue.Push(t, p.rec)
	}
	b.decoder = newDict(t, b.cfg.Variant, 4*b.nFlows)
	b.found, b.done = 0, 0
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// fragments of a flow are collected in an ordered set keyed by fragment id:
// a sorted list in the original, a red-black tree in the modified variant.
func (b *intruder) newCollection(t *htm.Thread) uint64 {
	if b.cfg.Variant == Original {
		return uint64(txds.NewList(t).Handle())
	}
	return uint64(txds.NewRBTree(t).Handle())
}

func (b *intruder) collInsert(t *htm.Thread, h uint64, fragID int64, rec uint64) {
	if b.cfg.Variant == Original {
		txds.ListAt(h).Insert(t, fragID, rec)
	} else {
		txds.RBTreeAt(h).Insert(t, fragID, rec)
	}
}

func (b *intruder) collEach(t *htm.Thread, h uint64, fn func(k int64, v uint64) bool) {
	if b.cfg.Variant == Original {
		txds.ListAt(h).Each(t, fn)
	} else {
		txds.RBTreeAt(h).Each(t, fn)
	}
}

func (b *intruder) Run(runners []Runner) {
	runWorkers(runners, func(tid int, r Runner) {
		rng := prng.Derive(b.cfg.Seed^0x776f726b, tid) // per-item work jitter
		// Both transaction bodies, and the variables they hand back, are
		// declared once per worker; decode clears its results on every
		// attempt.
		var pkt uint64
		var ok bool
		grab := func(t *htm.Thread) {
			pkt, ok = b.queue.Pop(t)
		}
		var assembled mem.Addr
		var assembledLen int
		// decode: if this fragment completes its flow, assemble the payload
		// inside the transaction (STAMP's decoder_process + getComplete
		// path).
		decode := func(t *htm.Thread) {
			assembled, assembledLen = 0, 0
			flow := int64(t.Load64(pkt + pktFlow*8))
			fragID := int64(t.Load64(pkt + pktFrag*8))
			nFrag := t.Load64(pkt + pktNFrag*8)

			stateH, ok := b.decoder.get(t, flow)
			if !ok {
				state := t.Alloc(flowWords * 8)
				t.Store64(state+flowRecv*8, 0)
				t.Store64(state+flowNFrag*8, nFrag)
				t.Store64(state+flowColl*8, b.newCollection(t))
				b.decoder.insert(t, flow, state)
				stateH = state
			}
			coll := t.Load64(stateH + flowColl*8)
			b.collInsert(t, coll, fragID, pkt)
			recv := t.Load64(stateH+flowRecv*8) + 1
			t.Store64(stateH+flowRecv*8, recv)
			if recv < nFrag {
				return
			}
			// Flow complete: remove from the dictionary and assemble.
			b.decoder.remove(t, flow)
			total := 0
			b.collEach(t, coll, func(_ int64, frag uint64) bool {
				total += int(t.Load64(frag + pktLen*8))
				return true
			})
			buf := t.Alloc(total)
			off := uint64(0)
			b.collEach(t, coll, func(_ int64, frag uint64) bool {
				l := t.Load64(frag + pktLen*8)
				src := t.Load64(frag + pktData*8)
				for i := uint64(0); i < l; i += 8 {
					// Payload reads are transactional: hardware
					// tracks them, and on POWER8 they occupy TMCAM
					// entries — the capacity pressure behind the
					// paper's intruder findings.
					t.Store64(buf+off+i, t.Load64(src+i))
				}
				off += l
				return true
			})
			assembled, assembledLen = buf, total
		}
		for {
			// Transaction 1: grab a packet.
			r.Atomic(grab)
			if !ok {
				return
			}
			r.Thread().Work(200 + rng.Intn(160)) // variable decode work per packet
			// Transaction 2: decode.
			r.Atomic(decode)
			// Detection phase: private scan, outside any transaction.
			if assembled != 0 {
				if scanForSignature(r.Thread(), assembled, assembledLen) {
					b.found++
				}
				b.done++
			}
		}
	})
	b.units = b.fragTotal
}

// scanForSignature searches the assembled (thread-private) flow for the
// attack signature.
func scanForSignature(t *htm.Thread, buf mem.Addr, n int) bool {
	if n < len(attackSig) {
		return false
	}
	for i := 0; i+len(attackSig) <= n; i++ {
		hit := true
		for j := 0; j < len(attackSig); j++ {
			if t.LoadRO8(buf+uint64(i+j)) != attackSig[j] {
				hit = false
				break
			}
		}
		if hit {
			return true
		}
	}
	return false
}

func (b *intruder) Validate(t *htm.Thread) error {
	if b.done != b.nFlows {
		return fmt.Errorf("intruder: %d flows reassembled, want %d", b.done, b.nFlows)
	}
	if b.found != b.nAttacks {
		return fmt.Errorf("intruder: %d attacks detected, want %d", b.found, b.nAttacks)
	}
	if !b.queue.Empty(t) {
		return fmt.Errorf("intruder: packet queue not drained")
	}
	// The decoder dictionary must be empty: every flow completed.
	leftover := 0
	b.decoder.each(t, func(int64, uint64) bool { leftover++; return true })
	if leftover != 0 {
		return fmt.Errorf("intruder: %d incomplete flows left in decoder", leftover)
	}
	return nil
}

func (b *intruder) Units() int { return b.units }
