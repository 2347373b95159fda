package htm

// specIDPool models Blue Gene/Q's 128 speculation IDs (Section 2.1). Every
// transaction needs an ID at begin; committed/aborted IDs are not
// immediately reusable but go to a retired list and are reclaimed in batched
// passes. When the free list is empty, the next transaction to begin
// performs (and pays for) a reclamation pass with no scheduling point in it —
// which is exactly the serialisation the paper measures as the ssca2
// bottleneck ("the start of a new transaction was often blocked until a
// speculation ID became available").
type specIDPool struct {
	free        []int
	retired     []int
	reclaimCost int
	// availableAt is the virtual time at which the last reclamation pass
	// finished; acquirers stall until then, modelling "the
	// start of a new transaction was often blocked until a speculation ID
	// became available" (Section 5.1).
	availableAt uint64
}

func newSpecIDPool(n, reclaimCost int) *specIDPool {
	p := &specIDPool{
		free:        make([]int, 0, n),
		retired:     make([]int, 0, n),
		reclaimCost: reclaimCost,
	}
	for i := n - 1; i >= 0; i-- {
		p.free = append(p.free, i)
	}
	return p
}

// acquire assigns a speculation ID to t, waiting (or reclaiming) when the
// pool is exhausted. It reports whether the caller had to wait or reclaim.
func (p *specIDPool) acquire(t *Thread) (waited bool) {
	for len(p.free) == 0 {
		waited = true
		if len(p.retired) > 0 {
			// Reclamation pass: retired IDs become reusable, at a cost the
			// acquirer pays (hardware scrubs the L2 directory of the
			// retired IDs' marks).
			t.work(p.reclaimCost)
			if t.vclock > p.availableAt {
				p.availableAt = t.vclock
			}
			p.free = append(p.free, p.retired...)
			p.retired = p.retired[:0]
			break
		}
		t.Pause(16) // every ID is in a live transaction: wait for one to retire
	}
	// A transaction cannot begin before the reclamation that freed its ID
	// completed.
	if t.vclock < p.availableAt {
		t.vclock = p.availableAt
	}
	id := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	t.specID = id
	return waited
}

// release retires t's ID; it becomes allocatable again only after a
// reclamation pass.
func (p *specIDPool) release(id int) {
	p.retired = append(p.retired, id)
}
