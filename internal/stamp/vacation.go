package stamp

import (
	"fmt"

	"htmcmp/internal/htm"
	"htmcmp/internal/prng"
	"htmcmp/internal/txds"
)

func init() {
	register("vacation-high", func(cfg Config) Benchmark { return newVacation(cfg, true) })
	register("vacation-low", func(cfg Config) Benchmark { return newVacation(cfg, false) })
}

// dict is the table abstraction vacation and intruder switch between the
// paper's variants with: the original STAMP red-black tree for unordered
// sets, or the modified hash table (Section 4).
type dict struct {
	useTree bool
	rb      txds.RBTree
	ht      txds.Hashtable
}

func newDict(t *htm.Thread, v Variant, sizeHint int) dict {
	if v == Original {
		return dict{useTree: true, rb: txds.NewRBTree(t)}
	}
	return dict{ht: txds.NewHashtable(t, sizeHint)}
}

func (d dict) insert(t *htm.Thread, k int64, v uint64) bool {
	if d.useTree {
		return d.rb.Insert(t, k, v)
	}
	return d.ht.Insert(t, k, v)
}

func (d dict) get(t *htm.Thread, k int64) (uint64, bool) {
	if d.useTree {
		return d.rb.Get(t, k)
	}
	return d.ht.Get(t, k)
}

func (d dict) remove(t *htm.Thread, k int64) (uint64, bool) {
	if d.useTree {
		return d.rb.Remove(t, k)
	}
	return d.ht.Remove(t, k)
}

func (d dict) each(t *htm.Thread, fn func(k int64, v uint64) bool) {
	if d.useTree {
		d.rb.Each(t, fn)
	} else {
		d.ht.Each(t, fn)
	}
}

// vacation is STAMP's travel-reservation system: three resource tables
// (cars, flights, rooms) plus a customer table, exercised by client
// transactions — reservations, customer deletions and table updates. Each
// client action is one transaction touching several table lookups and
// updates, which is why the original red-black-tree tables overflow
// POWER8's capacity and the modified hash tables don't (Sections 4, 5.2).
//
// Resource record layout: [total][used][free][price].
// Customer record: a txds.List handle of reservations
// (key = resourceType*relations + id, value = price at booking).
type vacation struct {
	cfg Config

	relations int
	nTxs      int
	numQuery  int // -n: queries per reservation transaction
	queryPct  int // -q: percent of relations eligible for queries
	userPct   int // -u: percent of client actions that are reservations

	resources [3]dict // cars, flights, rooms
	customers dict

	units int
}

const (
	resTotal = 0
	resUsed  = 1
	resFree  = 2
	resPrice = 3
	resWords = 4
)

func newVacation(cfg Config, high bool) *vacation {
	v := &vacation{cfg: cfg}
	if high {
		// STAMP vacation-high: -n4 -q60 -u90.
		v.numQuery, v.queryPct, v.userPct = 4, 60, 90
	} else {
		// STAMP vacation-low: -n2 -q90 -u98.
		v.numQuery, v.queryPct, v.userPct = 2, 90, 98
	}
	// The paper runs STAMP's non-simulator -r16384: contention scales
	// inversely with the relation count, so the table stays large even
	// when the transaction count is scaled down.
	switch cfg.Scale {
	case ScaleTest:
		v.relations, v.nTxs = 512, 400
	case ScaleSim:
		v.relations, v.nTxs = 4096, 4096
	default:
		v.relations, v.nTxs = 16384, 16384
	}
	return v
}

func (v *vacation) Setup(t *htm.Thread) {
	rng := prng.New(v.cfg.Seed ^ 0x766163) // "vac"
	for r := range v.resources {
		v.resources[r] = newDict(t, v.cfg.Variant, v.relations)
		for id := 0; id < v.relations; id++ {
			// STAMP's reservation_t plus its container node is ~100+ bytes
			// of separately malloc'd memory; 128-byte spacing reproduces
			// that heap density (records are not line-padded: on zEC12's
			// 256-byte lines neighbouring records still share a line).
			rec := t.AllocAligned(resWords*8, 128)
			total := uint64(100 + rng.Intn(300))
			t.Store64(rec+resTotal*8, total)
			t.Store64(rec+resUsed*8, 0)
			t.Store64(rec+resFree*8, total)
			t.Store64(rec+resPrice*8, uint64(50+rng.Intn(500)))
			v.resources[r].insert(t, int64(id), rec)
		}
	}
	v.customers = newDict(t, v.cfg.Variant, v.relations)
	for id := 0; id < v.relations; id++ {
		v.customers.insert(t, int64(id), txds.NewList(t).Handle())
	}
}

// reservationKey packs (resource type, id) into the customer-list key.
func (v *vacation) reservationKey(rtype, id int) int64 {
	return int64(rtype*v.relations + id)
}

// makeReservation is STAMP's client reservation action: numQuery random
// queries across the three tables, remembering the highest-priced available
// resource of each type, then booking those for the customer.
func (v *vacation) makeReservation(t *htm.Thread, rng *prng.Rand, queryRange int) {
	var bestID [3]int
	var bestPrice [3]int64
	for i := range bestID {
		bestID[i] = -1
	}
	customer := int64(rng.Intn(queryRange))
	// Choose query targets outside the transaction (like STAMP's client,
	// which draws them from its thread-local RNG first). numQuery is at
	// most 4.
	var types, ids [4]int
	for q := 0; q < v.numQuery; q++ {
		types[q] = rng.Intn(3)
		ids[q] = rng.Intn(queryRange)
	}
	for q := 0; q < v.numQuery; q++ {
		rt, id := types[q], ids[q]
		rec, ok := v.resources[rt].get(t, int64(id))
		if !ok {
			continue
		}
		free := t.Load64(rec + resFree*8)
		price := int64(t.Load64(rec + resPrice*8))
		if free > 0 && price > bestPrice[rt] {
			bestPrice[rt] = price
			bestID[rt] = id
		}
	}
	// Book the winners.
	var custList txds.List
	custLoaded := false
	for rt := 0; rt < 3; rt++ {
		if bestID[rt] < 0 {
			continue
		}
		rec, ok := v.resources[rt].get(t, int64(bestID[rt]))
		if !ok {
			continue
		}
		free := t.Load64(rec + resFree*8)
		if free == 0 {
			continue
		}
		if !custLoaded {
			h, ok := v.customers.get(t, customer)
			if !ok {
				h = uint64(txds.NewList(t).Handle())
				v.customers.insert(t, customer, h)
			}
			custList = txds.ListAt(h)
			custLoaded = true
		}
		key := v.reservationKey(rt, bestID[rt])
		if !custList.Insert(t, key, uint64(bestPrice[rt])) {
			continue // already holds this exact reservation
		}
		t.Store64(rec+resFree*8, free-1)
		t.Store64(rec+resUsed*8, t.Load64(rec+resUsed*8)+1)
	}
}

// deleteCustomer releases all of a customer's reservations and removes the
// customer record.
func (v *vacation) deleteCustomer(t *htm.Thread, rng *prng.Rand, queryRange int) {
	customer := int64(rng.Intn(queryRange))
	h, ok := v.customers.get(t, customer)
	if !ok {
		return
	}
	list := txds.ListAt(h)
	for {
		key, _, ok := list.RemoveFirst(t)
		if !ok {
			break
		}
		rt := int(key) / v.relations
		id := int(key) % v.relations
		rec, ok := v.resources[rt].get(t, int64(id))
		if !ok {
			continue
		}
		t.Store64(rec+resFree*8, t.Load64(rec+resFree*8)+1)
		t.Store64(rec+resUsed*8, t.Load64(rec+resUsed*8)-1)
	}
	v.customers.remove(t, customer)
	t.Free(h)
}

// updateTables grows or shrinks resource availability (STAMP's
// manager_add/deleteReservation path).
func (v *vacation) updateTables(t *htm.Thread, rng *prng.Rand, queryRange int) {
	n := v.numQuery / 2
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		rt := rng.Intn(3)
		id := rng.Intn(queryRange)
		rec, ok := v.resources[rt].get(t, int64(id))
		if !ok {
			continue
		}
		if rng.Bernoulli(0.5) {
			t.Store64(rec+resTotal*8, t.Load64(rec+resTotal*8)+100)
			t.Store64(rec+resFree*8, t.Load64(rec+resFree*8)+100)
		} else if t.Load64(rec+resFree*8) >= 100 {
			t.Store64(rec+resTotal*8, t.Load64(rec+resTotal*8)-100)
			t.Store64(rec+resFree*8, t.Load64(rec+resFree*8)-100)
		}
	}
}

func (v *vacation) Run(runners []Runner) {
	n := len(runners)
	queryRange := v.relations * v.queryPct / 100
	if queryRange < 1 {
		queryRange = 1
	}
	runWorkers(runners, func(tid int, r Runner) {
		rng := prng.Derive(v.cfg.Seed^0x636c69656e74, tid) // "client"
		lo := tid * v.nTxs / n
		hi := (tid + 1) * v.nTxs / n
		// The three action bodies are declared once per worker. Each
		// attempt copies actionRng, the RNG snapshot its transaction set, so
		// every transactional retry replays the same action
		// deterministically.
		var actionRng prng.Rand
		reserve := func(t *htm.Thread) {
			rr := actionRng
			v.makeReservation(t, &rr, queryRange)
		}
		deleteCustomer := func(t *htm.Thread) {
			rr := actionRng
			v.deleteCustomer(t, &rr, queryRange)
		}
		updateTables := func(t *htm.Thread) {
			rr := actionRng
			v.updateTables(t, &rr, queryRange)
		}
		for i := lo; i < hi; i++ {
			r.Thread().Work(60) // client-side action selection and RNG
			action := rng.Intn(100)
			actionRng.Reseed(v.cfg.Seed^0x616374, tid*1000003+i)
			switch {
			case action < v.userPct:
				r.Atomic(reserve)
			case action < v.userPct+(100-v.userPct)/2:
				r.Atomic(deleteCustomer)
			default:
				r.Atomic(updateTables)
			}
		}
	})
	v.units = v.nTxs
}

func (v *vacation) Validate(t *htm.Thread) error {
	// Conservation: per resource, used must equal the number of customer
	// reservations referencing it, and used+free == total.
	wantUsed := make(map[int64]uint64)
	v.customers.each(t, func(_ int64, h uint64) bool {
		txds.ListAt(h).Each(t, func(key int64, _ uint64) bool {
			wantUsed[key]++
			return true
		})
		return true
	})
	for rt := 0; rt < 3; rt++ {
		var err error
		v.resources[rt].each(t, func(id int64, rec uint64) bool {
			total := t.Load64(rec + resTotal*8)
			used := t.Load64(rec + resUsed*8)
			free := t.Load64(rec + resFree*8)
			if used+free != total {
				err = fmt.Errorf("vacation: resource %d/%d: used %d + free %d != total %d",
					rt, id, used, free, total)
				return false
			}
			if w := wantUsed[v.reservationKey(rt, int(id))]; w != used {
				err = fmt.Errorf("vacation: resource %d/%d: used %d but %d customer reservations",
					rt, id, used, w)
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	if v.cfg.Variant == Original {
		if err := v.customers.rb.CheckInvariants(t); err != nil {
			return fmt.Errorf("vacation: customers tree: %w", err)
		}
	}
	return nil
}

func (v *vacation) Units() int { return v.units }
