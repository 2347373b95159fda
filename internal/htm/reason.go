package htm

// Reason identifies why a transaction aborted. It is the simulator-level
// analogue of the abort-reason codes Section 2 describes (zEC12 condition
// codes, Intel's EAX bits, POWER8's TEXASR): enough to drive the paper's
// retry policies and the abort-breakdown of Figure 3.
type Reason int

// Abort reasons, ordered so that Figure 3's four categories (capacity
// overflow, data conflict, other, lock conflict) can be derived by Category.
const (
	// ReasonNone means no abort (zero value).
	ReasonNone Reason = iota
	// ReasonConflict is a data conflict with another transaction.
	ReasonConflict
	// ReasonNonTxConflict is a conflict with a non-transactional access
	// (strong isolation). POWER8 distinguishes this from ReasonConflict;
	// zEC12 and Intel do not (Section 2, "Abort-reason code").
	ReasonNonTxConflict
	// ReasonCapacityLoad is a transactional-load capacity overflow.
	ReasonCapacityLoad
	// ReasonCapacityStore is a transactional-store capacity overflow.
	ReasonCapacityStore
	// ReasonCapacityWay is a capacity abort caused by a cache-way conflict:
	// the set-associative structure holding buffered stores overflowed one
	// set even though total capacity remained (Section 2).
	ReasonCapacityWay
	// ReasonCapacitySMT is a capacity abort caused by SMT threads sharing
	// the per-core tracking resources (Section 2).
	ReasonCapacitySMT
	// ReasonExplicit is a programmatic abort (tabort), e.g. the Figure 1
	// retry mechanism aborting because the global lock is held.
	ReasonExplicit
	// ReasonCacheFetch models zEC12's undocumented transient
	// "cache-fetch-related" aborts — the dominant grey "other" bars of
	// Figure 3 (Section 5.1).
	ReasonCacheFetch
	// ReasonCommitterConflict is raised in the requesting transaction when
	// the conflicting owner is mid-commit and therefore immune.
	ReasonCommitterConflict
	// ReasonInterrupt is an interrupt-induced (spurious) abort: BG/Q and
	// zEC12 transactions die whenever an external interrupt is delivered
	// mid-transaction (Section 2), independent of the program's behaviour.
	// Transient — a retry usually succeeds. Raised only by the chaos
	// injector (internal/chaos); real scheduling noise is outside the
	// virtual-time model.
	ReasonInterrupt

	numReasons
)

// NumReasons is the size of the Reason vocabulary (for stats arrays).
const NumReasons = int(numReasons)

// String returns a short identifier for the reason.
func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonConflict:
		return "conflict"
	case ReasonNonTxConflict:
		return "nontx-conflict"
	case ReasonCapacityLoad:
		return "capacity-load"
	case ReasonCapacityStore:
		return "capacity-store"
	case ReasonCapacityWay:
		return "capacity-way"
	case ReasonCapacitySMT:
		return "capacity-smt"
	case ReasonExplicit:
		return "explicit"
	case ReasonCacheFetch:
		return "cache-fetch"
	case ReasonCommitterConflict:
		return "committer-conflict"
	case ReasonInterrupt:
		return "interrupt"
	}
	return "unknown"
}

// Category is Figure 3's abort breakdown bucket.
type Category int

// Figure 3 categories. Lock conflicts are identified by the software retry
// mechanism (Section 3), not by the engine, so CategoryLockConflict is
// assigned in internal/tm.
const (
	CategoryCapacity Category = iota
	CategoryDataConflict
	CategoryOther
	CategoryLockConflict
	NumCategories
)

// Category maps the engine-level reason to Figure 3's bucket (before the
// retry mechanism reclassifies lock-word conflicts).
func (r Reason) Category() Category {
	switch r {
	case ReasonCapacityLoad, ReasonCapacityStore, ReasonCapacityWay, ReasonCapacitySMT:
		return CategoryCapacity
	case ReasonConflict, ReasonNonTxConflict, ReasonCommitterConflict:
		return CategoryDataConflict
	default:
		return CategoryOther
	}
}

// Abort describes one transaction abort: the reason plus the processor's own
// persistent/transient decision (reported by zEC12, Intel and POWER8;
// Section 2). Capacity overflows are reported persistent; everything else
// transient.
type Abort struct {
	Reason     Reason
	Persistent bool
}
