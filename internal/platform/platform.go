// Package platform defines behavioural models of the four HTM-capable
// processors the paper compares: IBM Blue Gene/Q, IBM zEnterprise EC12,
// Intel Core i7-4770 (Haswell), and IBM POWER8.
//
// Each Spec carries the parameters of Table 1 (conflict-detection
// granularity, transactional load/store capacities, cache geometry, SMT
// level, abort-reason vocabulary) plus the implementation quirks Sections 2
// and 5 identify as the causes of each system's distinctive behaviour:
// Blue Gene/Q's speculation-ID pool and software begin/end overhead, zEC12's
// cache-fetch-related transient aborts, Intel's adjacent-line hardware
// prefetch entering the transactional read set, and POWER8's tiny combined
// L2-TMCAM capacity.
package platform

import "fmt"

// Kind identifies one of the four modelled processors.
type Kind int

// The four processors of the study, in the paper's order.
const (
	BlueGeneQ Kind = iota
	ZEC12
	IntelCore
	POWER8
	numKinds
)

// String returns the full platform name used in the paper's figures.
func (k Kind) String() string {
	switch k {
	case BlueGeneQ:
		return "Blue Gene/Q"
	case ZEC12:
		return "zEC12"
	case IntelCore:
		return "Intel Core"
	case POWER8:
		return "POWER8"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Short returns the abbreviation used in Figures 3–5 (BG, z12, IC, P8).
func (k Kind) Short() string {
	switch k {
	case BlueGeneQ:
		return "BG"
	case ZEC12:
		return "z12"
	case IntelCore:
		return "IC"
	case POWER8:
		return "P8"
	}
	return "??"
}

// ParseKind resolves a platform name as the commands' -platform flags spell
// it: bgq, zec12, intel or power8, the Short abbreviations in lower case, or
// one of a few older aliases.
func ParseKind(name string) (Kind, error) {
	switch name {
	case "bgq", "bg", "bluegene", "bluegeneq":
		return BlueGeneQ, nil
	case "zec12", "z12", "z":
		return ZEC12, nil
	case "intel", "ic", "core":
		return IntelCore, nil
	case "power8", "p8":
		return POWER8, nil
	}
	return 0, fmt.Errorf("unknown platform %q (bgq, zec12, intel, power8)", name)
}

// BGQMode selects Blue Gene/Q's transactional execution mode (Section 2.1).
type BGQMode int

const (
	// ShortRunning buffers transactional data only in the L2, so every
	// transactional load pays an L2 round trip, but transactions start
	// without invalidating the L1.
	ShortRunning BGQMode = iota
	// LongRunning lets the L1 buffer transactional data: loads are cheap,
	// but every transaction begin invalidates the L1 (a large fixed cost)
	// and conflict detection coarsens to the full 128-byte L2 line.
	LongRunning
)

func (m BGQMode) String() string {
	if m == LongRunning {
		return "long-running"
	}
	return "short-running"
}

// CostModel holds the software-visible overheads of transactional execution,
// in abstract work units (one unit is one iteration of a calibrated spin
// loop, roughly a nanosecond-scale ALU op). The engine injects these as busy
// work so that relative single-thread overheads match Section 5.1: Blue
// Gene/Q degraded single-thread kmeans by ~40% (software register
// checkpointing, kernel calls to begin/end, L1 invalidation or bypass) while
// the other three processors stayed within ~10%.
type CostModel struct {
	Begin      int // entering transactional execution
	Commit     int // successful commit
	Abort      int // rollback processing
	TxLoad     int // extra cost per transactional load
	TxStore    int // extra cost per transactional store
	CAS        int // atomic compare-and-swap (serialising instruction)
	SpecIDHold int // Blue Gene/Q: cost of one ID-reclamation pass (held under the pool lock)
}

// Spec is the behavioural model of one processor's HTM implementation.
// Fields marked (T1) come directly from Table 1 of the paper.
type Spec struct {
	Kind Kind
	Name string // full marketing name with core/SMT configuration
	Freq string // clock, for Table 1 rendering only

	// Topology.
	Cores int // physical cores (T1 test machines: 16 / 16 / 4 / 6)
	SMT   int // hardware threads per core (T1: 4 / none=1 / 2 / 8)

	// Conflict detection.
	LineSize int // conflict-detection granularity in bytes (T1)

	// Transaction capacity, in bytes per physical core (T1). When
	// CombinedCapacity is true, loads and stores share one budget
	// (Blue Gene/Q's L2 ways, POWER8's 64-entry TMCAM).
	LoadCapacity     int
	StoreCapacity    int
	CombinedCapacity bool

	// Store-buffer associativity. When StoreSets > 0, buffered store lines
	// are tracked per cache set and overflowing StoreWays lines in one set
	// aborts the transaction even below StoreCapacity (Intel's L1-resident
	// store buffering; Section 2's cache-way-conflict capacity aborts).
	StoreSets int
	StoreWays int

	// Cache geometry, for Table 1 rendering.
	L1Desc string
	L2Desc string

	// AbortReasonKinds is the size of the processor's abort-reason
	// vocabulary (T1: – / 14 / 6 / 11).
	AbortReasonKinds int

	// ReportsPersistence is true when the processor's abort code includes
	// its own persistent/transient decision (zEC12, Intel, POWER8).
	ReportsPersistence bool

	// SpecIDs is Blue Gene/Q's pool of speculation IDs (128); zero
	// elsewhere. Transactions block at begin when the pool is empty and
	// IDs are reclaimed in batched passes (Section 2.1).
	SpecIDs int

	// PrefetchProb is the probability that a transactional access also
	// pulls the adjacent line into the transactional read set, modelling
	// Intel's hardware prefetcher participating in conflict detection
	// (Section 5.1). Zero disables the prefetcher model.
	PrefetchProb float64

	// CacheFetchAbortProb is the per-transactional-access probability of a
	// spurious transient abort, modelling zEC12's undocumented
	// "cache-fetch-related" aborts that dominate its abort mix in
	// Figure 3. Zero elsewhere.
	CacheFetchAbortProb float64

	// Feature flags (Section 6).
	HasConstrainedTx  bool // zEC12 constrained transactions
	HasHLE            bool // Intel hardware lock elision
	HasSuspendResume  bool // POWER8 suspend/resume instructions
	HasRollbackOnly   bool // POWER8 rollback-only transactions
	SoftwareRetryOnly bool // Blue Gene/Q: only the system-provided retry mechanism

	// Costs. For Blue Gene/Q, TxLoad applies in short-running mode
	// (every load reaches the L2) and BeginLong replaces Begin in
	// long-running mode (L1 invalidation at transaction start).
	Costs     CostModel
	BeginLong int
}

// LoadCapacityLines returns the load capacity in conflict-detection lines.
func (s *Spec) LoadCapacityLines() int { return s.LoadCapacity / s.LineSize }

// StoreCapacityLines returns the store capacity in conflict-detection lines.
func (s *Spec) StoreCapacityLines() int { return s.StoreCapacity / s.LineSize }

// MaxThreads returns the total hardware thread count (cores × SMT).
func (s *Spec) MaxThreads() int { return s.Cores * s.SMT }

// CoreOf maps software thread tid (with nThreads total) to a physical core,
// scattering threads across cores first so that runs with up to Cores
// threads get dedicated cores — the paper's fairness condition for the
// 4-thread comparison (Section 5).
func (s *Spec) CoreOf(tid int) int { return tid % s.Cores }

// New returns the model of the requested processor, configured exactly as
// the paper's test machines (Section 5 hardware list and Table 1).
func New(k Kind) *Spec {
	switch k {
	case BlueGeneQ:
		return &Spec{
			Kind:  BlueGeneQ,
			Name:  "Blue Gene/Q (16-core A2, SMT4)",
			Freq:  "1.6 GHz",
			Cores: 16, SMT: 4,
			LineSize:          128,           // L2 line; worst-case granularity
			LoadCapacity:      20 << 20 / 16, // 1.25 MB per core of the 20 MB L2 budget
			StoreCapacity:     20 << 20 / 16,
			CombinedCapacity:  true,
			L1Desc:            "16 KB, 8-way",
			L2Desc:            "32 MB, 16-way (shared by 16 cores)",
			AbortReasonKinds:  0, // not exposed to software
			SpecIDs:           128,
			SoftwareRetryOnly: true,
			// High software overhead: register checkpointing, kernel
			// calls at begin/end, and L2-only loads in short mode.
			Costs: CostModel{
				Begin: 110, Commit: 90, Abort: 180, CAS: 30,
				TxLoad: 6, TxStore: 2, SpecIDHold: 3000,
			},
			BeginLong: 700, // L1 invalidation at transaction start
		}
	case ZEC12:
		return &Spec{
			Kind:  ZEC12,
			Name:  "zEC12 (16-core)",
			Freq:  "5.5 GHz",
			Cores: 16, SMT: 1,
			LineSize:            256,
			LoadCapacity:        1 << 20, // L1 + LRU-extension vector
			StoreCapacity:       8 << 10, // 8 KB gathering store cache
			L1Desc:              "96 KB, 6-way",
			L2Desc:              "1 MB, 8-way",
			AbortReasonKinds:    14,
			ReportsPersistence:  true,
			CacheFetchAbortProb: 0.0010,
			HasConstrainedTx:    true,
			Costs: CostModel{
				Begin: 12, Commit: 10, Abort: 90, CAS: 28,
				TxLoad: 0, TxStore: 0,
			},
		}
	case IntelCore:
		return &Spec{
			Kind:  IntelCore,
			Name:  "Intel Core i7-4770 (4-core, SMT2)",
			Freq:  "3.4 GHz",
			Cores: 4, SMT: 2,
			LineSize:           64,
			LoadCapacity:       4 << 20,  // measured in Section 2.3
			StoreCapacity:      22 << 10, // measured in Section 2.3
			StoreSets:          64,       // 32 KB / 64 B / 8 ways
			StoreWays:          8,
			L1Desc:             "32 KB, 8-way",
			L2Desc:             "256 KB",
			AbortReasonKinds:   6,
			ReportsPersistence: true,
			PrefetchProb:       0.5,
			HasHLE:             true,
			Costs: CostModel{
				Begin: 10, Commit: 8, Abort: 70, CAS: 24,
				TxLoad: 0, TxStore: 0,
			},
		}
	case POWER8:
		return &Spec{
			Kind:  POWER8,
			Name:  "POWER8 (6-core, SMT8, pre-release)",
			Freq:  "4.1 GHz",
			Cores: 6, SMT: 8,
			LineSize:           128,
			LoadCapacity:       8 << 10, // 64-entry L2 TMCAM × 128 B
			StoreCapacity:      8 << 10,
			CombinedCapacity:   true,
			L1Desc:             "64 KB",
			L2Desc:             "512 KB, 8-way",
			AbortReasonKinds:   11,
			ReportsPersistence: true,
			HasSuspendResume:   true,
			HasRollbackOnly:    true,
			Costs: CostModel{
				Begin: 14, Commit: 12, Abort: 90, CAS: 28,
				TxLoad: 0, TxStore: 0,
			},
		}
	}
	panic(fmt.Sprintf("platform: unknown kind %d", int(k)))
}

// All returns fresh models of all four platforms in the paper's order.
func All() []*Spec {
	return []*Spec{New(BlueGeneQ), New(ZEC12), New(IntelCore), New(POWER8)}
}

// Kinds returns the four platform kinds in the paper's order.
func Kinds() []Kind { return []Kind{BlueGeneQ, ZEC12, IntelCore, POWER8} }
