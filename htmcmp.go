// Package htmcmp is a Go reproduction of Nakaike, Odaira, Gaudet, Michael
// and Tomari, "Quantitative Comparison of Hardware Transactional Memory for
// Blue Gene/Q, zEnterprise EC12, Intel Core, and POWER8" (ISCA 2015).
//
// Go has no HTM intrinsics and the four machines are museum pieces, so the
// hardware is substituted by a behavioural simulator (see DESIGN.md): a
// virtual-time HTM engine that executes real transactions against a
// simulated memory with per-platform conflict detection, store buffering,
// capacity accounting and abort semantics, plus Go ports of all eight STAMP
// benchmarks and the paper's processor-specific feature experiments.
//
// This package is the public facade: it re-exports the stable API of the
// internal packages so downstream users can build and run transactional
// workloads on the four platform models without importing internals.
//
// # Quick start
//
//	eng := htmcmp.NewEngine(htmcmp.ZEC12, htmcmp.EngineConfig{Threads: 4})
//	t0 := eng.Thread(0)
//	counter := t0.Alloc(64)
//	lock := htmcmp.NewGlobalLock(eng)
//	x := htmcmp.NewExecutor(t0, lock, htmcmp.DefaultPolicy(htmcmp.ZEC12))
//	x.Run(func(t *htmcmp.Thread) {
//	    t.Store64(counter, t.Load64(counter)+1)
//	})
//
// See examples/ for runnable programs and cmd/htmbench for the experiment
// driver that regenerates every table and figure of the paper.
package htmcmp

import (
	"htmcmp/internal/adapt"
	"htmcmp/internal/harness"
	"htmcmp/internal/htm"
	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
	"htmcmp/internal/tm"
	"htmcmp/internal/trace"
)

// Platform model types and the four processors of the study.
type (
	// PlatformKind identifies one of the four modelled processors.
	PlatformKind = platform.Kind
	// PlatformSpec is a processor's HTM model (Table 1 parameters plus
	// behavioural quirks).
	PlatformSpec = platform.Spec
	// BGQMode selects Blue Gene/Q's running mode.
	BGQMode = platform.BGQMode
)

// The four platforms, in the paper's order.
const (
	BlueGeneQ = platform.BlueGeneQ
	ZEC12     = platform.ZEC12
	IntelCore = platform.IntelCore
	POWER8    = platform.POWER8
)

// Blue Gene/Q running modes (Section 2.1).
const (
	ShortRunning = platform.ShortRunning
	LongRunning  = platform.LongRunning
)

// NewPlatform returns the model of the requested processor.
func NewPlatform(k PlatformKind) *PlatformSpec { return platform.New(k) }

// AllPlatforms returns all four platform models in the paper's order.
func AllPlatforms() []*PlatformSpec { return platform.All() }

// Engine types: the HTM simulator itself.
type (
	// Engine is one platform's HTM over one simulated memory.
	Engine = htm.Engine
	// EngineConfig configures an Engine (thread count, yield quantum,
	// ablation switches).
	EngineConfig = htm.Config
	// Thread is one hardware-thread context; all memory accesses go
	// through it.
	Thread = htm.Thread
	// TxKind selects normal, rollback-only or constrained transactions.
	TxKind = htm.TxKind
	// Abort describes one transaction abort (reason + persistence).
	Abort = htm.Abort
	// AbortReason is the engine-level abort reason.
	AbortReason = htm.Reason
	// EngineStats are the engine-level transaction counters.
	EngineStats = htm.Stats
	// Barrier is the scheduler-aware cyclic barrier.
	Barrier = htm.Barrier
)

// Transaction kinds.
const (
	TxNormal       = htm.TxNormal
	TxRollbackOnly = htm.TxRollbackOnly
	TxConstrained  = htm.TxConstrained
)

// NewEngine creates an HTM engine for the given platform. Every engine runs
// in deterministic virtual time: run its threads together with Engine.Run,
// or one at a time from a single goroutine.
func NewEngine(k PlatformKind, cfg EngineConfig) *Engine {
	return htm.New(platform.New(k), cfg)
}

// Runtime types: the software TM layer of the paper's Section 3.
type (
	// GlobalLock is the single-global-lock fallback.
	GlobalLock = tm.GlobalLock
	// Policy holds the three-counter retry limits of Figure 1.
	Policy = tm.Policy
	// Executor runs critical sections with the retry mechanism.
	Executor = tm.Executor
	// RuntimeStats are the software-runtime counters (serialization ratio,
	// Figure 3 abort categories).
	RuntimeStats = tm.Stats
)

// NewGlobalLock allocates the global fallback lock in the engine's memory.
func NewGlobalLock(e *Engine) *GlobalLock { return tm.NewGlobalLock(e) }

// NewExecutor pairs a thread with the global lock and a retry policy.
func NewExecutor(t *Thread, lock *GlobalLock, pol Policy) *Executor {
	return tm.NewExecutor(t, lock, pol)
}

// DefaultPolicy returns an untuned retry policy for a platform.
func DefaultPolicy(k PlatformKind) Policy { return tm.DefaultPolicy(k) }

// Adaptive-runtime types: the online mode controller (HTM / NOrec STM /
// global lock per transaction site) described in DESIGN.md §6.
type (
	// AdaptController selects execution modes from windowed abort history.
	// One controller is shared by all executors of a run.
	AdaptController = adapt.Controller
	// AdaptConfig tunes the controller's windows and thresholds; the zero
	// value selects sane defaults.
	AdaptConfig = adapt.Config
	// ExecutorConfig bundles a static retry policy with an optional
	// adaptive controller for NewExecutorConfig.
	ExecutorConfig = tm.Config
)

// NewAdaptController builds an online mode controller.
func NewAdaptController(cfg AdaptConfig) *AdaptController { return adapt.NewController(cfg) }

// NewExecutorConfig is NewExecutor with an explicit config; attaching an
// AdaptController routes Run through the adaptive hybrid path (virtual-time
// engines only).
func NewExecutorConfig(t *Thread, lock *GlobalLock, cfg ExecutorConfig) *Executor {
	return tm.NewExecutorConfig(t, lock, cfg)
}

// STAMP benchmark types.
type (
	// StampBenchmark is one STAMP program instance.
	StampBenchmark = stamp.Benchmark
	// StampConfig parameterises a benchmark (scale, variant, seed).
	StampConfig = stamp.Config
	// StampScale selects the input size.
	StampScale = stamp.Scale
	// StampVariant selects original vs paper-modified code shape.
	StampVariant = stamp.Variant
	// Runner executes atomic sections for a benchmark worker.
	Runner = stamp.Runner
	// SeqRunner is the sequential (non-HTM) baseline runner.
	SeqRunner = stamp.SeqRunner
	// TMRunner runs sections through the transactional runtime.
	TMRunner = stamp.TMRunner
	// HLERunner runs sections through hardware lock elision.
	HLERunner = stamp.HLERunner
)

// STAMP scales and variants.
const (
	ScaleTest = stamp.ScaleTest
	ScaleSim  = stamp.ScaleSim
	ScaleFull = stamp.ScaleFull

	Modified = stamp.Modified
	Original = stamp.Original
)

// NewStamp creates STAMP benchmark name ("genome", "kmeans-high", …).
func NewStamp(name string, cfg StampConfig) (StampBenchmark, error) {
	return stamp.New(name, cfg)
}

// StampNames returns the registered benchmarks in the paper's figure order.
func StampNames() []string { return stamp.Names() }

// Experiment harness types.
type (
	// ExperimentOptions configure a figure reproduction.
	ExperimentOptions = harness.Options
	// RunSpec describes one measured configuration.
	RunSpec = harness.RunSpec
	// RunResult is the outcome of a measured RunSpec.
	RunResult = harness.Result
	// ResultTable is a rendered experiment table.
	ResultTable = harness.Table
	// FootprintTrace is one Figure 10/11 sample.
	FootprintTrace = trace.Footprint
	// FootprintOptions configure a footprint trace collection.
	FootprintOptions = trace.Options
)

// Measure runs one benchmark/platform configuration and reports speed-up and
// abort statistics.
func Measure(spec RunSpec) (RunResult, error) { return harness.Run(spec) }

// Table1 renders the paper's Table 1 from the platform models.
func Table1() ResultTable { return harness.Table1() }

// Fig2And3 reproduces Figures 2 and 3.
func Fig2And3(opts ExperimentOptions) (fig2, fig3 ResultTable, err error) {
	return harness.Fig2And3(opts)
}

// Fig4 reproduces Figure 4 (original vs modified STAMP).
func Fig4(opts ExperimentOptions) (ResultTable, error) { return harness.Fig4(opts) }

// Fig5 reproduces Figure 5 (thread scaling).
func Fig5(opts ExperimentOptions) (ResultTable, error) { return harness.Fig5(opts) }

// Fig7 reproduces Figure 7 (RTM vs HLE).
func Fig7(opts ExperimentOptions) (ResultTable, error) { return harness.Fig7(opts) }

// CollectFootprint gathers one benchmark/platform transaction-size
// distribution (Figures 10/11).
func CollectFootprint(bench string, k PlatformKind, opts FootprintOptions) (FootprintTrace, error) {
	return trace.Collect(bench, k, opts)
}
