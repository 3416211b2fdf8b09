package cliffguard

import (
	"cliffguard/internal/core"
	"cliffguard/internal/evalcache"
	"cliffguard/internal/online"
)

// The online API (internal/online): a sliding-window workload accumulator
// plus a drift-triggered re-design controller. The window absorbs a query
// stream into a count-bucketed ring; the controller measures
// delta(W_window, W_designed) with the run's own distance metric and — when
// the drift exceeds a configured fraction of Gamma — re-runs the robust loop
// warm: seeded with the incumbent design (Options.InitialDesign) and with the
// previous run's exported unit-cost generation imported (Options.WarmStart),
// so a re-design over an overlapping window repeats almost no cost-model
// calls while producing bit-identical designs to a cold run. A safety
// acceptance rule guarantees a published design never regresses the
// worst-case neighborhood cost vs the incumbent on the current window.
type (
	// OnlineWindow is the count-bucketed sliding workload accumulator.
	OnlineWindow = online.Window
	// OnlineWindowConfig sizes the window (ring buckets x bucket size).
	OnlineWindowConfig = online.WindowConfig
	// OnlineWindowStats summarizes a window's traffic.
	OnlineWindowStats = online.WindowStats
	// OnlineConfig assembles a drift-triggered re-design controller.
	OnlineConfig = online.Config
	// OnlineController owns one workload's online state: window, incumbent
	// design, warm-start generation handoff, drift and safety counters.
	OnlineController = online.Controller
	// OnlineDecision reports what one Observe call did (accepted? drift
	// checked? fired?).
	OnlineDecision = online.Decision
	// OnlineResult is the outcome of one online re-design: the candidate,
	// the safety rule's verdict, and the worst-case costs it compared.
	OnlineResult = online.Result
	// OnlineStatus is a point-in-time controller summary.
	OnlineStatus = online.Status

	// RunStats are one robust run's scalar outcomes (worst-case costs of
	// the initial competitors and the returned design) — what the safety
	// rule reads off a seeded run.
	RunStats = core.RunStats
	// EvalGeneration is the content-keyed unit-cost memo (evalcache.Shared):
	// what a WithEvalMemo cost model reads from and records into, and what
	// an OnlineController hands from one re-design to the next. Values are
	// the exact cost-model outputs, so warm runs are bit-identical to cold
	// ones. It never evicts. A nil *EvalGeneration is empty and drops
	// writes.
	EvalGeneration = evalcache.Shared
	// EvalGenerationKey identifies one memoized unit cost (cost-model class,
	// query content hash, design fingerprint). The class is the cost
	// model's Class() when it has one (the engines do), else 0.
	EvalGenerationKey = evalcache.SharedKey
	// EvalMemoCost is the cost model WithEvalMemo returns; its Hits and
	// Misses count calls answered from the warm memo and calls passed
	// through to the wrapped model.
	EvalMemoCost = evalcache.MemoCost
)

// ErrRedesignInProgress is returned by OnlineController.Redesign while a
// previous re-design is still running.
var ErrRedesignInProgress = online.ErrRedesignInProgress

// NewOnlineWindow returns an empty sliding window. met may be nil.
func NewOnlineWindow(cfg OnlineWindowConfig, met *Metrics) *OnlineWindow {
	return online.NewWindow(cfg, met)
}

// NewOnlineController validates the config and returns a controller with an
// empty window. Options.Gamma must be > 0.
func NewOnlineController(cfg OnlineConfig) (*OnlineController, error) {
	return online.New(cfg)
}

// NewEvalGeneration returns an empty content-keyed unit-cost memo, to pass
// to WithEvalMemo.
func NewEvalGeneration() *EvalGeneration { return evalcache.NewShared() }

// WithEvalMemo wraps cost so that calls are answered from warm where it has
// the (query content, design) pair, and every outcome — warm hit or fresh
// model call — is recorded into export. Hand a run's export to the next run
// as its warm memo to warm-start it:
//
//	gen := cliffguard.NewEvalGeneration()
//	cold, _ := cliffguard.New(nominal, cliffguard.WithEvalMemo(db, nil, gen), s, opts)
//	...
//	warm, _ := cliffguard.New(nominal, cliffguard.WithEvalMemo(db, gen, nil), s, opts)
//
// warm must have been filled through the same pure cost function. export is
// never read, so a run over WithEvalMemo(cost, nil, export) makes exactly
// the cost-model calls of a run over cost. Either memo may be nil.
func WithEvalMemo(cost CostModel, warm, export *EvalGeneration) *EvalMemoCost {
	return evalcache.Over(cost, warm, export)
}
