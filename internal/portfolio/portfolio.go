package portfolio

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"cliffguard/internal/designer"
	"cliffguard/internal/evalcache"
	"cliffguard/internal/fanout"
	"cliffguard/internal/obs"
	"cliffguard/internal/sample"
	"cliffguard/internal/workload"
)

// Portfolio races k member designers on the same workload and keeps the best
// design by worst-case cost — the RITA-style "race tuning strategies under a
// shared budget" idea, with a DBA-bandits-style safety rule: the kept design
// is never strictly worse than any member's on the scoring set.
//
// Members run concurrently under a bounded worker pool; each member is
// internally sequential, results land in a member-index-aligned slice, and
// every reduction walks that slice in index order, so the output design is
// bit-identical at any Parallelism. Scoring shares one evalcache across
// members keyed by design fingerprint: two members returning the same design
// are scored once (the single-pass worst-case discipline of the robust
// loop's incremental evaluator).
//
// The scoring set is {w} by default — worst case degenerates to the nominal
// cost, which is the right semantics when the portfolio runs inside the
// robust loop (the loop supplies its own Γ-neighborhood evaluation of the
// winner). Standalone callers can attach a Sampler and set Gamma/Samples to
// score members on a sampled Γ-neighborhood instead.
type Portfolio struct {
	// Members are the raced designers, in priority order: ties in worst-case
	// cost and fingerprint keep the earliest member.
	Members []designer.Designer
	// Cost is the what-if cost model used to score member designs.
	Cost designer.CostModel

	// Sampler, Gamma and Samples optionally widen the scoring set to a
	// sampled Γ-neighborhood of the input workload (plus the input itself).
	// With a nil Sampler or Gamma <= 0 the scoring set is {w}.
	Sampler *sample.Sampler
	Gamma   float64
	Samples int
	// Seed makes neighborhood sampling deterministic.
	Seed int64

	// Parallelism bounds the member-invocation and scoring worker pools
	// (0 or negative = runtime.NumCPU()). Results are bit-identical at any
	// value.
	Parallelism int
	// MemberTimeout bounds each member's Design call (0 = no bound). A
	// member exceeding it is skipped — counted, never fatal — while the
	// parent context's cancellation always aborts the whole portfolio.
	MemberTimeout time.Duration

	// Observer receives one obs.DesignerInvoked event per successful member,
	// emitted after the race in member-index order (deterministic). nil
	// disables emission.
	Observer obs.Observer
	// Metrics aggregates portfolio counters (runs, member errors/timeouts,
	// wins per member). nil disables metric updates.
	Metrics *obs.Metrics
}

// New returns a Portfolio over the given members with the default scoring
// set ({w}) and no member timeout.
func New(cost designer.CostModel, members ...designer.Designer) *Portfolio {
	return &Portfolio{Members: members, Cost: cost}
}

// Name implements designer.Designer.
func (p *Portfolio) Name() string { return "Portfolio" }

// errNoCostableWorkload marks a design whose every scoring workload had no
// costable query; such members are skipped like erroring ones.
var errNoCostableWorkload = errors.New("portfolio: no scoring workload is costable under the cost model")

// memberOut is one member's race outcome, index-aligned with Members.
type memberOut struct {
	d   *designer.Design
	err error
}

// Design implements designer.Designer: race the members, score each distinct
// returned design's worst case over the scoring set, keep the best.
func (p *Portfolio) Design(ctx context.Context, w *workload.Workload) (*designer.Design, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if w == nil || w.Len() == 0 {
		return nil, errors.New("portfolio: empty workload")
	}
	if len(p.Members) == 0 {
		return nil, errors.New("portfolio: no member designers")
	}
	if p.Metrics != nil {
		p.Metrics.PortfolioRuns.Inc()
	}

	scoring, err := p.scoringSet(w)
	if err != nil {
		return nil, err
	}

	outs := p.race(ctx, w)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Gather in member-index order: emit per-member DesignerInvoked events,
	// score each distinct fingerprint once, and keep the winner. The winner
	// is the minimum worst-case cost; ties break to the lexicographically
	// smaller fingerprint (fixed-width hex, i.e. the smaller uint64), then
	// to the earlier member.
	iter := obs.IterationFromContext(ctx)
	units := evalcache.New()
	scores := make(map[uint64]evalcache.Result)
	bestIdx := -1
	var bestCost float64
	var bestFP uint64
	var firstErr error
	for i, out := range outs {
		member := p.Members[i]
		if out.err != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if p.Metrics != nil {
				if errors.Is(out.err, context.DeadlineExceeded) {
					p.Metrics.PortfolioMemberTimeouts.Inc()
				} else {
					p.Metrics.PortfolioMemberErrors.Inc()
				}
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("member %s: %w", member.Name(), out.err)
			}
			continue
		}
		if p.Observer != nil {
			p.Observer.OnEvent(obs.DesignerInvoked{
				Iteration:  iter,
				Designer:   member.Name(),
				Queries:    w.Len(),
				Structures: out.d.Len(),
				SizeBytes:  out.d.SizeBytes(),
			})
		}
		fp := out.d.Fingerprint()
		sc, ok := scores[fp]
		if !ok {
			c, err := p.worstCase(ctx, scoring, out.d, units)
			sc = evalcache.Result{Cost: c, Err: err}
			scores[fp] = sc
		}
		if sc.Err != nil {
			if !errors.Is(sc.Err, errNoCostableWorkload) {
				return nil, sc.Err
			}
			if p.Metrics != nil {
				p.Metrics.PortfolioMemberErrors.Inc()
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("member %s: %w", member.Name(), sc.Err)
			}
			continue
		}
		if bestIdx < 0 || sc.Cost < bestCost || (sc.Cost == bestCost && fp < bestFP) {
			bestIdx, bestCost, bestFP = i, sc.Cost, fp
		}
	}
	if bestIdx < 0 {
		if firstErr == nil {
			firstErr = errors.New("no member produced a design")
		}
		return nil, fmt.Errorf("portfolio: every member failed: %w", firstErr)
	}
	if p.Metrics != nil {
		p.Metrics.PortfolioWins.Inc(p.Members[bestIdx].Name())
	}
	return outs[bestIdx].d, nil
}

// scoringSet builds the workloads member designs are scored against.
func (p *Portfolio) scoringSet(w *workload.Workload) ([]*workload.Workload, error) {
	if p.Sampler == nil || p.Gamma <= 0 {
		return []*workload.Workload{w}, nil
	}
	samples := p.Samples
	if samples <= 0 {
		samples = 20
	}
	rng := rand.New(rand.NewSource(p.Seed))
	neighborhood, err := p.Sampler.Neighborhood(rng, w, p.Gamma, samples)
	if err != nil {
		return nil, fmt.Errorf("portfolio: sampling Γ-neighborhood: %w", err)
	}
	return append(neighborhood, w), nil
}

// race invokes every member concurrently under the bounded pool. Each
// member's Design call runs in a single goroutine under its own
// timeout-bounded child context; outputs are member-index-aligned.
func (p *Portfolio) race(ctx context.Context, w *workload.Workload) []memberOut {
	outs := make([]memberOut, len(p.Members))
	fanout.Each(p.Parallelism, len(p.Members), func(i int) {
		mctx := ctx
		cancel := context.CancelFunc(func() {})
		if p.MemberTimeout > 0 {
			mctx, cancel = context.WithTimeout(ctx, p.MemberTimeout)
		}
		d, err := p.Members[i].Design(mctx, w)
		cancel()
		if err == nil && d == nil {
			err = errors.New("designer returned a nil design")
		}
		outs[i] = memberOut{d: d, err: err}
	})
	return outs
}

// worstCase scores one design through the robust loop's own kernel: f(W, D)
// per scoring workload (evalcache.WorkloadCost, unit costs memoized in the
// shared units cache) reduced by evalcache.Worst. If every workload is
// uncostable the design is unscorable (errNoCostableWorkload). Per-workload
// costs are computed in one goroutine each (fixed summation order) and
// reduced in index order, so the score is bit-identical at any parallelism.
func (p *Portfolio) worstCase(ctx context.Context, scoring []*workload.Workload, d *designer.Design, units *evalcache.Cache) (float64, error) {
	fp := d.Fingerprint()
	results := make([]evalcache.Result, len(scoring))
	fanout.Each(p.Parallelism, len(scoring), func(i int) {
		c, _, err := units.WorkloadCost(ctx, p.Cost, scoring[i], d, fp)
		results[i] = evalcache.Result{Cost: c, Err: err}
	})
	worst, err := evalcache.Worst(results)
	if errors.Is(err, evalcache.ErrUncostable) {
		return 0, errNoCostableWorkload
	}
	return worst, err
}
