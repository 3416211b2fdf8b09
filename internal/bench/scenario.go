// Package bench is the experiment harness: it reconstructs every table and
// figure of the paper's evaluation (Section 6 and Appendix A) on top of the
// engine simulators, the workload generators, and the designers. Each
// experiment has a driver here, a testing.B benchmark in the repository
// root's bench_test.go, and a row/series printer whose output mirrors the
// paper's presentation.
package bench

import (
	"context"
	"fmt"

	"cliffguard/internal/baselines"
	"cliffguard/internal/core"
	"cliffguard/internal/designer"
	"cliffguard/internal/distance"
	"cliffguard/internal/obs"
	"cliffguard/internal/rowsim"
	"cliffguard/internal/sample"
	"cliffguard/internal/schema"
	"cliffguard/internal/vertsim"
	"cliffguard/internal/wlgen"
	"cliffguard/internal/workload"
)

// Scenario binds a workload to an engine, its nominal designer, and the
// experiment parameters of Section 6.1 (n=20 samples, 5 iterations, a fixed
// storage budget per engine).
type Scenario struct {
	Name   string
	Engine string // "vertica" or "dbmsx"
	Schema *schema.Schema
	Set    *wlgen.Set

	Cost     designer.CostModel
	Baseline distance.BaselineCost
	Nominal  designer.Designer
	Provider baselines.CandidateProvider

	Budget     int64
	Gamma      float64
	Samples    int
	Iterations int
	Seed       int64

	Metric  distance.Metric
	Sampler *sample.Sampler

	// Parallelism is CliffGuard's neighborhood-evaluation worker count
	// (0 = runtime.NumCPU()); see core.Options.Parallelism.
	Parallelism int

	// Observer and Metrics instrument every CliffGuard instance the scenario
	// builds (see internal/obs); either may be nil. Use Instrument to also
	// wire the engine's cost model and the sampler into the registry.
	Observer obs.Observer
	Metrics  *obs.Metrics

	// MinSpeedup is the designable-query filter: only queries for which some
	// ideal design improves on the base access path by at least this factor
	// are evaluated (Section 6.4 keeps queries with >= 3x headroom).
	MinSpeedup float64

	designableCache map[string]bool // template key -> designable
}

// Experiment defaults from Section 6.1.
const (
	defaultSamples    = 40
	defaultIterations = 12
	defaultMinSpeedup = 3.0

	// VerticaBudget mirrors the paper's 50 GB budget for a 151 GB dataset
	// (roughly a third of the data), scaled to the simulator's modeled data.
	VerticaBudget = int64(2560) << 20 // 2.5 GB
	// DBMSXBudget mirrors the paper's 10 GB budget on the 20 GB dataset.
	DBMSXBudget = int64(384) << 20 // 384 MB
	// DBMSXRowFraction scales modeled row counts to DBMS-X's smaller
	// dataset (20 GB vs 151 GB).
	DBMSXRowFraction = 0.15
)

// Vertica builds a columnar-engine scenario over a generated workload set.
func Vertica(set *wlgen.Set, gamma float64, seed int64) *Scenario {
	s := set.Config.Schema
	db := vertsim.Open(s)
	nominal := vertsim.NewDesigner(db, VerticaBudget)
	metric := distance.NewEuclidean(s.NumColumns())
	sc := &Scenario{
		Name:       set.Config.Name + "/Vertica",
		Engine:     "vertica",
		Schema:     s,
		Set:        set,
		Cost:       db,
		Baseline:   db.BaselineCost,
		Nominal:    nominal,
		Provider:   nominal,
		Budget:     VerticaBudget,
		Gamma:      gamma,
		Samples:    defaultSamples,
		Iterations: defaultIterations,
		Seed:       seed,
		Metric:     metric,
		Sampler:    sample.New(metric, sample.NewMutator(s)),
		MinSpeedup: defaultMinSpeedup,
	}
	return sc
}

// DBMSX builds a row-store-engine scenario over a generated workload set.
func DBMSX(set *wlgen.Set, gamma float64, seed int64) *Scenario {
	s := set.Config.Schema
	db := rowsim.Open(s)
	db.RowFraction = DBMSXRowFraction
	nominal := rowsim.NewDesigner(db, DBMSXBudget)
	metric := distance.NewEuclidean(s.NumColumns())
	sc := &Scenario{
		Name:       set.Config.Name + "/DBMS-X",
		Engine:     "dbmsx",
		Schema:     s,
		Set:        set,
		Cost:       db,
		Baseline:   db.BaselineCost,
		Nominal:    nominal,
		Provider:   nominal,
		Budget:     DBMSXBudget,
		Gamma:      gamma,
		Samples:    defaultSamples,
		Iterations: defaultIterations,
		Seed:       seed,
		Metric:     metric,
		Sampler:    sample.New(metric, sample.NewMutator(s)),
		MinSpeedup: defaultMinSpeedup,
	}
	return sc
}

// CliffGuard builds the scenario's CliffGuard instance, optionally
// overriding options (used by the sweep experiments).
func (sc *Scenario) CliffGuard(override func(*core.Options)) *core.CliffGuard {
	opts := core.Options{
		Gamma:       sc.Gamma,
		Samples:     sc.Samples,
		Iterations:  sc.Iterations,
		Seed:        sc.Seed,
		Parallelism: sc.Parallelism,
		Observer:    sc.Observer,
		Metrics:     sc.Metrics,
	}
	if override != nil {
		override(&opts)
	}
	return core.New(sc.Nominal, sc.Cost, sc.Sampler, opts)
}

// Instrument attaches a metrics registry to everything the scenario owns:
// the CliffGuard loop (through CliffGuard's options), the sampler, and the
// engine's cost-model call counter.
func (sc *Scenario) Instrument(m *obs.Metrics) {
	sc.Metrics = m
	sc.Sampler.Metrics = m
	switch db := sc.Cost.(type) {
	case *vertsim.DB:
		db.Instrument(m)
	case *rowsim.DB:
		db.Instrument(m)
	}
}

// DesignerByName instantiates one of the paper's six designers.
func (sc *Scenario) DesignerByName(name string) (designer.Designer, error) {
	switch name {
	case "NoDesign":
		return baselines.NoDesign{}, nil
	case "FutureKnowing":
		return &baselines.FutureKnowing{Inner: sc.Nominal}, nil
	case "Existing":
		return sc.Nominal, nil
	case "MajorityVote":
		return &baselines.MajorityVote{
			Nominal: sc.Nominal, Sampler: sc.Sampler,
			Budget: sc.Budget, Gamma: sc.Gamma, Samples: sc.Samples, Seed: sc.Seed,
		}, nil
	case "OptimalLocalSearch":
		return &baselines.OptimalLocalSearch{
			Nominal: sc.Nominal, Cost: sc.Cost, Sampler: sc.Sampler,
			Budget: sc.Budget, Gamma: sc.Gamma, Samples: sc.Samples, Seed: sc.Seed,
		}, nil
	case "GreedyLocalSearch":
		return &baselines.GreedyLocalSearch{
			Nominal: sc.Nominal, Cost: sc.Cost, Sampler: sc.Sampler,
			Budget: sc.Budget, Gamma: sc.Gamma, Samples: sc.Samples, Seed: sc.Seed,
		}, nil
	case "CliffGuard":
		return sc.CliffGuard(nil), nil
	default:
		return nil, fmt.Errorf("bench: unknown designer %q", name)
	}
}

// AllDesigners is the paper's comparison order (Figures 7, 10, 15).
var AllDesigners = []string{
	"NoDesign", "FutureKnowing", "Existing",
	"MajorityVote", "OptimalLocalSearch", "CliffGuard",
}

// Windows returns the scenario's non-empty monthly windows.
func (sc *Scenario) Windows() []*workload.Workload {
	var out []*workload.Workload
	for _, w := range sc.Set.Months {
		if w.Len() > 0 {
			out = append(out, w)
		}
	}
	return out
}

// Designable reports whether a query passes the ideal-speedup filter: some
// single-query tailored design improves its latency by >= MinSpeedup.
// Results are cached per template.
func (sc *Scenario) Designable(q *workload.Query) bool {
	key := q.TemplateKey(workload.MaskSWGO)
	if sc.designableCache == nil {
		sc.designableCache = make(map[string]bool)
	}
	if v, ok := sc.designableCache[key]; ok {
		return v
	}
	ok := designer.Designable(context.Background(), sc.Cost, sc.Provider, q, sc.MinSpeedup)
	sc.designableCache[key] = ok
	return ok
}

// DesignableQueries filters a window to its designable queries.
func (sc *Scenario) DesignableQueries(w *workload.Workload) *workload.Workload {
	out := &workload.Workload{}
	for _, it := range w.Items {
		if sc.Designable(it.Q) {
			out.Add(it.Q, it.Weight)
		}
	}
	return out
}
