package experiments

import (
	"fmt"
	"time"

	"lrm/internal/core"
	"lrm/internal/mat"
	"lrm/internal/rng"
)

// Ablations measures the design choices DESIGN.md calls out, holding the
// workload fixed and varying one optimizer knob at a time. Each row
// reports the achieved objective (expected SSE at ε = 1, the quantity the
// decomposition minimizes) and the wall-clock cost.
func Ablations(cfg Config) ([]Row, error) {
	cfg = cfg.withDefaults()
	m, n := cfg.defaultM(), cfg.defaultN()
	s := sDefault(m, n)

	variants := ablationVariants(cfg.lrmOptions())
	results := make([][]Row, len(ablationKinds)*len(variants))
	var points []func() error
	for ki, kind := range ablationKinds {
		w, err := buildWorkload(kind, m, n, s, rng.New(cfg.Seed+int64(ki)*41))
		if err != nil {
			return nil, err
		}
		for vi, v := range variants {
			slot := ki*len(variants) + vi
			kind, v := kind, v
			points = append(points, func() error {
				start := time.Now()
				d, err := core.Decompose(w.W, v.opts)
				if err != nil {
					return fmt.Errorf("ablation %s on %s: %w", v.name, kind, err)
				}
				results[slot] = []Row{{
					Figure: "Ablation", Dataset: "-", Workload: kind,
					Mechanism: v.name, Param: "variant", Value: float64(vi),
					Epsilon: 1, AvgSqErr: d.ExpectedSSE(1),
					Seconds: time.Since(start).Seconds(),
				}}
				return nil
			})
		}
	}
	if err := runPoints(points); err != nil {
		return nil, err
	}
	return flatten(results), nil
}

// ablationKinds are the workload families every ablation variant runs on.
var ablationKinds = []string{"WRange", "WRelated"}

// ablationVariant is one row family of Ablations: a named optimizer
// configuration.
type ablationVariant struct {
	name string
	opts core.Options
}

// ablationVariants lists the optimizer configurations Ablations compares,
// each derived from base by changing one knob.
func ablationVariants(base core.Options) []ablationVariant {
	withBase := func(mod func(*core.Options)) core.Options {
		o := base
		mod(&o)
		return o
	}
	return []ablationVariant{
		{"nesterov", base},
		{"plain-pg", withBase(func(o *core.Options) { o.Solver = core.SolverProjectedGradient })},
		{"beta-adaptive", base},
		{"beta-fixed10", withBase(func(o *core.Options) { o.BetaDoubleEvery = 10 })},
		{"beta-frozen", withBase(func(o *core.Options) { o.BetaDoubleEvery = -1 })},
		{"restarts-1", base},
		{"restarts-4", withBase(func(o *core.Options) { o.Restarts = 4 })},
		{"init-exact-svd", base},
		{"init-randomized", withBase(func(o *core.Options) { o.RandomizedInit = true })},
	}
}

// AblationBaselineSSE returns the noise-on-data SSE for the ablation
// workloads so callers can contextualize the objective values.
func AblationBaselineSSE(cfg Config, kind string) (float64, error) {
	cfg = cfg.withDefaults()
	m, n := cfg.defaultM(), cfg.defaultN()
	ki := 0
	if kind == "WRelated" {
		ki = 1
	}
	w, err := buildWorkload(kind, m, n, sDefault(m, n), rng.New(cfg.Seed+int64(ki)*41))
	if err != nil {
		return 0, err
	}
	return 2 * mat.SquaredSum(w.W), nil
}
