package experiments

import (
	"fmt"

	"lrm/internal/mechanism"
	"lrm/internal/metrics"
	"lrm/internal/privacy"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

// Synopses is the extension table (not a paper figure): the data-synopsis
// mechanisms the paper cites as related/future work — FPA [24], CM [17],
// NF/SF [29] — next to LM, the consistency-projected NOR, and LRM, on the
// paper's datasets. Two workloads bracket the comparison: the identity
// (publish the histogram — the synopses' home turf, where LRM has no rank
// to exploit) and WRange at the default batch size (where LRM's
// query-side optimization applies).
func Synopses(cfg Config) ([]Row, error) {
	cfg = cfg.withDefaults()
	datasets, err := cfg.datasetsFor()
	if err != nil {
		return nil, err
	}
	eps := privacy.Epsilon(cfg.epsilonMain())
	n := cfg.defaultN() // power of two at every scale (CM needs that)
	m := cfg.defaultM()

	type point struct {
		wl    *workload.Workload
		mechs []mechanism.Mechanism
	}
	lrmOpts := cfg.lrmOptions()
	synopses := []mechanism.Mechanism{
		mechanism.LaplaceData{},
		mechanism.Fourier{K: n / 32},
		mechanism.Compressive{Measurements: n / 8, Sparsity: n / 32, Seed: cfg.Seed},
		mechanism.Histogram{Buckets: n / 16},
		mechanism.Histogram{Buckets: n / 16, StructureFirst: true},
	}
	points := []point{
		{workload.Identity(n), synopses},
		{workload.Range(m, n, rng.New(cfg.Seed+23)), append(append([]mechanism.Mechanism{},
			synopses...),
			mechanism.Consistent{Base: mechanism.LaplaceResults{}},
			mechanism.LRM{Options: lrmOpts},
		)},
	}

	results := make([][]Row, 0, len(datasets)*len(points))
	var closures []func() error
	for _, d := range datasets {
		if n > d.Len() {
			continue
		}
		merged := d.Merge(n)
		for _, pt := range points {
			slot := len(results)
			results = append(results, nil)
			d, pt := d, pt
			closures = append(closures, func() error {
				for _, mech := range pt.mechs {
					meas, err := metrics.Evaluate(mech, pt.wl, merged.Counts, eps, cfg.Trials, rng.New(cfg.Seed+29))
					if err != nil {
						return fmt.Errorf("synopses %s %s on %s: %w", d.Name, mech.Name(), pt.wl.Name, err)
					}
					results[slot] = append(results[slot], Row{
						Figure: "Synopses", Dataset: d.Name, Workload: pt.wl.Name,
						Mechanism: mech.Name(), Param: "n", Value: float64(n),
						Epsilon: float64(eps), AvgSqErr: meas.AvgSquaredError,
						Seconds: meas.PrepareSeconds,
					})
				}
				return nil
			})
		}
	}
	if err := runPoints(closures); err != nil {
		return nil, err
	}
	return flatten(results), nil
}
