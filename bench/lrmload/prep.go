package main

import (
	"fmt"

	"lrm/internal/core"
	"lrm/internal/mat"
	"lrm/internal/mechanism"
	"lrm/internal/plan"
	"lrm/internal/privacy"
	"lrm/internal/workload"
)

// coldAnalyticPlans is the number of cold W whose plans set the
// analytic error of cold-plan. The W are i.i.d., so a few suffice for
// the gate's [0.5, 2] band.
const coldAnalyticPlans = 8

// localPrep is an untimed in-process preparation of the workload the
// server prepares, made before any server starts.
type localPrep struct {
	// mse is the analytic per-entry error ExpectedSSE(ε)/m.
	mse float64
	// p answers like the server's preparation (warm and spec workloads).
	p mechanism.Prepared
	// almIters is the outer iteration count of the ALM decomposition
	// behind p, summed over Kronecker factors.
	almIters int
}

// prepareLocal prepares in.def's workload the way lrmserve does. For
// -mech lrm that is the LRM decomposition with default options, which is
// deterministic, so ExpectedSSE equals the server's exactly; tr records
// it as a core.decompose span. For cold-plan it plans the first
// coldAnalyticPlans W and averages their winners' ExpectedSSE.
func prepareLocal(in *inputs, tr *tracer) (*localPrep, error) {
	eps := privacy.Epsilon(benchEps)
	if err := eps.Validate(); err != nil {
		return nil, err
	}
	lp := &localPrep{}
	switch {
	case in.def.Cold:
		k := min(coldAnalyticPlans, len(in.reqs))
		for _, r := range in.reqs[:k] {
			pl, err := plan.New(r.w, plan.Options{})
			if err != nil {
				return nil, err
			}
			lp.mse += pl.Prepared().ExpectedSSE(eps) / float64(r.w.Queries()) / float64(k)
		}
		return lp, nil
	case in.spec != nil:
		factors, err := kronFactors(in.spec)
		if err != nil {
			return nil, err
		}
		sp := tr.start(0, 0, "core.decompose")
		kd, err := core.DecomposeKron(factors, core.Options{})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		for _, d := range kd.Factors {
			lp.almIters += d.OuterIterations
		}
		if lp.p, err = mechanism.PreparedFromKronDecomposition(kd); err != nil {
			return nil, err
		}
		lp.mse = lp.p.ExpectedSSE(eps) / float64(in.spec.Queries())
		return lp, nil
	default:
		w := in.reqs[0].w
		sp := tr.start(0, 0, "core.decompose")
		d, err := core.Decompose(w.W, core.Options{})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		lp.almIters = d.OuterIterations
		if lp.p, err = mechanism.PreparedFromDecomposition(d); err != nil {
			return nil, err
		}
		lp.mse = lp.p.ExpectedSSE(eps) / float64(w.Queries())
		return lp, nil
	}
}

// kronFactors materializes the factors of a Kronecker spec, as the
// LRM's spec preparation does.
func kronFactors(s workload.Spec) ([]*mat.Dense, error) {
	k, ok := s.(*workload.KronSpec)
	if !ok {
		return nil, fmt.Errorf("%s is not a Kronecker spec", s.Describe())
	}
	var out []*mat.Dense
	for _, f := range k.Factors() {
		fw, err := workload.MaterializeSpec(f, 1<<22)
		if err != nil {
			return nil, err
		}
		out = append(out, fw.W)
	}
	return out, nil
}
