package plan

import (
	"fmt"
	"math"

	"lrm/internal/mechanism"
	"lrm/internal/workload"
)

// NewSpec is the implicit-workload sibling of New: plan a workload.Spec
// without the matrix W ever existing. The analysis comes from
// workload.AnalyzeSpec (closed forms and factor recursion instead of an
// SVD), candidates are scored through their SpecPreparer closed forms,
// and the winner's Prepared is retained exactly as in New. Differences
// forced by the matrix's absence:
//
//   - Dense adapters (workload.AsSpec) route straight to New — the
//     adapter path, with identical plans and digests.
//   - No Monte-Carlo probe: a candidate with neither a closed form nor
//     a spec path is skipped with a reason, never silently scored.
//   - Options.LRM.Rank applies per Kronecker factor (zero keeps each
//     factor's ⌈1.2·rank⌉ default); the planner does not tune it against
//     the product rank, which would be meaningless for a factored
//     strategy.
//
// The plan records the spec's Describe() form in SpecDesc, and its
// Fingerprint is workload.SpecFingerprint (digest-keyed, namespaced
// apart from dense matrix fingerprints).
func NewSpec(s workload.Spec, opts Options) (*Plan, error) {
	if s == nil {
		return nil, fmt.Errorf("plan: nil spec")
	}
	if d, ok := s.(*workload.DenseSpec); ok {
		return New(d.Dense(), opts)
	}
	eps := opts.Eps
	if eps == 0 {
		eps = 1
	}
	if err := eps.Validate(); err != nil {
		return nil, fmt.Errorf("plan: scoring epsilon: %w", err)
	}
	names := opts.Mechanisms
	if names == nil {
		names = DefaultCandidates()
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("plan: empty candidate set")
	}
	for _, name := range names {
		if _, err := mechanism.ByName(name, opts.Config); err != nil {
			return nil, fmt.Errorf("plan: %w", err)
		}
	}
	stats, err := workload.AnalyzeSpec(s)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	fp := opts.Fingerprint
	if fp == "" {
		fp = workload.SpecFingerprint(s)
	}

	p := &Plan{
		Fingerprint: fp,
		Eps:         eps,
		SpecDesc:    s.Describe(),
		LRMOptions:  opts.LRM,
		Stats:       stats,
	}

	bestSSE := math.Inf(1)
	var bestPrepared mechanism.Prepared
	for _, name := range names {
		c := Candidate{Name: name, SSE: math.NaN()}
		if name == "lrm" && !stats.LowRank() {
			// The same Section 4 regime rule as the dense planner, decided
			// from the structural rank (factor ranks multiply) instead of a
			// factorization.
			c.Source = SourceSkipped
			c.Reason = fmt.Sprintf("full-rank regime: rank %d ≥ 0.8·min(m,n) = %.4g, LRM cannot beat the baselines (Section 4)",
				stats.Rank, 0.8*math.Min(float64(stats.Queries), float64(stats.Domain)))
			p.Candidates = append(p.Candidates, c)
			continue
		}
		mech, err := candidateMechanism(name, opts, p.LRMOptions)
		if err != nil {
			return nil, fmt.Errorf("plan: %w", err)
		}
		prepared, err := mechanism.PrepareSpec(mech, s, stats)
		if err != nil {
			c.Source = SourceSkipped
			c.Reason = fmt.Sprintf("prepare failed: %v", err)
			p.Candidates = append(p.Candidates, c)
			continue
		}
		c.SSE = prepared.ExpectedSSE(eps)
		c.Source = SourceAnalytic
		if math.IsNaN(c.SSE) {
			// The dense planner would fall back to a Monte-Carlo probe
			// here, but a probe needs full releases of a synthetic
			// histogram scored against exact answers — affordable when W
			// fits in memory, not as a default at implicit scale.
			c.SSE = math.NaN()
			c.Source = SourceSkipped
			c.Reason = "no analytic error form; implicit plans score closed forms only"
			p.Candidates = append(p.Candidates, c)
			continue
		}
		if c.SSE < bestSSE {
			bestSSE = c.SSE
			bestPrepared = prepared
			p.Mechanism = name
		}
		p.Candidates = append(p.Candidates, c)
	}
	if bestPrepared == nil {
		return nil, fmt.Errorf("plan: no scorable candidate among %v for spec %s (all skipped: %s)",
			names, s.Describe(), skipReasons(p.Candidates))
	}
	p.SSE = bestSSE
	p.prepared = bestPrepared
	return p, nil
}

// AutoPrepareSpec plans the spec and returns the winning mechanism's
// Prepared alongside the plan that chose it — the implicit twin of
// AutoPrepare. No m×n allocation happens anywhere in the call.
func AutoPrepareSpec(s workload.Spec, opts Options) (mechanism.Prepared, *Plan, error) {
	p, err := NewSpec(s, opts)
	if err != nil {
		return nil, nil, err
	}
	return p.prepared, p, nil
}
