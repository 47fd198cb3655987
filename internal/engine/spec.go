package engine

import (
	"errors"

	"lrm/internal/workload"
)

// Implicit serving (Request.Spec): a spec request takes the dense
// request's cache and load pipeline with W never materialized.
// Fingerprints come from Spec.Digest() (namespaced "spec-…", so the two
// key spaces can share a cache directory and never collide), and the
// disk artifact for an LRM winner is the factored decomposition (.lrmk:
// one small (Bᵢ,Lᵢ) pair per Kronecker factor) instead of a dense .lrmd.
// The pointer memo doesn't apply — it exists to cope with a matrix, and
// there isn't one.

// answerSpec serves one implicit request end to end.
//
//lrm:sink return — everything answerSpec returns leaves the privacy boundary
func (e *Engine) answerSpec(req Request) ([][]float64, error) {
	s := req.Spec
	if s.Queries() <= 0 || s.Domain() <= 0 {
		return nil, errors.New("engine: empty spec")
	}
	if err := validateHistograms(req, s.Domain()); err != nil {
		return nil, err
	}
	e.implicit.Add(1)
	if d, ok := s.(*workload.DenseSpec); ok {
		// The adapter IS the dense path: same fingerprint (the matrix
		// digest, no "spec-" namespace), so adapter and plain-Workload
		// requests share one cache entry.
		req.Workload, req.Spec = d.Dense(), nil
		return e.Answer(req)
	}
	e.requests.Add(1)

	fp := req.Fingerprint
	if fp == "" {
		fp = workload.SpecFingerprint(s)
	}
	p, err := e.prepared(fp, func() workload.Spec { return s })
	if err != nil {
		return nil, err
	}
	return e.release(p, req)
}
