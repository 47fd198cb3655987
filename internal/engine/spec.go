package engine

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"

	"lrm/internal/core"
	"lrm/internal/mat"
	"lrm/internal/mechanism"
	"lrm/internal/plan"
	"lrm/internal/workload"
)

// Implicit serving (Request.Spec): the spec path is the dense path with
// every matrix-shaped step replaced by its structural twin. Fingerprints
// come from Spec.Digest() (namespaced "spec-…", so the two key spaces
// can share a cache directory and never collide), preparation goes
// through mechanism.PrepareSpec / plan.NewSpec, and the disk artifact
// for an LRM winner is the factored decomposition (.lrmk: one small
// (Bᵢ,Lᵢ) pair per Kronecker factor) instead of a dense .lrmd. The
// pointer memo doesn't apply — it exists to cope with a matrix, and
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
	p, err := e.preparedWith(fp, func() (mechanism.Prepared, *plan.Plan, error) {
		return e.loadSpec(fp, s)
	})
	if err != nil {
		return nil, err
	}
	return e.release(p, req)
}

// loadSpec produces the Prepared (and Plan, on a plan-aware engine) for
// one spec fingerprint: disk restore first, then a fresh preparation,
// persisted back for the next process.
func (e *Engine) loadSpec(fp string, s workload.Spec) (mechanism.Prepared, *plan.Plan, error) {
	if e.planner != nil {
		return e.loadPlannedSpec(fp, s)
	}
	path := e.specDiskPath(fp)
	if path != "" {
		if p, err := e.loadPreparedKron(path, s, e.gamma); err == nil {
			e.diskHits.Add(1)
			return p, nil, nil
		}
		// A missing, corrupt, or mismatched cache file must never take
		// down serving: fall through to a fresh preparation.
	}
	e.prepares.Add(1)
	if e.hook != nil {
		e.hook(fp)
	}
	p, err := mechanism.PrepareSpec(e.mech, s, nil)
	if err != nil {
		return nil, nil, err
	}
	if path != "" {
		if d, ok := kronDecompositionOf(p); ok {
			if err := e.writeEncoded(path, ".lrmk-*", d); err == nil {
				e.diskWrites.Add(1)
			}
		}
	}
	return p, nil, nil
}

// loadPlannedSpec mirrors loadPlanned for specs: restore the plan
// document and the winner's preparation with zero Prepares, or run
// plan.NewSpec and persist both.
func (e *Engine) loadPlannedSpec(fp string, s workload.Spec) (mechanism.Prepared, *plan.Plan, error) {
	if path := e.planPath(fp); path != "" {
		if p, pl, err := e.restorePlannedSpec(path, fp, s); err == nil {
			e.diskHits.Add(1)
			return p, pl, nil
		}
	}
	opts := *e.planner
	opts.Fingerprint = fp
	e.prepares.Add(1)
	if e.hook != nil {
		e.hook(fp)
	}
	pl, err := plan.NewSpec(s, opts)
	if err != nil {
		return nil, nil, err
	}
	e.planned.Add(1)
	p := pl.Prepared()
	if path := e.planPath(fp); path != "" {
		if err := e.writePlan(path, pl); err == nil {
			if d, ok := kronDecompositionOf(p); ok {
				// Best-effort like every disk write: a failed .lrmk write
				// leaves a valid plan document whose restore path misses on
				// the decomposition and re-plans.
				_ = e.writeEncoded(e.plannedSpecDiskPath(fp, pl.Digest()), ".lrmk-*", d)
			}
			e.diskWrites.Add(1)
		}
	}
	return p, pl, nil
}

// restorePlannedSpec rebuilds a served spec from its persisted plan. A
// baseline winner re-runs only its free PrepareSpec (no ALM, no
// Prepares counter); an lrm winner restores and validates its factored
// decomposition. Zero prepares either way — the acceptance contract of
// the disk cache.
func (e *Engine) restorePlannedSpec(path, fp string, s workload.Spec) (mechanism.Prepared, *plan.Plan, error) {
	f, err := e.fs.Open(path)
	if err != nil {
		return nil, nil, err
	}
	pl, err := plan.Decode(f)
	f.Close()
	if err != nil {
		return nil, nil, err
	}
	if pl.Fingerprint != fp {
		return nil, nil, fmt.Errorf("engine: plan document is for workload %s, not %s", pl.Fingerprint, fp)
	}
	if pl.SpecDesc != s.Describe() {
		// The fingerprint already binds the digest, but the descriptor is
		// the human-auditable form; a mismatch means a tampered document.
		return nil, nil, fmt.Errorf("engine: plan document describes %q, request is %q", pl.SpecDesc, s.Describe())
	}
	if pl.Mechanism == "lrm" {
		p, err := e.loadPreparedKron(e.plannedSpecDiskPath(fp, pl.Digest()), s, pl.LRMOptions.Gamma)
		if err != nil {
			return nil, nil, err
		}
		return p, pl, nil
	}
	m, err := mechanism.ByName(pl.Mechanism, e.planner.Config)
	if err != nil {
		return nil, nil, err
	}
	p, err := mechanism.PrepareSpec(m, s, pl.Stats)
	if err != nil {
		return nil, nil, err
	}
	return p, pl, nil
}

// specDiskPath is the factored-decomposition file for a fixed-mechanism
// engine; "" when disk caching is off. Spec fingerprints are namespaced
// ("spec-…"), so these names can never collide with dense .lrmd keys
// even before the extension differs.
func (e *Engine) specDiskPath(fp string) string {
	if e.dir == "" {
		return ""
	}
	return filepath.Join(e.dir, fp+"-"+e.optTag+".lrmk")
}

// plannedSpecDiskPath is the factored decomposition for a planned lrm
// winner, keyed like plannedDiskPath (fingerprint + planner-options
// digest + plan digest).
func (e *Engine) plannedSpecDiskPath(fp, digest string) string {
	return filepath.Join(e.dir, fp+"-"+e.optTag+"-"+digest+".lrmk")
}

// kronDecomposer is implemented by Prepared instances backed by a
// factored decomposition (the spec-path LRM).
type kronDecomposer interface {
	KronDecomposition() *core.KronDecomposition
}

func kronDecompositionOf(p mechanism.Prepared) (*core.KronDecomposition, bool) {
	d, ok := p.(kronDecomposer)
	if !ok {
		return nil, false
	}
	return d.KronDecomposition(), true
}

// loadPreparedKron restores a persisted factored decomposition and
// checks it actually factors this spec: the spec must be a Kronecker
// product with the same factor count, and each factor's (Bᵢ,Lᵢ) must
// reproduce the materialized factor matrix within its stored residual —
// the per-factor mirror of loadPrepared's dense integrity check. The
// factors are small — the same mechanism.LRMFactorCellCap the LRM
// decomposes under — so the check costs factor-sized GEMMs, never an
// m×n product.
func (e *Engine) loadPreparedKron(path string, s workload.Spec, gamma float64) (mechanism.Prepared, error) {
	k, ok := s.(*workload.KronSpec)
	if !ok {
		return nil, fmt.Errorf("engine: %s has no factored decomposition to restore", s.Describe())
	}
	f, err := e.fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := core.ReadKronDecomposition(f)
	if err != nil {
		return nil, err
	}
	specs := k.Factors()
	if len(d.Factors) != len(specs) {
		return nil, fmt.Errorf("engine: cached decomposition has %d factors, spec has %d", len(d.Factors), len(specs))
	}
	for i, fd := range d.Factors {
		fs := specs[i]
		fw, err := workload.MaterializeSpec(fs, mechanism.LRMFactorCellCap)
		if err != nil {
			return nil, fmt.Errorf("engine: kron factor %d: %w", i+1, err)
		}
		if fd.B.Rows() != fw.Queries() || fd.L.Cols() != fw.Domain() {
			return nil, fmt.Errorf("engine: cached factor %d is %d×%d for a %d×%d factor",
				i+1, fd.B.Rows(), fd.L.Cols(), fw.Queries(), fw.Domain())
		}
		normW := math.Sqrt(mat.SquaredSum(fw.W))
		maxResidual := 0.5 * normW
		if gamma > maxResidual {
			maxResidual = gamma
		}
		frob := math.Sqrt(mat.SquaredSum(mat.Sub(fw.W, mat.Mul(fd.B, fd.L))))
		if frob > fd.Residual+1e-6*normW || fd.Residual > maxResidual*(1+1e-9) {
			return nil, fmt.Errorf("engine: cached factor %d does not factor %s (‖W−BL‖=%.3g, stored %.3g, ‖W‖=%.3g)",
				i+1, fs.Describe(), frob, fd.Residual, normW)
		}
	}
	return mechanism.PreparedFromKronDecomposition(d)
}
