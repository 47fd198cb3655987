package engine

import (
	"fmt"
	"path/filepath"

	"lrm/internal/mechanism"
	"lrm/internal/plan"
	"lrm/internal/workload"
)

// Plan-aware serving (Options.Planner): instead of one process-wide
// mechanism, each workload is analyzed once and an executable plan —
// which mechanism, which tuned parameters, why — is computed, cached,
// and persisted through the same machinery as the preparations
// themselves.
//
// Cache keying. In memory a planned entry keys by the workload
// fingerprint: the planner options are fixed for the engine's lifetime
// and planning is deterministic, so the fingerprint determines the plan.
// On disk the key is richer — <fp>-<plannerTag>.plan.json for the
// decision and <fp>-<plannerTag>-<planDigest>.lrmd for an lrm winner's
// decomposition — so artifacts from a differently configured planner, or
// from a plan whose decision has changed, are orphaned rather than
// served (the plan document is additionally self-checking: its stored
// digest must match the digest recomputed from its fields).
//
// Restart economics. A restored plan document skips the analysis and the
// candidate scoring entirely; an lrm winner then restores its
// decomposition (validated against W like any disk hit) instead of
// re-running the ALM, and a baseline winner re-runs only its trivial
// Prepare. Restores count as DiskHits, fresh plans as Planned.

// loadPlanned produces the Prepared and Plan for one fingerprint on a
// plan-aware engine: restore from disk when possible, otherwise run the
// planner (whose scoring already prepares the winner — planning IS
// preparing) and persist the result.
func (e *Engine) loadPlanned(fp string, w *workload.Workload) (mechanism.Prepared, *plan.Plan, error) {
	if path := e.planPath(fp); path != "" {
		if p, pl, err := e.restorePlanned(path, fp, w); err == nil {
			e.diskHits.Add(1)
			return p, pl, nil
		}
		// A missing, corrupt, or mismatched plan document must never take
		// down serving: fall through to a fresh plan.
	}
	opts := *e.planner
	opts.Fingerprint = fp
	e.prepares.Add(1)
	if e.hook != nil {
		e.hook(fp)
	}
	pl, err := plan.New(w, opts)
	if err != nil {
		return nil, nil, err
	}
	e.planned.Add(1)
	p := pl.Prepared()
	if path := e.planPath(fp); path != "" {
		if err := e.writePlan(path, pl); err == nil {
			if d, ok := decompositionOf(p); ok {
				// Best-effort like every disk write: a failed .lrmd write
				// leaves a valid plan document whose restore path will
				// simply miss on the decomposition and re-plan.
				_ = e.writeDecomposition(e.plannedDiskPath(fp, pl.Digest()), d)
			}
			e.diskWrites.Add(1)
		}
	}
	return p, pl, nil
}

// restorePlanned rebuilds a served workload from its persisted plan: the
// decision comes from the (self-checking) document, the preparation from
// the decomposition file for an lrm winner or a fresh trivial Prepare
// for a baseline winner.
func (e *Engine) restorePlanned(path, fp string, w *workload.Workload) (mechanism.Prepared, *plan.Plan, error) {
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
	if pl.Mechanism == "lrm" {
		p, err := loadPrepared(e.fs, e.plannedDiskPath(fp, pl.Digest()), w, pl.LRMOptions.Gamma)
		if err != nil {
			return nil, nil, err
		}
		return p, pl, nil
	}
	m, err := mechanism.ByName(pl.Mechanism, e.planner.Config)
	if err != nil {
		return nil, nil, err
	}
	p, err := m.Prepare(w)
	if err != nil {
		return nil, nil, err
	}
	return p, pl, nil
}

// planPath returns the plan-document path for a fingerprint, or "" when
// disk caching is disabled.
func (e *Engine) planPath(fp string) string {
	if e.dir == "" {
		return ""
	}
	return filepath.Join(e.dir, fp+"-"+e.optTag+".plan.json")
}

// plannedDiskPath is the decomposition file for a planned lrm winner:
// keyed by workload fingerprint, planner-options digest, AND plan
// digest, so a replanned decision can never be served by the previous
// decision's factorization.
func (e *Engine) plannedDiskPath(fp, digest string) string {
	return filepath.Join(e.dir, fp+"-"+e.optTag+"-"+digest+".lrmd")
}

// writePlan persists a plan document atomically and durably (temp file
// + fsync + rename + directory fsync), mirroring writeDecomposition.
func (e *Engine) writePlan(path string, pl *plan.Plan) error {
	return e.writeEncoded(path, ".plan-*", pl)
}

// PlanDecision is one resident plan, as surfaced by Decisions and the
// HTTP server's GET /stats.
type PlanDecision struct {
	// Fingerprint identifies the planned workload.
	Fingerprint string `json:"fingerprint"`
	// Mechanism is the winning candidate's registry name.
	Mechanism string `json:"mechanism"`
	// Digest is the plan's content digest (see plan.Plan.Digest).
	Digest string `json:"digest"`
	// Summary is the one-line justification (winner, expected SSE,
	// margin over the runner-up).
	Summary string `json:"summary"`
}

// Decisions returns the plan decision of every planned workload still
// resident in the cache, most recently answered first. Empty on
// fixed-mechanism engines.
func (e *Engine) Decisions() []PlanDecision {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []PlanDecision
	for el := e.lru.Front(); el != nil; el = el.Next() {
		ce := el.Value.(*cacheEntry)
		if ce.pl == nil {
			continue
		}
		out = append(out, PlanDecision{
			Fingerprint: ce.fp,
			Mechanism:   ce.pl.Mechanism,
			Digest:      ce.pl.Digest(),
			Summary:     ce.pl.Summary(),
		})
	}
	return out
}
