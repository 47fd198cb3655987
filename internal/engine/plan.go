package engine

// Plan-aware serving (Options.Planner): instead of one process-wide
// mechanism, each workload is analyzed once and an executable plan —
// which mechanism, which tuned parameters, why — is computed, cached,
// and persisted through the same load pipeline as the preparations
// themselves (cache.go; artifactPath documents the on-disk keys).
//
// Restart economics. A restored plan document skips the analysis and the
// candidate scoring entirely; an lrm winner then restores its
// decomposition (validated against W like any disk hit) instead of
// re-running the ALM, and a baseline winner re-runs only its trivial
// Prepare. Restores count as DiskHits, fresh plans as Planned.

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
