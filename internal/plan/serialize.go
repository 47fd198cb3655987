package plan

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"lrm/internal/core"
	"lrm/internal/mechanism"
	"lrm/internal/privacy"
	"lrm/internal/workload"
)

// Plans persist as small JSON documents next to the engine's cached
// decompositions, so a restarted process recovers the *decision* —
// which mechanism, which tuned parameters — without re-running the
// analysis or the candidate scoring. The document carries the numeric
// analysis summary but never the SVD (process-local) or the prepared
// mechanism; Decode therefore returns a Plan whose Prepared() is nil,
// and the engine re-prepares from the recorded decision (for an lrm
// winner that means restoring the .lrmd decomposition, not re-running
// the ALM).

// statsDoc is the serializable subset of workload.Stats (everything but
// the SVD).
type statsDoc struct {
	Queries         int     `json:"queries"`
	Domain          int     `json:"domain"`
	Rank            int     `json:"rank"`
	Sensitivity     float64 `json:"sensitivity"`
	SquaredSum      float64 `json:"squared_sum"`
	ConditionNumber float64 `json:"condition_number"`
	LaplaceSSE      float64 `json:"laplace_sse"`
	ResultsSSE      float64 `json:"results_sse"`
}

// planDoc is the on-disk schema. Digest makes the document
// self-checking: Decode recomputes it from the fields and rejects a
// mismatch, so a truncated or hand-edited file cannot smuggle in a
// decision the planner never made.
type planDoc struct {
	Fingerprint string         `json:"fingerprint"`
	Mechanism   string         `json:"mechanism"`
	Eps         float64        `json:"eps"`
	SSE         float64        `json:"sse"`
	Spec        string         `json:"spec,omitempty"`
	LRMOptions  core.Options   `json:"lrm_options"`
	Candidates  []candidateDoc `json:"candidates"`
	Stats       *statsDoc      `json:"stats,omitempty"`
	Digest      string         `json:"digest"`
}

// candidateDoc mirrors Candidate with NaN-safe SSE encoding
// (encoding/json rejects NaN, which is exactly what a skipped
// candidate's SSE is).
type candidateDoc struct {
	Name   string   `json:"name"`
	SSE    *float64 `json:"sse,omitempty"` // nil encodes NaN
	Source string   `json:"source"`
	Reason string   `json:"reason,omitempty"`
}

// Encode writes the plan as its JSON document.
func (p *Plan) Encode(w io.Writer) error {
	doc := planDoc{
		Fingerprint: p.Fingerprint,
		Mechanism:   p.Mechanism,
		Eps:         float64(p.Eps),
		SSE:         p.SSE,
		Spec:        p.SpecDesc,
		LRMOptions:  p.LRMOptions,
		Digest:      p.Digest(),
	}
	for _, c := range p.Candidates {
		cd := candidateDoc{Name: c.Name, Source: c.Source, Reason: c.Reason}
		if !math.IsNaN(c.SSE) {
			sse := c.SSE
			cd.SSE = &sse
		}
		doc.Candidates = append(doc.Candidates, cd)
	}
	if p.Stats != nil {
		doc.Stats = &statsDoc{
			Queries:         p.Stats.Queries,
			Domain:          p.Stats.Domain,
			Rank:            p.Stats.Rank,
			Sensitivity:     p.Stats.Sensitivity,
			SquaredSum:      p.Stats.SquaredSum,
			ConditionNumber: p.Stats.ConditionNumber,
			LaplaceSSE:      p.Stats.LaplaceSSE,
			ResultsSSE:      p.Stats.ResultsSSE,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Decode restores a plan persisted with Encode, validating that the
// winner is a registered mechanism, the scoring budget is valid, and
// the stored digest matches the recomputed one. Unknown keys are
// rejected, so a document written by an older schema (for example one
// still carrying the retired "shards" field) fails to decode and the
// engine re-plans instead of trusting it. The returned Plan carries the
// decision only — Prepared() is nil.
func Decode(r io.Reader) (*Plan, error) {
	var doc planDoc
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("plan: decoding: %w", err)
	}
	if doc.Mechanism == "" {
		return nil, fmt.Errorf("plan: document names no mechanism")
	}
	if _, err := mechanism.ByName(doc.Mechanism, mechanism.Config{}); err != nil {
		return nil, fmt.Errorf("plan: document winner: %w", err)
	}
	if err := privacy.Epsilon(doc.Eps).Validate(); err != nil {
		return nil, fmt.Errorf("plan: document eps: %w", err)
	}
	if doc.Fingerprint == "" || math.IsNaN(doc.SSE) || math.IsInf(doc.SSE, 0) || doc.SSE < 0 {
		return nil, fmt.Errorf("plan: document invalid (sse %v, fingerprint %q)", doc.SSE, doc.Fingerprint)
	}
	p := &Plan{
		Fingerprint: doc.Fingerprint,
		Mechanism:   doc.Mechanism,
		Eps:         privacy.Epsilon(doc.Eps),
		SSE:         doc.SSE,
		SpecDesc:    doc.Spec,
		LRMOptions:  doc.LRMOptions,
	}
	for _, cd := range doc.Candidates {
		c := Candidate{Name: cd.Name, SSE: math.NaN(), Source: cd.Source, Reason: cd.Reason}
		if cd.SSE != nil {
			c.SSE = *cd.SSE
		}
		p.Candidates = append(p.Candidates, c)
	}
	if doc.Stats != nil {
		p.Stats = &workload.Stats{
			Queries:         doc.Stats.Queries,
			Domain:          doc.Stats.Domain,
			Rank:            doc.Stats.Rank,
			Sensitivity:     doc.Stats.Sensitivity,
			SquaredSum:      doc.Stats.SquaredSum,
			ConditionNumber: doc.Stats.ConditionNumber,
			LaplaceSSE:      doc.Stats.LaplaceSSE,
			ResultsSSE:      doc.Stats.ResultsSSE,
		}
	}
	if got := p.Digest(); got != doc.Digest {
		return nil, fmt.Errorf("plan: digest mismatch (stored %s, recomputed %s) — stale or tampered document", doc.Digest, got)
	}
	return p, nil
}
