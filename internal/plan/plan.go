// Package plan is the adaptive mechanism planner: the optimize-once /
// serve-many split between deciding HOW a workload should be answered
// and answering it. It turns the workload analysis of
// internal/workload (rank, sensitivity, the analytic baseline SSEs —
// the decision inputs of the paper's Sections 3.2 and 4) into an
// executable Plan: candidate mechanisms from the mechanism.ByName
// registry are scored by their analytic ExpectedSSE closed forms (with
// an empirical Monte-Carlo probe as the fallback when no closed form
// exists), the winner's tuned parameters are recorded, and the whole
// decision is reproducible (a content Digest) and explainable
// (Explain).
//
// One factorization, end to end: the planner runs workload.Analyze
// exactly once, and the retained SVD is handed to the chosen
// mechanism's PrepareAnalyzed (the LRM reuses it for its rank default
// and Lemma-3 starting point), so planning never factors W a second
// time. The paper's regime logic is built in: the LRM candidate is
// scored only when the analysis puts the workload in the low-rank
// regime of Section 4 — on a (near-)full-rank workload the ALM cannot
// beat the classical baselines, so the planner skips the expensive
// decomposition entirely and the Section 3.2 comparison (m·Δ'² vs ΣW²)
// decides between noise-on-results and noise-on-data.
package plan

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"

	"lrm/internal/core"
	"lrm/internal/mechanism"
	"lrm/internal/metrics"
	"lrm/internal/privacy"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

// Options configures New. The zero value scores the default candidate
// set (lrm, lm, nor) at ε = 1.
type Options struct {
	// Mechanisms is the candidate set, as mechanism.ByName registry
	// names. Nil means DefaultCandidates. An unknown name fails the plan
	// (a typo silently narrowing the candidate set would be worse).
	Mechanisms []string
	// Eps is the scoring budget. All ExpectedSSE closed forms in this
	// repository scale as 1/ε², so ε cannot change the *ranking* of
	// analytic candidates — it exists so Explain reports errors at the
	// budget the caller will actually serve, and so probe scores (which
	// include ε-independent bias terms, e.g. a synopsis's truncation
	// error) are measured at the right operating point. Zero means 1.
	Eps privacy.Epsilon
	// Config carries the cross-mechanism tuning knobs (synopsis sizes,
	// preparation seeds) handed to mechanism.ByName for every candidate.
	Config mechanism.Config
	// LRM configures the lrm candidate's decomposition. A zero Rank is
	// tuned by the planner to the paper's recommendation, ⌈1.2·rank(W)⌉,
	// from the analysis — and the tuned value is recorded in the Plan.
	LRM core.Options
	// ProbeTrials is the number of Monte-Carlo draws behind an empirical
	// probe score (candidates whose ExpectedSSE has no closed form).
	// Zero means 16.
	ProbeTrials int
	// ProbeSeed seeds the probe's histogram and noise streams (default
	// 1), so probe scores — and therefore plans — are reproducible.
	ProbeSeed int64
	// Fingerprint, when non-empty, must be core.Fingerprint(w.W); the
	// planner trusts it and skips hashing. Engines that already key the
	// workload by fingerprint set it.
	Fingerprint string
}

// DefaultCandidates is the candidate set scored when Options.Mechanisms
// is nil: the Low-Rank Mechanism plus the two classical baselines of
// Section 3.2. These are exactly the mechanisms whose scores cost at
// most one factorization — richer sets (wm, hm, mm, …) are opt-in
// because scoring them runs their full preparation.
func DefaultCandidates() []string { return []string{"lrm", "lm", "nor"} }

// Score sources.
const (
	// SourceAnalytic marks a score from the mechanism's ExpectedSSE
	// closed form.
	SourceAnalytic = "analytic"
	// SourceProbe marks an empirical Monte-Carlo score (no closed form).
	SourceProbe = "probe"
	// SourceSkipped marks a candidate that was not scored; Reason says
	// why.
	SourceSkipped = "skipped"
)

// Candidate is one scored (or skipped) mechanism of a Plan.
type Candidate struct {
	// Name is the registry name (lrm, lm, nor, …).
	Name string `json:"name"`
	// SSE is the expected sum of squared errors at the plan's Eps; NaN
	// when skipped (serialized as Reason instead).
	SSE float64 `json:"sse"`
	// Source is SourceAnalytic, SourceProbe, or SourceSkipped.
	Source string `json:"source"`
	// Reason explains a skipped candidate.
	Reason string `json:"reason,omitempty"`
}

// Plan is an executable answering plan for one workload: which
// mechanism serves it, with which tuned parameters, and why. Build with
// New; the winner's Prepared (retained from scoring) answers immediately
// via Prepared().
type Plan struct {
	// Fingerprint is core.Fingerprint of the planned workload.
	Fingerprint string `json:"fingerprint"`
	// Mechanism is the winning candidate's registry name.
	Mechanism string `json:"mechanism"`
	// Eps is the budget the plan was scored at.
	Eps privacy.Epsilon `json:"eps"`
	// SSE is the winner's expected SSE at Eps.
	SSE float64 `json:"sse"`
	// SpecDesc, when non-empty, marks a plan made through the implicit
	// spec path (NewSpec): it is the workload.Spec's Describe() form, so
	// the engine can tell a factored strategy from a dense one when it
	// restores the plan. Empty for dense plans, whose digests are
	// unchanged by this field's existence.
	SpecDesc string `json:"spec,omitempty"`
	// LRMOptions is the lrm candidate's tuned decomposition options
	// (planner-resolved Rank included); meaningful when Mechanism is
	// "lrm" and recorded regardless so re-planning is reproducible.
	LRMOptions core.Options `json:"lrm_options"`
	// Candidates holds every candidate's score, in scoring order.
	Candidates []Candidate `json:"candidates"`
	// Stats is the workload analysis the decision rests on. Its SVD is
	// process-local and never serialized; a decoded Plan carries the
	// numeric summary only.
	Stats *workload.Stats `json:"stats"`

	prepared mechanism.Prepared
}

// New analyzes w and plans it: one workload.Analyze (one SVD), every
// candidate scored via its ExpectedSSE closed form — prepared through
// PrepareAnalyzed so the analysis is reused, never recomputed — with an
// empirical probe when no closed form exists, lowest expected SSE wins
// (ties break toward the earlier candidate). The winner's Prepared is
// retained on the Plan, so planning IS preparing: callers answer
// immediately via Prepared() with no further optimization.
func New(w *workload.Workload, opts Options) (*Plan, error) {
	if w == nil || w.W == nil {
		return nil, fmt.Errorf("plan: nil workload")
	}
	// Validate everything cheap before the factorization: an invalid
	// scoring budget or candidate list must not cost an SVD.
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
	stats, err := workload.Analyze(w)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	fp := opts.Fingerprint
	if fp == "" {
		fp = core.Fingerprint(w.W)
	}

	p := &Plan{
		Fingerprint: fp,
		Eps:         eps,
		LRMOptions:  tunedLRM(opts.LRM, stats),
		Stats:       stats,
	}

	bestSSE := math.Inf(1)
	var bestPrepared mechanism.Prepared
	for _, name := range names {
		c := Candidate{Name: name, SSE: math.NaN()}
		if name == "lrm" && !stats.LowRank() {
			// Section 4's regime rule: the ALM decomposition pays off only
			// below full rank; on full-rank workloads Section 3.2 decides
			// between the baselines, so the expensive candidate is skipped
			// rather than scored.
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
		prepared, err := mechanism.PrepareWith(mech, w, stats)
		if err != nil {
			c.Source = SourceSkipped
			c.Reason = fmt.Sprintf("prepare failed: %v", err)
			p.Candidates = append(p.Candidates, c)
			continue
		}
		c.SSE = prepared.ExpectedSSE(eps)
		c.Source = SourceAnalytic
		if math.IsNaN(c.SSE) {
			c.SSE, err = probeSSE(prepared, w, eps, opts)
			c.Source = SourceProbe
			if err != nil {
				c.SSE = math.NaN()
				c.Source = SourceSkipped
				c.Reason = fmt.Sprintf("no closed form and probe failed: %v", err)
				p.Candidates = append(p.Candidates, c)
				continue
			}
		}
		if c.SSE < bestSSE {
			bestSSE = c.SSE
			bestPrepared = prepared
			p.Mechanism = name
		}
		p.Candidates = append(p.Candidates, c)
	}
	if bestPrepared == nil {
		return nil, fmt.Errorf("plan: no scorable candidate among %v for %s (all skipped: %s)",
			names, describeShape(stats), skipReasons(p.Candidates))
	}
	p.SSE = bestSSE
	p.prepared = bestPrepared
	// The SVD served its purpose (scoring + PrepareAnalyzed); dropping it
	// keeps a cached plan at a few hundred bytes instead of pinning
	// O((m+n)·min(m,n)) floats in the engine's LRU for the entry's
	// lifetime.
	stats.SVD = nil
	return p, nil
}

// AutoPrepare plans w and returns the winning mechanism's Prepared
// alongside the plan that chose it — the one-call adaptive form of
// mechanism.Prepare. The whole call performs exactly one factorization
// of W (the analysis SVD, reused by the winner's PrepareAnalyzed).
func AutoPrepare(w *workload.Workload, opts Options) (mechanism.Prepared, *Plan, error) {
	p, err := New(w, opts)
	if err != nil {
		return nil, nil, err
	}
	return p.prepared, p, nil
}

// Prepared returns the winning mechanism's prepared instance, retained
// from scoring. Nil on a Plan that was decoded rather than built by New
// (decoded plans carry the decision; the engine re-prepares from it).
func (p *Plan) Prepared() mechanism.Prepared { return p.prepared }

// tunedLRM resolves the lrm candidate's options against the analysis:
// a zero Rank becomes the paper's ⌈1.2·rank(W)⌉ recommendation, computed
// from the already-run analysis rather than a fresh SVD, and recorded so
// the plan states the parameters it would serve with.
func tunedLRM(base core.Options, stats *workload.Stats) core.Options {
	out := base
	if out.Rank == 0 {
		out.Rank = int(math.Ceil(1.2 * float64(stats.Rank)))
		if out.Rank < 1 {
			out.Rank = 1
		}
	}
	return out
}

// candidateMechanism resolves one candidate from the registry, routing
// the tuned decomposition options into the lrm candidate.
func candidateMechanism(name string, opts Options, lrmOpts core.Options) (mechanism.Mechanism, error) {
	if name == "lrm" {
		return mechanism.LRM{Options: lrmOpts}, nil
	}
	return mechanism.ByName(name, opts.Config)
}

// probeSSE is the fallback score for mechanisms without an analytic
// error form: the mean squared error over ProbeTrials seeded releases of
// a synthetic uniform histogram. Unlike the closed forms, a probe score
// is data-dependent (it includes bias terms like a synopsis's
// truncation error on the probe data), which Explain discloses via the
// candidate's Source.
func probeSSE(p mechanism.Prepared, w *workload.Workload, eps privacy.Epsilon, opts Options) (float64, error) {
	trials := opts.ProbeTrials
	if trials <= 0 {
		trials = 16
	}
	seed := opts.ProbeSeed
	if seed == 0 {
		seed = 1
	}
	src := rng.New(seed)
	x := src.UniformVec(w.Domain(), 0, 100)
	m, err := metrics.EvaluatePrepared(p, w, x, eps, trials, src)
	if err != nil {
		return 0, err
	}
	return m.AvgSquaredError, nil
}

// Digest is a content hash of the decision and its justification:
// fingerprint, scoring budget, winner, tuned parameters, every
// candidate's score, and the analysis summary the scores rest on.
// Two plans with equal digests made the same decision for the same
// workload, so engines append it to their cache keys — a replanned
// workload whose decision changed (new candidate set, retuned options)
// must not be served by stale artifacts — and persisted documents
// re-verify it on decode, so none of these fields (the analysis
// included) can be hand-edited undetected.
func (p *Plan) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%v|%s|%v|%#v\n", p.Fingerprint, float64(p.Eps), p.Mechanism, p.SSE, p.LRMOptions)
	if p.SpecDesc != "" {
		// Only spec plans hash the descriptor: dense plan digests predate
		// the field and must not change under it.
		fmt.Fprintf(h, "spec|%s\n", p.SpecDesc)
	}
	for _, c := range p.Candidates {
		fmt.Fprintf(h, "%s|%v|%s|%s\n", c.Name, c.SSE, c.Source, c.Reason)
	}
	if s := p.Stats; s != nil {
		fmt.Fprintf(h, "%d|%d|%d|%v|%v|%v|%v|%v\n",
			s.Queries, s.Domain, s.Rank, s.Sensitivity, s.SquaredSum, s.ConditionNumber, s.LaplaceSSE, s.ResultsSSE)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// Summary is the one-line decision: winner, expected error, and the
// margin over the runner-up. Used by engine stats surfaces.
func (p *Plan) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (SSE %.4g at ε=%g", p.Mechanism, p.SSE, float64(p.Eps))
	if name, sse, ok := p.runnerUp(); ok {
		fmt.Fprintf(&b, ", %.3g× better than %s", sse/p.SSE, name)
	}
	b.WriteString(")")
	return b.String()
}

// runnerUp returns the best losing candidate's name and SSE.
func (p *Plan) runnerUp() (string, float64, bool) {
	name, sse := "", math.Inf(1)
	for _, c := range p.Candidates {
		if c.Name != p.Mechanism && c.Source != SourceSkipped && c.SSE < sse {
			name, sse = c.Name, c.SSE
		}
	}
	return name, sse, name != "" && p.SSE > 0
}

// Explain renders the full human-readable justification: the workload
// analysis, every candidate's score (or skip reason), and the decision.
func (p *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s for workload %s\n", p.Digest(), shortFP(p.Fingerprint))
	if p.Stats != nil {
		b.WriteString(p.Stats.Describe())
	}
	fmt.Fprintf(&b, "candidates at ε=%g:\n", float64(p.Eps))
	for _, c := range p.Candidates {
		switch c.Source {
		case SourceSkipped:
			fmt.Fprintf(&b, "  %-4s skipped: %s\n", c.Name, c.Reason)
		default:
			marker := ""
			if c.Name == p.Mechanism {
				marker = "  ← chosen"
			}
			fmt.Fprintf(&b, "  %-4s expected SSE %.6g (%s)%s\n", c.Name, c.SSE, c.Source, marker)
		}
	}
	fmt.Fprintf(&b, "decision: %s\n", p.Summary())
	if p.Mechanism == "lrm" {
		fmt.Fprintf(&b, "lrm tuning: rank %d (⌈1.2·rank(W)⌉ unless caller-pinned), gamma %g\n",
			p.LRMOptions.Rank, p.LRMOptions.Gamma)
	}
	return b.String()
}

func shortFP(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

func describeShape(s *workload.Stats) string {
	return fmt.Sprintf("%d×%d workload (rank %d)", s.Queries, s.Domain, s.Rank)
}

func skipReasons(cs []Candidate) string {
	reasons := make([]string, 0, len(cs))
	for _, c := range cs {
		if c.Source == SourceSkipped {
			reasons = append(reasons, c.Name+": "+c.Reason)
		}
	}
	sort.Strings(reasons)
	return strings.Join(reasons, "; ")
}
