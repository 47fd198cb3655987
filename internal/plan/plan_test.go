package plan

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"lrm/internal/core"
	"lrm/internal/mat"
	"lrm/internal/mechanism"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

// fastLRM keeps the ALM cheap so planner tests exercise the decision
// machinery, not the optimizer.
func fastLRM() core.Options {
	return core.Options{MaxOuterIter: 8, MaxInnerIter: 2, MaxNesterovIter: 8}
}

// TestPlanLowRankChoosesLRM pins the paper's Section 4 regime: a
// genuinely low-rank workload (WRelated, rank ≪ min(m,n)) must plan the
// Low-Rank Mechanism, and its score must beat both baselines.
func TestPlanLowRankChoosesLRM(t *testing.T) {
	w := workload.Related(48, 64, 4, rng.New(7))
	p, err := New(w, Options{LRM: fastLRM()})
	if err != nil {
		t.Fatal(err)
	}
	if p.Mechanism != "lrm" {
		t.Fatalf("low-rank workload planned %q, want lrm\n%s", p.Mechanism, p.Explain())
	}
	if !p.Stats.LowRank() || p.Stats.Rank != 4 {
		t.Fatalf("analysis missed the low-rank regime: %+v", p.Stats)
	}
	for _, c := range p.Candidates {
		if c.Name != "lrm" && c.Source != SourceSkipped && c.SSE <= p.SSE {
			t.Fatalf("winner SSE %g does not beat %s SSE %g", p.SSE, c.Name, c.SSE)
		}
	}
	if p.Prepared() == nil {
		t.Fatal("plan retains no prepared winner")
	}
	if got := p.LRMOptions.Rank; got != 5 { // ⌈1.2·4⌉
		t.Fatalf("tuned rank %d, want 5", got)
	}
	if p.Stats.SVD != nil {
		t.Fatal("plan retains the analysis SVD past preparation (would pin O((m+n)·min(m,n)) floats per cached plan)")
	}
}

// TestPlanFullRankFollowsSection32 pins the full-rank decision: LRM is
// skipped (Section 4's regime gate) and the winner is whichever baseline
// the Section 3.2 comparison m·Δ'² vs ΣW² names.
func TestPlanFullRankFollowsSection32(t *testing.T) {
	cases := []struct {
		name string
		w    *workload.Workload
		want string
	}{
		// Dense ±1 coefficients: Δ' ≈ m, so m·Δ'² ≈ m³ ≫ ΣW² = m·n —
		// high sensitivity, noise-on-data wins.
		{"discrete-lm", workload.Discrete(24, 32, 0.5, rng.New(3)), "lm"},
		// Two-way marginals: Δ' = 2 only, m·Δ'² = 4(d1+d2) < ΣW² = 2·d1·d2
		// — noise-on-results wins.
		{"marginal-nor", workload.Marginal(8, 8), "nor"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := New(tc.w, Options{LRM: fastLRM()})
			if err != nil {
				t.Fatal(err)
			}
			if p.Stats.LowRank() {
				t.Fatalf("test premise broken: workload is low-rank (%+v)", p.Stats)
			}
			var lrmC *Candidate
			for i := range p.Candidates {
				if p.Candidates[i].Name == "lrm" {
					lrmC = &p.Candidates[i]
				}
			}
			if lrmC == nil || lrmC.Source != SourceSkipped {
				t.Fatalf("lrm not skipped on a full-rank workload: %+v", p.Candidates)
			}
			if p.Mechanism != tc.want {
				t.Fatalf("planned %q, want %q\n%s", p.Mechanism, tc.want, p.Explain())
			}
			// The winner must agree with the analysis's own 3.2 verdict.
			rule := map[string]string{"noise-on-data": "lm", "noise-on-results": "nor"}[p.Stats.BetterBaseline()]
			if p.Mechanism != rule {
				t.Fatalf("winner %q disagrees with BetterBaseline() = %q", p.Mechanism, p.Stats.BetterBaseline())
			}
		})
	}
}

// TestAutoPrepareOneFactorization pins the tentpole contract: planning +
// preparing the winner performs exactly ONE factorization of W — the
// analysis SVD is reused by the LRM's PrepareAnalyzed, never recomputed.
func TestAutoPrepareOneFactorization(t *testing.T) {
	w := workload.Related(40, 56, 3, rng.New(11))
	before := mat.SVDCalls()
	p, pl, err := AutoPrepare(w, Options{LRM: fastLRM()})
	if err != nil {
		t.Fatal(err)
	}
	if got := mat.SVDCalls() - before; got != 1 {
		t.Fatalf("AutoPrepare ran %d factorizations, want exactly 1", got)
	}
	if pl.Mechanism != "lrm" {
		t.Fatalf("planned %q, want lrm", pl.Mechanism)
	}
	x := rng.New(12).UniformVec(w.Domain(), 0, 50)
	out, err := p.Answer(x, 0.5, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != w.Queries() {
		t.Fatalf("answer length %d, want %d", len(out), w.Queries())
	}
}

// TestPlanProbeFallback: a candidate without an analytic SSE (hm) must be
// scored by the empirical probe, finitely and reproducibly.
func TestPlanProbeFallback(t *testing.T) {
	w := workload.Range(24, 32, rng.New(5))
	opts := Options{Mechanisms: []string{"lm", "hm"}, ProbeTrials: 8}
	p, err := New(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	var hm *Candidate
	for i := range p.Candidates {
		if p.Candidates[i].Name == "hm" {
			hm = &p.Candidates[i]
		}
	}
	if hm == nil || hm.Source != SourceProbe {
		t.Fatalf("hm not probe-scored: %+v", p.Candidates)
	}
	if math.IsNaN(hm.SSE) || math.IsInf(hm.SSE, 0) || hm.SSE <= 0 {
		t.Fatalf("probe SSE %v not a positive finite number", hm.SSE)
	}
	p2, err := New(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Digest() != p2.Digest() {
		t.Fatalf("replanning changed the digest: %s vs %s", p.Digest(), p2.Digest())
	}
}

// TestPlanUnknownCandidate: a typo in the candidate list must fail the
// plan, naming the registry — and before paying for the analysis SVD.
func TestPlanUnknownCandidate(t *testing.T) {
	w := workload.Identity(8)
	before := mat.SVDCalls()
	_, err := New(w, Options{Mechanisms: []string{"lm", "nope"}})
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("unknown candidate not rejected: %v", err)
	}
	if got := mat.SVDCalls() - before; got != 0 {
		t.Fatalf("invalid candidate list still ran %d factorizations", got)
	}
}

// TestPlanBadEpsilonBeforeAnalysis: an invalid scoring budget fails
// before the factorization, not after.
func TestPlanBadEpsilonBeforeAnalysis(t *testing.T) {
	w := workload.Identity(8)
	before := mat.SVDCalls()
	if _, err := New(w, Options{Eps: -1}); err == nil || !strings.Contains(err.Error(), "epsilon") {
		t.Fatalf("invalid eps accepted: %v", err)
	}
	if got := mat.SVDCalls() - before; got != 0 {
		t.Fatalf("invalid eps still ran %d factorizations", got)
	}
}

// TestPlanAllSkipped: lrm alone on a full-rank workload leaves nothing to
// score; the error must say why.
func TestPlanAllSkipped(t *testing.T) {
	_, err := New(workload.Identity(8), Options{Mechanisms: []string{"lrm"}})
	if err == nil || !strings.Contains(err.Error(), "full-rank") {
		t.Fatalf("want full-rank skip explanation, got: %v", err)
	}
}

// TestDecodeRejectsRetiredShards: a document written before the plan's
// "shards" field was retired must be refused by the strict decoder, so
// an engine re-plans instead of serving a decision it cannot re-verify.
func TestDecodeRejectsRetiredShards(t *testing.T) {
	w := workload.Range(20, 16, rng.New(9))
	p, err := New(w, Options{Mechanisms: []string{"lm"}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("current document rejected: %v", err)
	}
	old := strings.Replace(buf.String(), `"sse":`, `"shards": 1, "sse":`, 1)
	if old == buf.String() {
		t.Fatal("shards insertion missed")
	}
	if _, err := Decode(strings.NewReader(old)); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Fatalf("document with the retired shards field: err = %v, want an unknown-field rejection", err)
	}
}

// TestPlanExplain spot-checks the human-readable report.
func TestPlanExplain(t *testing.T) {
	w := workload.Related(30, 40, 3, rng.New(2))
	p, err := New(w, Options{LRM: fastLRM(), Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	e := p.Explain()
	for _, want := range []string{"chosen", "lrm", "candidates at ε=0.5", "decision:", "rank 3"} {
		if !strings.Contains(e, want) {
			t.Fatalf("Explain missing %q:\n%s", want, e)
		}
	}
}

// TestPlanRoundTrip: Encode → Decode preserves the decision and the
// digest; tampering is rejected.
func TestPlanRoundTrip(t *testing.T) {
	w := workload.Related(24, 32, 3, rng.New(4))
	p, err := New(w, Options{LRM: fastLRM()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Mechanism != p.Mechanism || got.Digest() != p.Digest() ||
		got.LRMOptions != p.LRMOptions ||
		got.Fingerprint != p.Fingerprint {
		t.Fatalf("round trip changed the plan:\n%+v\nvs\n%+v", got, p)
	}
	if got.Prepared() != nil {
		t.Fatal("decoded plan must not claim a prepared mechanism")
	}
	tampered := strings.Replace(buf.String(), `"mechanism": "lrm"`, `"mechanism": "lm"`, 1)
	if tampered == buf.String() {
		t.Fatal("tamper substitution missed")
	}
	if _, err := Decode(strings.NewReader(tampered)); err == nil {
		t.Fatal("tampered document accepted")
	}
	// The analysis summary is covered by the digest too: a hand-edited
	// stats block must not survive as the decision's justification.
	tamperedStats := strings.Replace(buf.String(), `"rank": 3`, `"rank": 2`, 1)
	if tamperedStats == buf.String() {
		t.Fatal("stats tamper substitution missed")
	}
	if _, err := Decode(strings.NewReader(tamperedStats)); err == nil {
		t.Fatal("tampered stats block accepted")
	}
}

// TestPrepareWithReusesAnalysis pins the mechanism-layer contract the
// planner relies on: after one Analyze, PrepareWith on the LRM runs no
// further factorization, and the result answers identically-shaped
// releases.
func TestPrepareWithReusesAnalysis(t *testing.T) {
	w := workload.Related(20, 28, 3, rng.New(6))
	stats, err := workload.Analyze(w)
	if err != nil {
		t.Fatal(err)
	}
	before := mat.SVDCalls()
	p, err := mechanism.PrepareWith(mechanism.LRM{Options: fastLRM()}, w, stats)
	if err != nil {
		t.Fatal(err)
	}
	if got := mat.SVDCalls() - before; got != 0 {
		t.Fatalf("PrepareAnalyzed ran %d factorizations, want 0", got)
	}
	out, err := p.Answer(rng.New(1).UniformVec(w.Domain(), 0, 10), 1, rng.New(2))
	if err != nil || len(out) != w.Queries() {
		t.Fatalf("answer %v (err %v)", out, err)
	}
}
