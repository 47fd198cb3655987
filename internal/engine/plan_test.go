package engine

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lrm/internal/mat"
	"lrm/internal/mechanism"
	"lrm/internal/plan"
	"lrm/internal/privacy"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

// newPlannedEngine builds a plan-aware engine (bypassing newTestEngine,
// which would force a fixed mechanism).
func newPlannedEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	if opts.Planner == nil {
		opts.Planner = &plan.Options{LRM: fastOpts()}
	}
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func plannedRequest(w *workload.Workload, seed int64) Request {
	return Request{
		Workload:   w,
		Histograms: [][]float64{testHistogram(w.Domain(), 40)},
		Eps:        0.5,
		Seed:       seed,
	}
}

// TestPlannedEngineLowRank: a plan-aware engine serves a low-rank
// workload through an LRM plan, plans it exactly once across repeat
// requests, and surfaces the decision.
func TestPlannedEngineLowRank(t *testing.T) {
	e := newPlannedEngine(t, Options{})
	w := testWorkload(1) // Related 12×16 rank 3: the low-rank regime
	for i := 0; i < 3; i++ {
		if _, err := e.Answer(plannedRequest(w, 7)); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Planned != 1 || st.Prepares != 1 {
		t.Fatalf("planned %d prepares %d, want 1/1 (stats %+v)", st.Planned, st.Prepares, st)
	}
	if st.Hits != 2 {
		t.Fatalf("hits %d, want 2", st.Hits)
	}
	ds := e.Decisions()
	if len(ds) != 1 || ds[0].Mechanism != "lrm" {
		t.Fatalf("decisions %+v, want one lrm plan", ds)
	}
	if ds[0].Digest == "" || !strings.Contains(ds[0].Summary, "lrm") {
		t.Fatalf("decision not explained: %+v", ds[0])
	}
}

// TestPlannedEngineFullRank: a full-rank workload is served by the
// Section-3.2 baseline, not the LRM.
func TestPlannedEngineFullRank(t *testing.T) {
	e := newPlannedEngine(t, Options{})
	w := workload.Identity(10)
	if _, err := e.Answer(plannedRequest(w, 3)); err != nil {
		t.Fatal(err)
	}
	ds := e.Decisions()
	if len(ds) != 1 || ds[0].Mechanism == "lrm" {
		t.Fatalf("full-rank workload planned %+v, want a baseline", ds)
	}
}

// TestPlannedEngineDiskRestore: a second engine sharing the cache
// directory restores the plan AND the decomposition — zero planner runs,
// zero prepares, zero factorizations — and answers bit-for-bit at the
// same seed.
func TestPlannedEngineDiskRestore(t *testing.T) {
	dir := t.TempDir()
	w := testWorkload(2)
	req := plannedRequest(w, 11)

	e1 := newPlannedEngine(t, Options{CacheDir: dir})
	out1, err := e1.Answer(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := e1.Stats(); st.Planned != 1 || st.DiskWrites != 1 {
		t.Fatalf("first engine stats %+v, want 1 plan, 1 disk write", st)
	}
	if ds := e1.Decisions(); len(ds) != 1 || ds[0].Mechanism != "lrm" {
		t.Fatalf("first engine decisions %+v", ds)
	}

	e2 := newPlannedEngine(t, Options{CacheDir: dir})
	before := mat.SVDCalls()
	out2, err := e2.Answer(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := mat.SVDCalls() - before; got != 0 {
		t.Fatalf("disk restore ran %d factorizations, want 0", got)
	}
	st := e2.Stats()
	if st.Planned != 0 || st.Prepares != 0 || st.DiskHits != 1 {
		t.Fatalf("restore stats %+v, want 0 planned, 0 prepares, 1 disk hit", st)
	}
	if len(out1) != len(out2) || len(out1[0]) != len(out2[0]) {
		t.Fatalf("answer shapes differ: %d×%d vs %d×%d", len(out1), len(out1[0]), len(out2), len(out2[0]))
	}
	for i := range out1[0] {
		if out1[0][i] != out2[0][i] {
			t.Fatalf("restored engine answers differ at %d: %g vs %g", i, out1[0][i], out2[0][i])
		}
	}
	// The restored decision is resident and surfaced like a fresh one.
	if ds := e2.Decisions(); len(ds) != 1 || ds[0].Mechanism != "lrm" {
		t.Fatalf("restored decisions %+v", ds)
	}
}

// TestPlannedEngineDiskRestoreBaselineWinner: a baseline decision (no
// decomposition file) restores from the plan document alone.
func TestPlannedEngineDiskRestoreBaselineWinner(t *testing.T) {
	dir := t.TempDir()
	w := workload.Identity(8)
	req := plannedRequest(w, 5)

	e1 := newPlannedEngine(t, Options{CacheDir: dir})
	if _, err := e1.Answer(req); err != nil {
		t.Fatal(err)
	}
	winner := e1.Decisions()[0].Mechanism
	if winner == "lrm" {
		t.Fatalf("test premise broken: identity planned lrm")
	}

	e2 := newPlannedEngine(t, Options{CacheDir: dir})
	if _, err := e2.Answer(req); err != nil {
		t.Fatal(err)
	}
	st := e2.Stats()
	if st.Planned != 0 || st.DiskHits != 1 {
		t.Fatalf("baseline restore stats %+v, want 0 planned, 1 disk hit", st)
	}
	if got := e2.Decisions()[0].Mechanism; got != winner {
		t.Fatalf("restored winner %q, want %q", got, winner)
	}
}

// TestPlannedEngineCorruptPlanDocument: a plan document the decoder
// refuses must fall back to exactly one fresh plan, not fail the
// request. Two inputs: a truncated document, and a document written
// before the "shards" field was retired — a cache directory from an
// older build must re-plan instead of being trusted.
func TestPlannedEngineCorruptPlanDocument(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rewrite func(doc []byte) []byte
	}{
		{"truncated", func([]byte) []byte { return []byte(`{"mechanism":`) }},
		{"retired-shards-field", func(doc []byte) []byte {
			return bytes.Replace(doc, []byte(`"sse":`), []byte(`"shards": 1, "sse":`), 1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w := testWorkload(3)
			req := plannedRequest(w, 9)

			e1 := newPlannedEngine(t, Options{CacheDir: dir})
			if _, err := e1.Answer(req); err != nil {
				t.Fatal(err)
			}
			docs, err := filepath.Glob(filepath.Join(dir, "*.plan.json"))
			if err != nil || len(docs) != 1 {
				t.Fatalf("plan documents %v (err %v), want one", docs, err)
			}
			doc, err := os.ReadFile(docs[0])
			if err != nil {
				t.Fatal(err)
			}
			bad := tc.rewrite(doc)
			if bytes.Equal(bad, doc) {
				t.Fatal("rewrite left the document unchanged")
			}
			if err := os.WriteFile(docs[0], bad, 0o644); err != nil {
				t.Fatal(err)
			}

			e2 := newPlannedEngine(t, Options{CacheDir: dir})
			if _, err := e2.Answer(req); err != nil {
				t.Fatal(err)
			}
			if st := e2.Stats(); st.Planned != 1 || st.Prepares != 1 || st.DiskHits != 0 {
				t.Fatalf("stats %+v, want exactly one fresh plan and no disk hit", st)
			}
		})
	}
}

// TestPlannerMechanismExclusive: setting both a fixed mechanism and a
// planner is a configuration error.
func TestPlannerMechanismExclusive(t *testing.T) {
	_, err := New(Options{Mechanism: mechanism.LRM{}, Planner: &plan.Options{}})
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("want mutual-exclusion error, got %v", err)
	}
}

// TestPlannedEngineBudget: plan-aware serving keeps the per-request
// budget semantics.
func TestPlannedEngineBudget(t *testing.T) {
	e := newPlannedEngine(t, Options{})
	w := testWorkload(5)
	req := Request{
		Workload:   w,
		Histograms: [][]float64{testHistogram(w.Domain(), 1), testHistogram(w.Domain(), 2)},
		Eps:        0.5,
		Budget:     privacy.Epsilon(0.6), // 2×0.5 > 0.6
		Seed:       1,
	}
	if _, err := e.Answer(req); err == nil {
		t.Fatal("over-budget planned request succeeded")
	}
}

// TestPlannedEngineSingleFactorizationEndToEnd is the serving-layer form
// of the tentpole pin: one cold request on a plan-aware engine = exactly
// one factorization of W (the planner's analysis SVD, reused by the
// LRM's PrepareAnalyzed).
func TestPlannedEngineSingleFactorizationEndToEnd(t *testing.T) {
	e := newPlannedEngine(t, Options{})
	w := workload.Related(16, 20, 3, rng.New(77))
	before := mat.SVDCalls()
	if _, err := e.Answer(plannedRequest(w, 21)); err != nil {
		t.Fatal(err)
	}
	if got := mat.SVDCalls() - before; got != 1 {
		t.Fatalf("cold planned request ran %d factorizations, want exactly 1", got)
	}
	if ds := e.Decisions(); len(ds) != 1 || ds[0].Mechanism != "lrm" {
		t.Fatalf("decisions %+v, want lrm", ds)
	}
}
