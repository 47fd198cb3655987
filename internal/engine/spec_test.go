package engine

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"lrm/internal/core"
	"lrm/internal/mechanism"
	"lrm/internal/plan"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

// lowRankKronSpec is a Kronecker product of genuinely low-rank dense
// factors: the planner routes it to the factored LRM.
func lowRankKronSpec(seed int64) *workload.KronSpec {
	src := rng.New(seed)
	f1 := workload.Related(14, 12, 2, src)
	f2 := workload.Related(10, 9, 2, src)
	return workload.NewKronSpec(workload.AsSpec(f1), workload.AsSpec(f2))
}

// TestSpecAnswer: the implicit path end to end on a plan-aware engine —
// right shape, Implicit counted, spec-namespaced fingerprint, and the
// dense counters behave exactly as for a matrix workload.
func TestSpecAnswer(t *testing.T) {
	e := newPlannedEngine(t, Options{Planner: &plan.Options{}})
	s, err := workload.ParseSpec("kron:prefix(16)xprefix(8)")
	if err != nil {
		t.Fatal(err)
	}
	x := testHistogram(s.Domain(), 7)
	out, err := e.Answer(Request{Spec: s, Histograms: [][]float64{x}, Eps: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || len(out[0]) != s.Queries() {
		t.Fatalf("answer shape %d×%d, want 1×%d", len(out), len(out[0]), s.Queries())
	}
	// Deterministic at a fixed seed, like the dense path.
	again, err := e.Answer(Request{Spec: s, Histograms: [][]float64{x}, Eps: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range out[0] {
		if out[0][i] != again[0][i] {
			t.Fatalf("answer not deterministic at fixed seed (row %d)", i)
		}
	}
	st := e.Stats()
	if st.Implicit != 2 || st.Requests != 2 || st.Prepares != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 2 implicit requests, 1 prepare, 1 hit", st)
	}
	ds := e.Decisions()
	if len(ds) != 1 || !strings.HasPrefix(ds[0].Fingerprint, "spec-") {
		t.Fatalf("decisions = %+v, want one spec-namespaced plan", ds)
	}
}

// TestSpecRequestValidation: a request must set exactly one of Workload
// and Spec, and implicit requests get the same histogram validation as
// dense ones.
func TestSpecRequestValidation(t *testing.T) {
	e := newPlannedEngine(t, Options{Planner: &plan.Options{}})
	s := workload.NewPrefixSpec(8)
	w := testWorkload(1)
	if _, err := e.Answer(Request{Workload: w, Spec: s, Histograms: [][]float64{testHistogram(8, 1)}, Eps: 1}); err == nil {
		t.Error("request with both Workload and Spec accepted")
	}
	if _, err := e.Answer(Request{Spec: s, Eps: 1}); err == nil {
		t.Error("spec request with no histograms accepted")
	}
	if _, err := e.Answer(Request{Spec: s, Histograms: [][]float64{testHistogram(7, 1)}, Eps: 1}); err == nil {
		t.Error("spec request with a short histogram accepted")
	}
	if _, err := e.Answer(Request{Spec: s, Histograms: [][]float64{testHistogram(8, 1)}, Eps: 0}); err == nil {
		t.Error("spec request with zero epsilon accepted")
	}
	if st := e.Stats(); st.Implicit != 0 {
		t.Errorf("rejected requests counted as implicit: %+v", st)
	}
}

// TestSpecPlannedDiskRestore is the acceptance contract for the spec
// disk cache: a second engine sharing the cache directory must serve an
// lrm-planned spec with ZERO prepares — the plan document restores the
// decision, the .lrmk restores the factored decomposition — and produce
// bit-identical answers at the same seed.
func TestSpecPlannedDiskRestore(t *testing.T) {
	dir := t.TempDir()
	s := lowRankKronSpec(31)
	x := testHistogram(s.Domain(), 32)
	req := Request{Spec: s, Histograms: [][]float64{x}, Eps: 0.7, Seed: 99}

	var p1 atomic.Int64
	e1 := newPlannedEngine(t, Options{
		CacheDir:    dir,
		PrepareHook: func(string) { p1.Add(1) },
	})
	got1, err := e1.Answer(req)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Load() != 1 {
		t.Fatalf("first engine prepared %d times, want 1", p1.Load())
	}
	if ds := e1.Decisions(); len(ds) != 1 || ds[0].Mechanism != "lrm" {
		t.Fatalf("decisions = %+v, want an lrm winner (the restore under test)", ds)
	}
	lrmk, err := filepath.Glob(filepath.Join(dir, "spec-*.lrmk"))
	if err != nil || len(lrmk) != 1 {
		t.Fatalf("want exactly one .lrmk in the cache dir, got %v (%v)", lrmk, err)
	}

	var p2 atomic.Int64
	e2 := newPlannedEngine(t, Options{
		CacheDir:    dir,
		PrepareHook: func(string) { p2.Add(1) },
	})
	got2, err := e2.Answer(req)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Load() != 0 {
		t.Fatalf("second engine ran %d prepares, want 0 (disk restore)", p2.Load())
	}
	st := e2.Stats()
	if st.Prepares != 0 || st.DiskHits != 1 {
		t.Fatalf("second engine stats = %+v, want 0 prepares and 1 disk hit", st)
	}
	for i := range got1[0] {
		if got1[0][i] != got2[0][i] {
			t.Fatalf("restored engine diverges at row %d: %g vs %g", i, got1[0][i], got2[0][i])
		}
	}
}

// TestSpecPlannedDiskRestoreBaseline: a baseline (lm) winner restores
// from the plan document alone — no .lrmk exists, and no Prepare runs.
func TestSpecPlannedDiskRestoreBaseline(t *testing.T) {
	dir := t.TempDir()
	s, err := workload.ParseSpec("kron:prefix(16)xprefix(16)")
	if err != nil {
		t.Fatal(err)
	}
	x := testHistogram(s.Domain(), 40)
	req := Request{Spec: s, Histograms: [][]float64{x}, Eps: 1, Seed: 41}

	e1 := newPlannedEngine(t, Options{Planner: &plan.Options{}, CacheDir: dir})
	got1, err := e1.Answer(req)
	if err != nil {
		t.Fatal(err)
	}
	if ds := e1.Decisions(); len(ds) != 1 || ds[0].Mechanism != "lm" {
		t.Fatalf("decisions = %+v, want an lm winner", ds)
	}

	var p2 atomic.Int64
	e2 := newPlannedEngine(t, Options{Planner: &plan.Options{}, CacheDir: dir, PrepareHook: func(string) { p2.Add(1) }})
	got2, err := e2.Answer(req)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Load() != 0 {
		t.Fatalf("baseline restore ran %d prepares, want 0", p2.Load())
	}
	for i := range got1[0] {
		if got1[0][i] != got2[0][i] {
			t.Fatalf("restored engine diverges at row %d", i)
		}
	}
}

// TestSpecFixedLRMDiskRestore: a fixed-mechanism LRM engine persists the
// factored decomposition as .lrmk and a second engine restores it with
// zero prepares, through readArtifact's per-factor residual check,
// and with bit-identical answers. The square grid's two factors are the
// same matrix, so its decomposition shares one (Bᵢ,Lᵢ) between them.
func TestSpecFixedLRMDiskRestore(t *testing.T) {
	square, err := workload.ParseSpec("kron:prefix(8)xprefix(8)")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		s    workload.Spec
	}{
		{"low-rank", lowRankKronSpec(50)},
		{"shared-factor", square},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := tc.s
			x := testHistogram(s.Domain(), 51)
			req := Request{Spec: s, Histograms: [][]float64{x}, Eps: 0.9, Seed: 52}

			e1 := newTestEngine(t, Options{CacheDir: dir})
			got1, err := e1.Answer(req)
			if err != nil {
				t.Fatal(err)
			}
			if st := e1.Stats(); st.Prepares != 1 || st.DiskWrites != 1 {
				t.Fatalf("first engine stats = %+v, want 1 prepare and 1 disk write", st)
			}

			var p2 atomic.Int64
			e2 := newTestEngine(t, Options{CacheDir: dir, PrepareHook: func(string) { p2.Add(1) }})
			if _, err := e2.readArtifact(e1.artifactPath(workload.SpecFingerprint(s), "", s), s, e2.gamma); err != nil {
				t.Fatalf("restored .lrmk fails the per-factor check: %v", err)
			}
			got2, err := e2.Answer(req)
			if err != nil {
				t.Fatal(err)
			}
			if p2.Load() != 0 {
				t.Fatalf("second engine ran %d prepares, want 0", p2.Load())
			}
			if st := e2.Stats(); st.DiskHits != 1 {
				t.Fatalf("second engine stats = %+v, want 1 disk hit", st)
			}
			for i := range got1[0] {
				if math.Float64bits(got1[0][i]) != math.Float64bits(got2[0][i]) {
					t.Fatalf("restored engine diverges at row %d", i)
				}
			}
		})
	}
}

// TestSpecDiskRejectsTamperedKron: a .lrmk holding a different spec's
// factorization must fail the per-factor residual check and fall back to
// a fresh preparation instead of silently poisoning answers.
func TestSpecDiskRejectsTamperedKron(t *testing.T) {
	dir := t.TempDir()
	victim := lowRankKronSpec(60)
	other := workload.NewKronSpec(
		workload.AsSpec(workload.Related(14, 12, 2, rng.New(999))),
		workload.AsSpec(workload.Related(10, 9, 2, rng.New(998))),
	)
	e1 := newTestEngine(t, Options{CacheDir: dir})
	if _, err := e1.Answer(Request{Spec: other, Histograms: [][]float64{testHistogram(other.Domain(), 1)}, Eps: 1}); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.lrmk"))
	if len(files) != 1 {
		t.Fatalf("want one .lrmk, got %v", files)
	}
	// Plant the other spec's decomposition under the victim's cache key.
	// Same shapes, different matrices — only the residual check can tell.
	victimPath := e1.artifactPath(workload.SpecFingerprint(victim), "", victim)
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victimPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var prepares atomic.Int64
	e2 := newTestEngine(t, Options{CacheDir: dir, PrepareHook: func(string) { prepares.Add(1) }})
	if _, err := e2.Answer(Request{Spec: victim, Histograms: [][]float64{testHistogram(victim.Domain(), 2)}, Eps: 1}); err != nil {
		t.Fatal(err)
	}
	if prepares.Load() != 1 {
		t.Fatalf("planted foreign decomposition served without a fresh prepare (%d prepares)", prepares.Load())
	}
}

// TestSpecDenseAdapterSharesDenseCache: a Spec request wrapping a dense
// workload and a plain Workload request must agree on the fingerprint,
// so the second form hits the first's cache entry.
func TestSpecDenseAdapterSharesDenseCache(t *testing.T) {
	var prepares atomic.Int64
	e := newTestEngine(t, Options{PrepareHook: func(string) { prepares.Add(1) }})
	w := testWorkload(70)
	x := testHistogram(w.Domain(), 71)
	if _, err := e.Answer(Request{Spec: workload.AsSpec(w), Histograms: [][]float64{x}, Eps: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Answer(Request{Workload: w, Histograms: [][]float64{x}, Eps: 1}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if prepares.Load() != 1 || st.Hits != 1 {
		t.Fatalf("adapter and dense requests did not share a cache entry: %d prepares, stats %+v", prepares.Load(), st)
	}
	if st.Implicit != 1 {
		t.Fatalf("stats = %+v, want exactly the spec request counted implicit", st)
	}
}

// TestSpecAcceptanceScale is the ISSUE acceptance criterion: a Kronecker
// spec with m·n ≥ 10¹² cells plans, prepares, and answers through the
// engine without ever allocating an m×n matrix. The workload is
// 2²⁰×2²⁰ ≈ 1.1·10¹² cells — materialized, ~8 TB — and the whole serve
// must stay under 256 MB of cumulative allocation.
func TestSpecAcceptanceScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second at -short")
	}
	dir := t.TempDir()
	s, err := workload.ParseSpec("kron:prefix(1024)xprefix(1024)")
	if err != nil {
		t.Fatal(err)
	}
	if cells := float64(s.Queries()) * float64(s.Domain()); cells < 1e12 {
		t.Fatalf("spec is only %g cells, acceptance needs ≥ 1e12", cells)
	}
	x := rng.New(80).UniformVec(s.Domain(), 0, 10)
	req := Request{Spec: s, Histograms: [][]float64{x}, Eps: 1, Seed: 81}

	e1 := newPlannedEngine(t, Options{Planner: &plan.Options{}, CacheDir: dir})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	out, err := e1.Answer(req)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if len(out[0]) != s.Queries() {
		t.Fatalf("answer length %d, want %d", len(out[0]), s.Queries())
	}
	allocMB := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	if allocMB > 256 {
		t.Fatalf("serving a 10¹²-cell spec allocated %.0f MB — something materialized W", allocMB)
	}
	t.Logf("planned, prepared, and answered 2²⁰×2²⁰ with %.1f MB allocated", allocMB)
	// Answers are finite and the prefix structure holds approximately:
	// later prefixes accumulate more mass than early ones on average.
	for i, v := range out[0] {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite answer at row %d", i)
		}
	}

	// Acceptance part two: a fresh engine on the same cache directory
	// restores by Spec.Digest() with zero prepares.
	var p2 atomic.Int64
	e2 := newPlannedEngine(t, Options{Planner: &plan.Options{}, CacheDir: dir, PrepareHook: func(string) { p2.Add(1) }})
	out2, err := e2.Answer(req)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Load() != 0 {
		t.Fatalf("restore ran %d prepares, want 0", p2.Load())
	}
	for i := range out[0] {
		if out[0][i] != out2[0][i] {
			t.Fatalf("restored engine diverges at row %d", i)
		}
	}
}

// TestSpecPreparedFromKronRoundTrip: what the engine writes to .lrmk is
// what PreparedFromKronDecomposition serves — answers from the restored
// file are bit-identical to the original preparation's.
func TestSpecPreparedFromKronRoundTrip(t *testing.T) {
	s := lowRankKronSpec(90)
	p, err := mechanism.PrepareSpec(mechanism.LRM{Options: fastOpts()}, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := artifactOf(p)
	d, ok := a.(*core.KronDecomposition)
	if !ok {
		t.Fatal("LRM spec preparation does not expose its factored decomposition")
	}
	if _, err := core.NewKronMechanism(d); err != nil {
		t.Fatalf("restored mechanism: %v", err)
	}
}
