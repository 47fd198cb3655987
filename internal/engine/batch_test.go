package engine

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"lrm/internal/core"
	"lrm/internal/mat"
	"lrm/internal/mechanism"
	"lrm/internal/privacy"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

// TestBatchedPathUsed: an unseeded multi-histogram request over a
// mechanism with a multi-RHS path must go through it (Batched counter),
// produce full-shape answers, and still draw distinct noise per
// histogram and per request.
func TestBatchedPathUsed(t *testing.T) {
	e := newTestEngine(t, Options{})
	w := testWorkload(200)
	x := testHistogram(w.Domain(), 201)
	req := Request{Workload: w, Histograms: [][]float64{x, x, x}, Eps: 0.5}
	a, err := e.Answer(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Batched != 1 {
		t.Fatalf("stats = %+v, want one batched request", st)
	}
	if len(a) != 3 || len(a[0]) != w.Queries() {
		t.Fatalf("answer shape %d×%d, want 3×%d", len(a), len(a[0]), w.Queries())
	}
	if reflect.DeepEqual(a[0], a[1]) {
		t.Fatal("two histograms in one batched release drew identical noise")
	}
	// The answers share one backing array, so each must be capped at its
	// length: appending to one must reallocate, not overwrite the next.
	for i, col := range a {
		if cap(col) != len(col) {
			t.Fatalf("answer %d has cap %d beyond its length %d", i, cap(col), len(col))
		}
	}
	b, err := e.Answer(req)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Fatal("two unseeded batched requests drew identical noise")
	}
	for _, col := range a {
		for i, v := range col {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("answer[%d] = %g", i, v)
			}
		}
	}
}

// TestSeededReleaseIsOneStream pins the seeded-release contract of the
// engine's single answer path: a seeded request draws the noise that
// looping the prepared mechanism's Answer over its histograms with one
// source seeded Seed would (mechanism.AnswerManyLoop), and each released
// histogram equals that loop's to within floating-point rounding —
// through a native multi-RHS path (LRM, LM) and through the loop
// fallback (a Kronecker spec). Batches of 3 and 9 sit below and above
// one GEMM panel (8 columns), so the wider one runs the tier's GEMM
// kernel. Repeating a seeded request gives the same bits, and a
// one-histogram request is the plain Answer at rng.New(Seed), bit for
// bit.
func TestSeededReleaseIsOneStream(t *testing.T) {
	const seed = 5
	const eps = privacy.Epsilon(0.5)
	w := testWorkload(210)
	kron, err := workload.ParseSpec("kron:prefix(16)xprefix(8)")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mech   mechanism.Mechanism
		req    Request
		fp     string
		native bool
	}{
		{"lrm", mechanism.LRM{Options: fastOpts()}, Request{Workload: w}, core.Fingerprint(w.W), true},
		{"lm", mechanism.LaplaceData{}, Request{Workload: w}, core.Fingerprint(w.W), true},
		{"kron", mechanism.LRM{Options: fastOpts()}, Request{Spec: kron}, workload.SpecFingerprint(kron), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine(t, Options{Mechanism: tc.mech})
			n := w.Domain()
			if tc.req.Spec != nil {
				n = tc.req.Spec.Domain()
			}
			for _, b := range []int{3, 9} {
				xs := make([][]float64, b)
				for j := range xs {
					xs[j] = testHistogram(n, int64(211+j))
				}
				req := tc.req
				req.Histograms, req.Eps, req.Seed = xs, eps, seed
				got, err := e.Answer(req)
				if err != nil {
					t.Fatal(err)
				}
				again, err := e.Answer(req)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(again, got) {
					t.Fatalf("seeded B=%d request released different bits on a repeat", b)
				}
				p := residentPrepared(t, e, tc.fp)
				if _, ok := p.(mechanism.BatchAnswerer); ok != tc.native {
					t.Fatalf("native multi-RHS path = %v, want %v", ok, tc.native)
				}
				x := mat.New(n, b)
				for j, h := range xs {
					x.SetCol(j, h)
				}
				want, err := mechanism.AnswerManyLoop(p, x, eps, rng.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				for j := range xs {
					for i, w := range want.Col(j) {
						if g := got[j][i]; math.Abs(g-w) > 1e-12*math.Max(1, math.Abs(w)) {
							t.Fatalf("seeded B=%d histogram %d row %d = %v, AnswerManyLoop at rng.New(%d) says %v", b, j, i, g, seed, w)
						}
					}
				}
			}

			x0 := testHistogram(n, 211)
			req := tc.req
			req.Histograms, req.Eps, req.Seed = [][]float64{x0}, eps, seed
			one, err := e.Answer(req)
			if err != nil {
				t.Fatal(err)
			}
			single, err := residentPrepared(t, e, tc.fp).Answer(x0, eps, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(one[0], single) {
				t.Fatalf("seeded B=1 request differs from Answer at rng.New(%d)", seed)
			}
			if st := e.Stats(); tc.native && st.Batched != 5 || !tc.native && st.Batched != 0 {
				t.Fatalf("stats = %+v: batched counts requests the native path answered", st)
			}
		})
	}
}

// residentPrepared returns the cached Prepared serving fp.
func residentPrepared(t *testing.T, e *Engine, fp string) mechanism.Prepared {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	el, ok := e.byFP[fp]
	if !ok {
		t.Fatalf("no resident preparation for %s", fp)
	}
	return el.Value.(*cacheEntry).p
}

// TestBatchedBudget: a batch is charged Eps once per histogram against
// the request's cap, and an over-cap batch never reaches a mechanism.
func TestBatchedBudget(t *testing.T) {
	e := newTestEngine(t, Options{})
	w := testWorkload(220)
	mk := func(n int) [][]float64 {
		xs := make([][]float64, n)
		for i := range xs {
			xs[i] = testHistogram(w.Domain(), int64(i))
		}
		return xs
	}
	if _, err := e.Answer(Request{Workload: w, Histograms: mk(4), Eps: 0.25, Budget: 1.0}); err != nil {
		t.Fatalf("exact budget rejected: %v", err)
	}
	if _, err := e.Answer(Request{Workload: w, Histograms: mk(5), Eps: 0.25, Budget: 1.0}); !errors.Is(err, privacy.ErrBudgetExhausted) {
		t.Fatalf("overspending batch = %v, want ErrBudgetExhausted", err)
	}
	if st := e.Stats(); st.Batched != 1 {
		t.Fatalf("stats = %+v, want exactly the within-budget request batched", st)
	}
}
