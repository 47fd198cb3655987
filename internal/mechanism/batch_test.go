package mechanism

import (
	"math"
	"testing"

	"lrm/internal/mat"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

// histogramMatrix stacks B histograms drawn from src as the columns of an
// n×B matrix, the layout AnswerMany takes.
func histogramMatrix(n, b int, src *rng.Source) *mat.Dense {
	x := mat.New(n, b)
	for j := 0; j < b; j++ {
		x.SetCol(j, src.UniformVec(n, 0, 20))
	}
	return x
}

// TestAnswerManyBitIdenticalToLoop is the BatchAnswerer contract test:
// for every mechanism in the repository, AnswerMany over an n×B data
// matrix must draw the noise that looping Answer over the columns with an
// identically seeded source draws, in the same order. A one-column batch
// is bit-identical to the loop, the same seed gives the same bits on a
// repeat, and each column of a wider batch equals the loop's to within
// floating-point rounding. The rounding bound sits far below the noise
// each release carries, and a release whose draws are assigned to the
// columns in a different order must fall outside it. Batch widths cover
// the single-column case, a partial GEMM panel, and a full one.
func TestAnswerManyBitIdenticalToLoop(t *testing.T) {
	src := rng.New(1)
	const m, n = 6, 32
	w := workload.Range(m, n, src)
	for _, mech := range allMechanisms() {
		mech := mech
		t.Run(mech.Name(), func(t *testing.T) {
			p, err := mech.Prepare(w)
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			for _, batch := range []int{1, 5, 8} {
				x := histogramMatrix(n, batch, rng.New(int64(10+batch)))
				want, err := AnswerManyLoop(p, x, 1, rng.New(77))
				if err != nil {
					t.Fatalf("B=%d: loop: %v", batch, err)
				}
				got, err := AnswerMany(p, x, 1, rng.New(77))
				if err != nil {
					t.Fatalf("B=%d: AnswerMany: %v", batch, err)
				}
				if got.Rows() != m || got.Cols() != batch {
					t.Fatalf("B=%d: result is %d×%d, want %d×%d", batch, got.Rows(), got.Cols(), m, batch)
				}
				again, err := AnswerMany(p, x, 1, rng.New(77))
				if err != nil {
					t.Fatalf("B=%d: repeat: %v", batch, err)
				}
				if !again.Equal(got) {
					t.Fatalf("B=%d: the same seed released different bits on a repeat", batch)
				}
				if batch == 1 && !got.Equal(want) {
					t.Fatal("B=1: AnswerMany differs bitwise from Answer")
				}
				if i, j, ok := withinRounding(got, want); !ok {
					t.Fatalf("B=%d: column %d row %d = %v, looping Answer says %v", batch, j, i, got.At(i, j), want.At(i, j))
				}
				// The largest bound withinRounding applies, against the RMS
				// noise the release carries over the exact answers.
				tol := 1e-12 * math.Max(1, mat.MaxAbs(want))
				noise := mat.FrobeniusDist(want, mat.Mul(w.W, x)) / math.Sqrt(float64(m*batch))
				if tol >= 1e-6*noise {
					t.Fatalf("B=%d: rounding bound %g is not far below the release noise %g", batch, tol, noise)
				}
				if batch > 1 {
					if _, _, ok := withinRounding(reversedDraws(t, p, x), want); ok {
						t.Fatalf("B=%d: a release with its noise draws reordered passes the rounding bound", batch)
					}
				}
			}
		})
	}
}

// withinRounding reports whether every element of got equals want to
// within 1e-12·max(1, |want|), and the first element that does not.
func withinRounding(got, want *mat.Dense) (row, col int, ok bool) {
	for i := 0; i < want.Rows(); i++ {
		for j := 0; j < want.Cols(); j++ {
			g, w := got.At(i, j), want.At(i, j)
			if math.Abs(g-w) > 1e-12*math.Max(1, math.Abs(w)) {
				return i, j, false
			}
		}
	}
	return 0, 0, true
}

// reversedDraws loops Answer over the columns of x in reverse order with
// the contract's seed and stacks the releases back in column order: the
// same draws as the contract's loop, assigned to different columns.
func reversedDraws(t *testing.T, p Prepared, x *mat.Dense) *mat.Dense {
	t.Helper()
	b := x.Cols()
	rev := mat.New(x.Rows(), b)
	for j := 0; j < b; j++ {
		rev.SetCol(j, x.Col(b-1-j))
	}
	y, err := AnswerManyLoop(p, rev, 1, rng.New(77))
	if err != nil {
		t.Fatalf("reversed loop: %v", err)
	}
	out := mat.New(y.Rows(), b)
	for j := 0; j < b; j++ {
		out.SetCol(j, y.Col(b-1-j))
	}
	return out
}

// TestAnswerManyNativeImplementations pins which mechanisms carry a real
// multi-RHS path (one packed GEMM per product) rather than the loop
// fallback — so a refactor that silently drops an implementation fails
// here instead of just getting slower.
func TestAnswerManyNativeImplementations(t *testing.T) {
	src := rng.New(2)
	w := workload.Range(6, 32, src)
	native := []Mechanism{
		LRM{},
		LaplaceData{},
		LaplaceResults{},
		MatrixMechanism{MaxIter: 10},
		Consistent{Base: LaplaceResults{}},
	}
	for _, mech := range native {
		p, err := mech.Prepare(w)
		if err != nil {
			t.Fatalf("%s: prepare: %v", mech.Name(), err)
		}
		if _, ok := p.(BatchAnswerer); !ok {
			t.Errorf("%s: Prepared does not implement BatchAnswerer", mech.Name())
		}
	}
}

// TestAnswerManyValidation covers the batch-shape and ε errors of the
// native implementations.
func TestAnswerManyValidation(t *testing.T) {
	src := rng.New(3)
	const n = 32
	w := workload.Range(6, n, src)
	for _, mech := range []Mechanism{LRM{}, LaplaceData{}, LaplaceResults{}, Consistent{Base: LaplaceResults{}}} {
		p, err := mech.Prepare(w)
		if err != nil {
			t.Fatalf("%s: prepare: %v", mech.Name(), err)
		}
		good := histogramMatrix(n, 3, rng.New(4))
		if _, err := AnswerMany(p, good, 0, rng.New(5)); err == nil {
			t.Errorf("%s: zero epsilon accepted", mech.Name())
		}
		if _, err := AnswerMany(p, histogramMatrix(n-1, 3, rng.New(4)), 1, rng.New(5)); err == nil {
			t.Errorf("%s: wrong-domain matrix accepted", mech.Name())
		}
		if _, err := AnswerMany(p, mat.New(n, 0), 1, rng.New(5)); err == nil {
			t.Errorf("%s: empty batch accepted", mech.Name())
		}
	}
}
