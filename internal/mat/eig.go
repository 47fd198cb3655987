package mat

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Eigen holds the eigendecomposition A = V·diag(Values)·Vᵀ of a symmetric
// matrix. Eigenvalues are sorted in non-increasing order and V's columns
// are the corresponding orthonormal eigenvectors.
type Eigen struct {
	Values  []float64
	Vectors *Dense
}

// FactorSymEig computes the eigendecomposition of a symmetric matrix by
// the cyclic Jacobi method. Only symmetry up to roundoff is assumed; the
// symmetric part (A+Aᵀ)/2 is what is actually diagonalized.
func FactorSymEig(a *Dense) (*Eigen, error) {
	if a.rows != a.cols {
		return nil, errors.New("mat: FactorSymEig needs a square matrix")
	}
	n := a.rows
	// Symmetrize defensively.
	w := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			w.data[i*n+j] = 0.5 * (a.data[i*n+j] + a.data[j*n+i])
		}
	}
	v := Eye(n)

	offDiag := func() float64 {
		var s float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s += w.data[i*n+j] * w.data[i*n+j]
			}
		}
		return s
	}
	frob := SquaredSum(w)
	tol := 1e-24 * frob
	if tol == 0 {
		tol = 1e-30
	}

	for sweep := 0; sweep < maxJacobiSweeps; sweep++ {
		if offDiag() <= tol {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.data[p*n+q]
				if apq == 0 {
					continue
				}
				app := w.data[p*n+p]
				aqq := w.data[q*n+q]
				if math.Abs(apq) <= 1e-16*(math.Abs(app)+math.Abs(aqq)) {
					w.data[p*n+q] = 0
					w.data[q*n+p] = 0
					continue
				}
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				// Update rows/cols p and q of w.
				for k := 0; k < n; k++ {
					akp := w.data[k*n+p]
					akq := w.data[k*n+q]
					w.data[k*n+p] = c*akp - s*akq
					w.data[k*n+q] = s*akp + c*akq
				}
				for k := 0; k < n; k++ {
					apk := w.data[p*n+k]
					aqk := w.data[q*n+k]
					w.data[p*n+k] = c*apk - s*aqk
					w.data[q*n+k] = s*apk + c*aqk
				}
				// Accumulate eigenvectors.
				for k := 0; k < n; k++ {
					vkp := v.data[k*n+p]
					vkq := v.data[k*n+q]
					v.data[k*n+p] = c*vkp - s*vkq
					v.data[k*n+q] = s*vkp + c*vkq
				}
			}
		}
	}

	values := make([]float64, n)
	for i := 0; i < n; i++ {
		values[i] = w.data[i*n+i]
	}
	// Sort eigenpairs by non-increasing eigenvalue.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return values[idx[a]] > values[idx[b]] })
	sortedVals := make([]float64, n)
	sortedVecs := New(n, n)
	for k, src := range idx {
		sortedVals[k] = values[src]
		for i := 0; i < n; i++ {
			sortedVecs.data[i*n+k] = v.data[i*n+src]
		}
	}
	return &Eigen{Values: sortedVals, Vectors: sortedVecs}, nil
}

// Reconstruct returns V·diag(Values)·Vᵀ, useful for testing.
func (e *Eigen) Reconstruct() *Dense {
	vs := e.Vectors.Clone()
	n := vs.rows
	for i := 0; i < n; i++ {
		row := vs.RawRow(i)
		for j := 0; j < n; j++ {
			row[j] *= e.Values[j]
		}
	}
	return MulABt(vs, e.Vectors)
}

// SqrtPSD returns the symmetric square root V·diag(√λᵢ)·Vᵀ of a positive
// semidefinite matrix; negative eigenvalues (roundoff) are clamped to 0.
// It is how the matrix mechanism recovers its strategy A from M = AᵀA.
func SqrtPSD(a *Dense) (*Dense, error) {
	e, err := FactorSymEig(a)
	if err != nil {
		return nil, err
	}
	n := len(e.Values)
	vs := e.Vectors.Clone()
	for i := 0; i < n; i++ {
		row := vs.RawRow(i)
		for j := 0; j < n; j++ {
			lam := e.Values[j]
			if lam < 0 {
				lam = 0
			}
			row[j] *= math.Sqrt(lam)
		}
	}
	return MulABt(vs, e.Vectors), nil
}

// LambdaMaxSymBuf estimates the largest eigenvalue of a symmetric
// positive semidefinite matrix by power iteration. The estimate
// converges from below; callers needing a certified upper bound should
// add a small safety factor. x and y are caller-provided length-n
// scratch vectors, so iterative solvers can re-estimate spectral norms
// without allocating; they must not alias.
func LambdaMaxSymBuf(a *Dense, iters int, x, y []float64) float64 {
	n := a.Rows()
	if n == 0 {
		return 0
	}
	if len(x) != n || len(y) != n {
		panic(fmt.Sprintf("mat: LambdaMaxSymBuf scratch lengths %d,%d, need %d", len(x), len(y), n))
	}
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(n))
	}
	lam := 0.0
	for it := 0; it < iters; it++ {
		MulVecTo(y, a, x)
		ny := VecNorm2(y)
		if ny == 0 {
			return 0
		}
		for i := range y {
			y[i] /= ny
		}
		x, y = y, x
		if math.Abs(ny-lam) <= 1e-10*ny {
			return ny
		}
		lam = ny
	}
	return lam
}

// ProjectPSD returns the projection of the symmetric matrix a onto the
// cone {M : M ⪰ floor·I}: eigenvalues below floor are raised to floor.
// It is the projection step of the matrix mechanism's SPG solver.
func ProjectPSD(a *Dense, floor float64) (*Dense, error) {
	e, err := FactorSymEig(a)
	if err != nil {
		return nil, err
	}
	n := len(e.Values)
	vs := e.Vectors.Clone()
	for i := 0; i < n; i++ {
		row := vs.RawRow(i)
		for j := 0; j < n; j++ {
			lam := e.Values[j]
			if lam < floor {
				lam = floor
			}
			row[j] *= lam
		}
	}
	return MulABt(vs, e.Vectors), nil
}
