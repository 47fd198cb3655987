package mat

import (
	"errors"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters an
// (effectively) singular matrix.
var ErrSingular = errors.New("mat: matrix is singular")

// LU holds an LU factorization with partial pivoting: P·A = L·U.
type LU struct {
	lu    *Dense // packed L (unit lower) and U
	pivot []int  // row permutation
}

// FactorLU computes the LU factorization of the square matrix a with
// partial pivoting.
func FactorLU(a *Dense) (*LU, error) {
	if a.rows != a.cols {
		return nil, errors.New("mat: FactorLU needs a square matrix")
	}
	n := a.rows
	lu := a.Clone()
	pivot := make([]int, n)
	for k := 0; k < n; k++ {
		// Find pivot row.
		p := k
		maxAbs := math.Abs(lu.data[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.data[i*n+k]); v > maxAbs {
				maxAbs = v
				p = i
			}
		}
		pivot[k] = p
		if maxAbs == 0 {
			return nil, ErrSingular
		}
		if p != k {
			rk, rp := lu.RawRow(k), lu.RawRow(p)
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
		}
		inv := 1 / lu.data[k*n+k]
		for i := k + 1; i < n; i++ {
			lik := lu.data[i*n+k] * inv
			lu.data[i*n+k] = lik
			if lik == 0 {
				continue
			}
			rowi := lu.RawRow(i)
			rowk := lu.RawRow(k)
			for j := k + 1; j < n; j++ {
				rowi[j] -= lik * rowk[j]
			}
		}
	}
	return &LU{lu: lu, pivot: pivot}, nil
}

// SolveVec solves A·x = b for x.
func (f *LU) SolveVec(b []float64) ([]float64, error) {
	n := f.lu.rows
	if len(b) != n {
		return nil, errors.New("mat: LU SolveVec length mismatch")
	}
	x := make([]float64, n)
	copy(x, b)
	// Apply the row permutation first (the factorization swaps whole rows,
	// so the stored L refers to fully permuted row positions), then
	// forward-substitute the unit lower factor.
	for k := 0; k < n; k++ {
		if p := f.pivot[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			x[i] -= f.lu.data[i*n+k] * x[k]
		}
	}
	// Back-substitute U.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.RawRow(i)
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		d := row[i]
		if d == 0 {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// Solve solves A·X = B column-by-column.
func (f *LU) Solve(b *Dense) (*Dense, error) {
	n := f.lu.rows
	if b.rows != n {
		return nil, errors.New("mat: LU Solve dimension mismatch")
	}
	x := New(n, b.cols)
	for j := 0; j < b.cols; j++ {
		col, err := f.SolveVec(b.Col(j))
		if err != nil {
			return nil, err
		}
		x.SetCol(j, col)
	}
	return x, nil
}

// Inverse returns A⁻¹ for a square nonsingular matrix.
func Inverse(a *Dense) (*Dense, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(Eye(a.rows))
}

// Solve solves A·X = B for square nonsingular A.
func Solve(a, b *Dense) (*Dense, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// SolveVec solves A·x = b for square nonsingular A.
func SolveVec(a *Dense, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.SolveVec(b)
}
