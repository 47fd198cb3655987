package mat

import (
	"errors"
	"math"
)

// ErrNotSPD is returned when a Cholesky factorization is attempted on a
// matrix that is not symmetric positive definite.
var ErrNotSPD = errors.New("mat: matrix is not symmetric positive definite")

// Cholesky holds the lower-triangular factor of A = L·Lᵀ.
type Cholesky struct {
	l *Dense
}

// FactorCholeskyTo computes the Cholesky factorization of a symmetric
// positive definite matrix into caller-provided n×n factor storage, so
// hot loops can refactor without allocating. Only the lower triangle of
// a is read. dst must not alias a; the returned Cholesky wraps dst and
// is valid until dst is next reused.
func FactorCholeskyTo(dst, a *Dense) (*Cholesky, error) {
	if err := factorCholeskyInto(dst, a); err != nil {
		return nil, err
	}
	return &Cholesky{l: dst}, nil
}

// factorCholeskyInto writes the lower-triangular factor of a into dst
// without allocating (the value-typed Cholesky{l: dst} wrapper stays on
// the caller's stack).
func factorCholeskyInto(dst, a *Dense) error {
	if a.rows != a.cols {
		return errors.New("mat: FactorCholeskyTo needs a square matrix")
	}
	checkShape("FactorCholeskyTo", dst, a.rows, a.rows)
	noAlias("FactorCholeskyTo", dst, a)
	n := a.rows
	l := dst
	zero(l.data)
	for j := 0; j < n; j++ {
		var d float64 = a.data[j*n+j]
		lrowj := l.RawRow(j)
		for k := 0; k < j; k++ {
			d -= lrowj[k] * lrowj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotSPD
		}
		ljj := math.Sqrt(d)
		lrowj[j] = ljj
		inv := 1 / ljj
		for i := j + 1; i < n; i++ {
			lrowi := l.RawRow(i)
			s := a.data[i*n+j]
			for k := 0; k < j; k++ {
				s -= lrowi[k] * lrowj[k]
			}
			lrowi[j] = s * inv
		}
	}
	return nil
}

// L returns a copy of the lower-triangular factor.
func (c *Cholesky) L() *Dense { return c.l.Clone() }

// SolveVec solves A·x = b using the factorization.
func (c *Cholesky) SolveVec(b []float64) ([]float64, error) {
	n := c.l.rows
	if len(b) != n {
		return nil, errors.New("mat: Cholesky SolveVec length mismatch")
	}
	x := make([]float64, n)
	copy(x, b)
	c.solveVecInPlace(x)
	return x, nil
}

// solveVecInPlace overwrites x with A⁻¹·x. Both triangular sweeps write
// each element after its last read, so no scratch is needed.
func (c *Cholesky) solveVecInPlace(x []float64) {
	n := c.l.rows
	// Forward: L·y = b.
	for i := 0; i < n; i++ {
		row := c.l.RawRow(i)
		s := x[i]
		for k := 0; k < i; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s / row[i]
	}
	// Backward: Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= c.l.data[k*n+i] * x[k]
		}
		x[i] = s / c.l.data[i*n+i]
	}
}

// Solve solves A·X = B using the factorization.
func (c *Cholesky) Solve(b *Dense) (*Dense, error) {
	n := c.l.rows
	if b.rows != n {
		return nil, errors.New("mat: Cholesky Solve dimension mismatch")
	}
	x := New(n, b.cols)
	for j := 0; j < b.cols; j++ {
		col, err := c.SolveVec(b.Col(j))
		if err != nil {
			return nil, err
		}
		x.SetCol(j, col)
	}
	return x, nil
}

// SolveRightSPDTo solves X·A = B for symmetric positive definite A, i.e.
// X = B·A⁻¹, by solving Aᵀ·Xᵀ = Bᵀ and exploiting A's symmetry — the
// operation the paper's closed-form B-update (Eq. 9) needs. It writes X
// into dst (shaped like b) with caller-provided n×n Cholesky factor
// storage lwork, performing no allocation. dst may be b itself (rows are solved in place), but a dst
// that only partially overlaps b's storage panics — the skipped copy
// would read half-corrupted rows. lwork must not overlap any other
// argument (the factorization would scribble over it mid-solve).
func SolveRightSPDTo(dst, b, a, lwork *Dense) error {
	if b.cols != a.rows {
		return errors.New("mat: SolveRightSPDTo dimension mismatch")
	}
	checkShape("SolveRightSPDTo", dst, b.rows, b.cols)
	if sharesStorage(lwork, a) || sharesStorage(lwork, b) || sharesStorage(lwork, dst) {
		panic("mat: SolveRightSPDTo lwork overlaps an operand")
	}
	inPlace := dst == b || (len(dst.data) > 0 && len(b.data) > 0 && &dst.data[0] == &b.data[0])
	if !inPlace && sharesStorage(dst, b) {
		panic("mat: SolveRightSPDTo destination partially overlaps b")
	}
	if err := factorCholeskyInto(lwork, a); err != nil {
		return err
	}
	c := Cholesky{l: lwork}
	for i := 0; i < b.rows; i++ {
		row := dst.RawRow(i)
		if !inPlace {
			copy(row, b.RawRow(i))
		}
		c.solveVecInPlace(row)
	}
	return nil
}
