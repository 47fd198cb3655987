package mechanism

import (
	"fmt"

	"lrm/internal/mat"
	"lrm/internal/privacy"
	"lrm/internal/rng"
)

// AnswerMany is the universal multi-RHS answering entry point: it routes
// through the Prepared's own BatchAnswerer implementation when it has one
// and otherwise falls back to answering column by column. Either way the
// result draws the noise that looping Answer over the columns of x with
// the same source draws, in the same order, and equals that loop to
// within floating-point rounding (the BatchAnswerer contract; the
// fallback is that loop).
//
// x is n×B — one histogram per column — and the result is m×B.
func AnswerMany(p Prepared, x *mat.Dense, eps privacy.Epsilon, src *rng.Source) (*mat.Dense, error) {
	if err := eps.Validate(); err != nil {
		return nil, err
	}
	if ba, ok := p.(BatchAnswerer); ok {
		return ba.AnswerMany(x, eps, src)
	}
	return AnswerManyLoop(p, x, eps, src)
}

// AnswerManyLoop answers the columns of x one at a time through
// p.Answer, stacking the releases as columns of the result. It is the
// fallback for mechanisms without a native multi-RHS path and the
// reference every BatchAnswerer must reproduce: the same noise draws in
// the same order, each column equal to within floating-point rounding.
func AnswerManyLoop(p Prepared, x *mat.Dense, eps privacy.Epsilon, src *rng.Source) (*mat.Dense, error) {
	if err := eps.Validate(); err != nil {
		return nil, err
	}
	n, cols := x.Dims()
	if cols == 0 {
		return nil, fmt.Errorf("mechanism: AnswerMany with no data columns")
	}
	col := make([]float64, n)
	var out *mat.Dense
	for j := 0; j < cols; j++ {
		for i := 0; i < n; i++ {
			col[i] = x.At(i, j)
		}
		a, err := p.Answer(col, eps, src)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = mat.New(len(a), cols)
		}
		out.SetCol(j, a)
	}
	return out, nil
}

// checkBatchShape validates the data matrix of an AnswerMany call against
// the mechanism's domain.
func checkBatchShape(x *mat.Dense, domain int) error {
	if x == nil {
		return fmt.Errorf("mechanism: nil data matrix")
	}
	if x.Rows() != domain {
		return fmt.Errorf("mechanism: data matrix has %d rows, domain is %d", x.Rows(), domain)
	}
	if x.Cols() == 0 {
		return fmt.Errorf("mechanism: AnswerMany with no data columns")
	}
	return nil
}
