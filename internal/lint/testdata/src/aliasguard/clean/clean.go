// Package clean holds aliasguard fixtures that must produce no
// diagnostics: distinct operands, kernels that permit aliasing, and the
// dst/b aliasing that SolveRightSPDTo explicitly supports.
package clean

import "lrm/internal/mat"

func product(a, b, dst *mat.Dense) *mat.Dense {
	return mat.MulTo(dst, a, b)
}

// batched writes dst from its own epilogue, which the contract allows:
// only the factors must stay distinct from dst.
func batched(a, b, dst *mat.Dense) *mat.Dense {
	return mat.MulEpiTo(dst, a, b, func(r0, r1, c0, c1 int) {
		dst.Set(r0, c0, dst.At(r0, c0)+1)
	})
}

// accumulate aliases dst with an operand of AddTo, which is an
// element-wise kernel outside the aliasing contract.
func accumulate(dst, a *mat.Dense) *mat.Dense {
	return mat.AddTo(dst, dst, a)
}

// solveInPlace overwrites b with the solution, the documented in-place
// form of SolveRightSPDTo: dst may alias b, just not the system matrix
// or the scratch.
func solveInPlace(b, sys, lwork *mat.Dense) error {
	return mat.SolveRightSPDTo(b, b, sys, lwork)
}
