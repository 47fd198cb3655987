// Package bad holds aliasguard want-diagnostic fixtures: every call
// below passes the same variable or field chain as both destination and
// a forbidden operand.
package bad

import "lrm/internal/mat"

type state struct {
	work *mat.Dense
}

func product(a, dst *mat.Dense) *mat.Dense {
	return mat.MulTo(dst, a, dst) // want `destination dst aliases operand 2`
}

func gram(g *mat.Dense) *mat.Dense {
	return mat.GramTo(g, g) // want `destination g aliases operand 1`
}

func fieldChain(s *state, b *mat.Dense) *mat.Dense {
	return mat.MulTo(s.work, s.work, b) // want `destination s\.work aliases operand 1`
}

func batched(dst, b *mat.Dense) *mat.Dense {
	return mat.MulEpiTo(dst, dst, b, nil) // want `destination dst aliases operand 1`
}

func vec(dst []float64, a *mat.Dense) []float64 {
	return mat.MulVecTo(dst, a, dst) // want `destination dst aliases operand 2`
}

func solveAliasedSystem(b, lwork *mat.Dense) error {
	return mat.SolveRightSPDTo(b, b, b, lwork) // want `destination b aliases operand 2`
}
