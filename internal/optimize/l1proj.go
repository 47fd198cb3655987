// Package optimize provides the optimization substrate shared by the
// Low-Rank Mechanism and the matrix mechanism: Euclidean projection onto
// the L1 ball (Duchi et al., ICML 2008), Nesterov's accelerated projected
// gradient with backtracking (Algorithm 2 of the paper), a plain projected
// gradient baseline for ablations, the nonmonotone spectral projected
// gradient of Birgin–Martínez–Raydan (used by Appendix B's matrix
// mechanism), and a smoothed max via log-sum-exp.
package optimize

import (
	"math"
	"sort"
)

// ProjectL1Ball projects x in place onto the L1 ball of the given radius:
// the Euclidean-nearest point v with ‖v‖₁ ≤ radius. If x is already
// feasible it is returned unchanged. This is the sort-based O(n log n)
// algorithm of Duchi et al.; see ProjectL1BallPivot for the O(n) expected
// variant.
func ProjectL1Ball(x []float64, radius float64) {
	if radius < 0 {
		panic("optimize: negative L1 radius")
	}
	var norm float64
	for _, v := range x {
		norm += math.Abs(v)
	}
	if norm <= radius {
		return
	}
	if radius == 0 {
		for i := range x {
			x[i] = 0
		}
		return
	}
	// Find the soft threshold theta such that Σ max(|xᵢ|−θ, 0) = radius.
	mags := make([]float64, len(x))
	for i, v := range x {
		mags[i] = math.Abs(v)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(mags)))
	var cum float64
	rho := -1
	var cumAtRho float64
	for i, m := range mags {
		cum += m
		if m-(cum-radius)/float64(i+1) > 0 {
			rho = i
			cumAtRho = cum
		}
	}
	theta := (cumAtRho - radius) / float64(rho+1)
	softThreshold(x, theta)
}

// ProjectL1BallPivot is the expected-O(n) randomized-pivot variant of
// ProjectL1Ball. It produces the same projection (up to roundoff) and is
// benchmarked against the sort-based version as an ablation.
func ProjectL1BallPivot(x []float64, radius float64) {
	if radius < 0 {
		panic("optimize: negative L1 radius")
	}
	var norm float64
	for _, v := range x {
		norm += math.Abs(v)
	}
	if norm <= radius {
		return
	}
	if radius == 0 {
		for i := range x {
			x[i] = 0
		}
		return
	}
	projectL1BallPivotBuf(x, radius, make([]float64, len(x)))
}

// projectL1BallPivotBuf is ProjectL1BallPivot with caller-provided
// magnitude scratch (len(x)); the feasibility fast path has already been
// taken by the caller.
func projectL1BallPivotBuf(x []float64, radius float64, mags []float64) {
	for i, v := range x {
		mags[i] = math.Abs(v)
	}
	theta := findTheta(mags, radius)
	softThreshold(x, theta)
}

// findTheta computes the soft threshold by quickselect-style partitioning,
// consuming mags (it is reordered).
func findTheta(mags []float64, radius float64) float64 {
	lo, hi := 0, len(mags)
	// Invariant state: sum and count of elements known to be above the
	// threshold (those partitioned off to the left of lo).
	var sumAbove float64
	var cntAbove int
	// Deterministic median-of-three pivoting is enough here; adversarial
	// inputs are not a concern and it keeps the routine reproducible.
	for lo < hi {
		pivot := medianOfThree(mags[lo], mags[(lo+hi)/2], mags[hi-1])
		// Partition [lo,hi) into > pivot, == pivot, < pivot (Dutch flag).
		i, j, k := lo, lo, hi
		for j < k {
			switch {
			case mags[j] > pivot:
				mags[i], mags[j] = mags[j], mags[i]
				i++
				j++
			case mags[j] < pivot:
				k--
				mags[j], mags[k] = mags[k], mags[j]
			default:
				j++
			}
		}
		// [lo,i) > pivot; [i,j) == pivot; [j,hi) < pivot.
		var sumGT float64
		for t := lo; t < i; t++ {
			sumGT += mags[t]
		}
		nGT := i - lo
		nEQ := j - i
		// If threshold were pivot, the active set would be everything > or
		// == pivot seen so far.
		sumIfEq := sumAbove + sumGT + float64(nEQ)*pivot
		cntIfEq := cntAbove + nGT + nEQ
		thetaIfEq := (sumIfEq - radius) / float64(cntIfEq)
		if thetaIfEq < pivot {
			// Threshold is below pivot: all of [lo,j) stays active;
			// continue in the < pivot region.
			sumAbove = sumIfEq
			cntAbove = cntIfEq
			lo = j
		} else {
			// Threshold is at or above pivot: active set is within > pivot.
			hi = i
		}
	}
	if cntAbove == 0 {
		// Degenerate (radius >= norm was excluded, so this cannot happen
		// with exact arithmetic); fall back to the largest magnitude.
		return 0
	}
	return (sumAbove - radius) / float64(cntAbove)
}

func medianOfThree(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// softThreshold applies sign(xᵢ)·max(|xᵢ|−θ, 0) in place.
func softThreshold(x []float64, theta float64) {
	for i, v := range x {
		m := math.Abs(v) - theta
		if m <= 0 {
			x[i] = 0
		} else if v > 0 {
			x[i] = m
		} else {
			x[i] = -m
		}
	}
}

// ProjectColumnsL1 projects every column of the r×n matrix stored
// row-major in data onto the L1 ball of the given radius. This implements
// Formula (11) of the paper: the constraint set of the L-subproblem
// decouples into per-column L1 balls.
func ProjectColumnsL1(data []float64, rows, cols int, radius float64) {
	ProjectColumnsL1Buf(data, rows, cols, radius, make([]float64, 2*rows+cols))
}

// ProjectColumnsL1Buf is ProjectColumnsL1 with caller-provided scratch of
// length at least 2·rows + cols, so the inner solver's projection step
// (run once per iteration on every column) performs no allocation.
//
// The column L1 norms come from one row-major pass over data; each is
// still summed in ascending row order, exactly as a per-column walk
// would. Only the infeasible columns are then gathered, projected and
// scattered back, so an all-feasible matrix costs that one pass.
func ProjectColumnsL1Buf(data []float64, rows, cols int, radius float64, scratch []float64) {
	if radius < 0 {
		panic("optimize: negative L1 radius")
	}
	if len(scratch) < 2*rows+cols {
		panic("optimize: ProjectColumnsL1Buf scratch shorter than 2*rows+cols")
	}
	col := scratch[:rows]
	mags := scratch[rows : 2*rows]
	norms := scratch[2*rows : 2*rows+cols]
	clear(norms)
	for i := 0; i < rows; i++ {
		row := data[i*cols : (i+1)*cols]
		norms := norms[:len(row)]
		for j, v := range row {
			norms[j] += math.Abs(v)
		}
	}
	for j, norm := range norms {
		if norm <= radius {
			continue // already feasible; nothing to write back
		}
		if radius == 0 {
			for i := 0; i < rows; i++ {
				data[i*cols+j] = 0
			}
			continue
		}
		for i := range col {
			col[i] = data[i*cols+j]
		}
		// The pivot-based projection avoids the per-column sort; this
		// routine runs once per inner-solver iteration on every column.
		projectL1BallPivotBuf(col, radius, mags)
		for i, v := range col {
			data[i*cols+j] = v
		}
	}
}

// SmoothMax returns the log-sum-exp smooth approximation of max(v):
// fμ(v) = max(v) + μ·log Σ exp((vᵢ−max(v))/μ). It satisfies
// max(v) ≤ fμ(v) ≤ max(v) + μ·log n (Eq. 14 of the paper's Appendix B,
// in the numerically stable form).
func SmoothMax(v []float64, mu float64) float64 {
	if len(v) == 0 {
		return math.Inf(-1)
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	var sum float64
	for _, x := range v {
		sum += math.Exp((x - m) / mu)
	}
	return m + mu*math.Log(sum)
}

// SmoothMaxGrad writes the gradient of SmoothMax into grad:
// ∂f/∂vᵢ = exp((vᵢ−max)/μ) / Σⱼ exp((vⱼ−max)/μ) (Eq. 15, stable form).
func SmoothMaxGrad(v []float64, mu float64, grad []float64) {
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	var sum float64
	for i, x := range v {
		e := math.Exp((x - m) / mu)
		grad[i] = e
		sum += e
	}
	for i := range grad {
		grad[i] /= sum
	}
}
