package mat

import "math"

// Trace returns the sum of diagonal entries of a square matrix.
func Trace(a *Dense) float64 {
	if a.rows != a.cols {
		panic("mat: Trace of non-square matrix")
	}
	var s float64
	for i := 0; i < a.rows; i++ {
		s += a.data[i*a.cols+i]
	}
	return s
}

// TraceMul returns tr(a·b) = Σᵢⱼ aᵢⱼ·bⱼᵢ without forming the product,
// turning an O(n³) trace-of-product into O(n²).
func TraceMul(a, b *Dense) float64 {
	if a.cols != b.rows || a.rows != b.cols {
		panic("mat: TraceMul needs a (m×n)·(n×m) pair")
	}
	var s float64
	for i := 0; i < a.rows; i++ {
		row := a.RawRow(i)
		for j, v := range row {
			s += v * b.data[j*b.cols+i]
		}
	}
	return s
}

// FrobeniusNorm returns ‖a‖_F = sqrt(Σ aᵢⱼ²).
func FrobeniusNorm(a *Dense) float64 {
	return math.Sqrt(SquaredSum(a))
}

// SquaredSum returns Σ aᵢⱼ², the squared Frobenius norm. This is the
// paper's query scale Φ(B,L) when applied to B (Definition 1).
func SquaredSum(a *Dense) float64 {
	var s float64
	for _, v := range a.data {
		s += v * v
	}
	return s
}

// MaxColAbsSum returns max_j Σᵢ |aᵢⱼ|, the induced L1 operator norm.
// Applied to a strategy matrix L this is the paper's query sensitivity
// Δ(B,L) (Definition 2).
func MaxColAbsSum(a *Dense) float64 {
	if a.cols == 0 {
		return 0
	}
	sums := make([]float64, a.cols)
	for i := 0; i < a.rows; i++ {
		row := a.RawRow(i)
		for j, v := range row {
			sums[j] += math.Abs(v)
		}
	}
	best := sums[0]
	for _, v := range sums[1:] {
		if v > best {
			best = v
		}
	}
	return best
}

// MaxAbs returns max |aᵢⱼ|.
func MaxAbs(a *Dense) float64 {
	var best float64
	for _, v := range a.data {
		if av := math.Abs(v); av > best {
			best = av
		}
	}
	return best
}

// VecNorm2 returns the Euclidean norm of x.
func VecNorm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// VecDot returns the dot product of x and y.
func VecDot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("mat: VecDot length mismatch")
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// SpectralNorm returns ‖a‖₂, the largest singular value, estimated by
// power iteration on aᵀa. It is accurate to about 1e-10 relative error
// for well-separated spectra and is used only for diagnostics.
func SpectralNorm(a *Dense) float64 {
	if a.rows == 0 || a.cols == 0 {
		return 0
	}
	x := make([]float64, a.cols)
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(len(x)))
	}
	var sigma float64
	for iter := 0; iter < 200; iter++ {
		y := MulVec(a, x)
		z := MulVecT(a, y)
		nz := VecNorm2(z)
		if nz == 0 {
			return 0
		}
		for i := range z {
			z[i] /= nz
		}
		newSigma := math.Sqrt(nz)
		x = z
		if math.Abs(newSigma-sigma) <= 1e-12*newSigma {
			sigma = newSigma
			break
		}
		sigma = newSigma
	}
	return sigma
}
