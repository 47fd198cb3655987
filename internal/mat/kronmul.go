package mat

import "fmt"

// Kronecker mat-vec without the Kronecker matrix. (F₁⊗…⊗F_d)·x costs
// Π nᵢ · Σ mᵢ·… flops if the product matrix exists — but the product
// never needs to exist: viewing x as a d-mode tensor, the product is d
// mode multiplications, each a small GEMM against one factor. Total
// cost is Σᵢ (stage size)·mᵢ and memory is two stage buffers, which is
// what lets a 10¹²-cell workload answer in milliseconds.

// KronStages returns the maximum intermediate vector length reached
// while applying the given (rows, cols) factor sequence trailing-mode
// first, starting from a Π cols input. It errors if any stage
// overflows.
func KronStages(dims [][2]int) (maxStage int, err error) {
	size := 1
	for _, d := range dims {
		size, err = checkedMul(size, d[1])
		if err != nil {
			return 0, err
		}
	}
	maxStage = size
	for i := len(dims) - 1; i >= 0; i-- {
		size = size / dims[i][1]
		size, err = checkedMul(size, dims[i][0])
		if err != nil {
			return 0, err
		}
		if size > maxStage {
			maxStage = size
		}
	}
	return maxStage, nil
}

func checkedMul(a, b int) (int, error) {
	const maxKronSize = 1 << 40
	if b != 0 && a > maxKronSize/b {
		return 0, fmt.Errorf("mat: kron stage size %d×%d overflows the %d cap", a, b, maxKronSize)
	}
	return a * b, nil
}

// KronMulTo computes dst = (F₁ ⊗ … ⊗ F_d)·x by mode products: the state
// starts as x viewed as a (Π nⱼ/n_d)×n_d tensor unfolding; each step
// multiplies the trailing mode by its factor (one GEMM, out = state·Fᵢᵀ)
// and rotates the next mode into trailing position by a transpose. After
// all d steps the state is the output tensor in row-major order.
//
// dst must have length Π Fᵢ.Rows(); x length Π Fᵢ.Cols(); scratch at
// least twice the largest stage size KronStages reports. dst, x, and scratch must not overlap.
// The factor list must be non-empty. Returns dst.
//
//lrm:noalloc — two header reuses per mode, all data in caller scratch
func KronMulTo(dst []float64, factors []*Dense, x []float64, scratch []float64) []float64 {
	m, n := 1, 1
	for _, f := range factors {
		m *= f.Rows()
		n *= f.Cols()
	}
	if len(dst) < m || len(x) < n {
		panic(fmt.Sprintf("mat: KronMulTo dst %d / x %d for a %d×%d product", len(dst), len(x), m, n))
	}
	half := len(scratch) / 2
	a, b := scratch[:half], scratch[half:]
	size := n
	copy(a[:size], x[:size])
	var in, out, tr Dense
	for i := len(factors) - 1; i >= 0; i-- {
		f := factors[i]
		rows := size / f.Cols()
		in.Reuse(rows, f.Cols(), a[:size])
		size = rows * f.Rows()
		out.Reuse(rows, f.Rows(), b[:size])
		MulABtTo(&out, &in, f)
		// Rotate: (rows × mᵢ) → (mᵢ × rows), landing back in a.
		tr.Reuse(f.Rows(), rows, a[:size])
		TransposeTo(&tr, &out)
	}
	copy(dst[:m], a[:m])
	return dst
}
