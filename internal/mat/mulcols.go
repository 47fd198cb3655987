package mat

// MulColsTo stores the product a·b into dst, like MulTo, with one extra
// guarantee that MulTo does not make: every column j of the result is
// bit-identical to the matrix-vector product MulVecTo(·, a, b column j).
//
// It exists for multi-RHS answering paths (mechanism.BatchAnswerer) whose
// contract is "AnswerMany equals looping Answer per data vector, bit for
// bit". Answer paths compute with MulVecTo — a plain dot product per
// output element, separate multiply and add in ascending k — so the
// batched product must round identically. The default AVX2+FMA
// micro-kernel does not (fused multiply-add skips the intermediate
// rounding), so MulColsTo runs the full cache-blocked packed pipeline —
// panel packing, the fixed tile grid, pool scheduling, deterministic
// k-order — with the mul+add kernel family instead: a vectorized AVX
// kernel whose every step is a separate VMULPD and VADDPD on capable
// hardware (gemm_amd64.s), the scalar kernels elsewhere, both rounding
// exactly like the dot product. The cost over MulTo is one extra µop per
// madd; the win over a loop of MulVecTo calls is the same as any GEMM's:
// the right operand is packed once instead of re-streamed per column,
// and the register blocking keeps many accumulator chains in flight
// where a dot product has one.
//
// dst must not alias a or b, and must already be a.Rows()×b.Cols().
func MulColsTo(dst, a, b *Dense) *Dense {
	return MulColsEpiTo(dst, a, b, nil)
}

// MulColsEpiTo is MulColsTo with a fused per-tile epilogue: epi (when
// non-nil) runs once per scheduler tile as soon as that tile's output
// rectangle is complete, while the block is still cache-hot — instead of
// the caller making a second sweep over dst afterwards. Across the
// product the epilogue observes every element of dst exactly once (the
// tile grid partitions the output); it may run concurrently for disjoint
// rectangles and on any goroutine, so it must not assume order.
//
// An epilogue that applies a per-element update whose value does not
// depend on tile order (adding a precomputed noise matrix, scaling,
// clamping) preserves both of MulColsTo's contracts: column-exactness of
// the product underneath, and bit-identical results across worker
// counts. This is how core.Mechanism.AnswerMany fuses its Laplace-noise
// pass into the GEMM that produces the intermediate.
//
// A single-column b runs as MulVecTo — the very product the column-exact
// contract promises — instead of a GEMM panel padded to eight columns;
// the epilogue then runs once over the whole m×1 result and still counts
// as one fused product.
func MulColsEpiTo(dst, a, b *Dense, epi TileEpilogue) *Dense {
	if a.cols != b.rows {
		dimPanic("MulColsTo", a, b)
	}
	checkShape("MulColsTo", dst, a.rows, b.cols)
	noAlias("MulColsTo", dst, a)
	noAlias("MulColsTo", dst, b)
	if b.cols == 1 {
		MulVecTo(dst.data, a, b.data)
		if epi != nil {
			fusedEpilogueRuns.Add(1)
			if a.rows > 0 {
				epi(0, a.rows, 0, 1)
			}
		}
		return dst
	}
	gemmMain(dst, a.rows, b.cols, a.cols,
		aView{data: a.data, row: a.cols, k: 1},
		b.data, b.cols, 1, false, true, epi)
	return dst
}

// MulCols is the allocating form of MulColsTo.
func MulCols(a, b *Dense) *Dense {
	if a.cols != b.rows {
		dimPanic("MulCols", a, b)
	}
	return MulColsTo(New(a.rows, b.cols), a, b)
}
