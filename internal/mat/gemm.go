package mat

import "sync/atomic"

// Cache-blocked packed GEMM. Every dense product in the package (Mul,
// MulABt, MulAtB, Gram, GramTTo, multi-column MulEpiTo) funnels into
// gemmMain, which:
//
//  1. packs the right-hand operand once per product into gemmNR-wide
//     column panels (contiguous k-major strips, so the micro-kernel
//     streams B with unit stride regardless of the operand's original
//     orientation — including transposed views, which pack for free),
//  2. walks a fixed grid of gemmTileRows×gemmTileCols output tiles whose
//     working set (one packed panel + gemmMR operand rows) stays L1/L2
//     resident, and
//  3. computes each tile with a register-blocked micro-kernel of the
//     widest tier the host enables (gemmtier.go): the AVX-512 8×8
//     kernel on capable amd64 machines (gemm_avx512_amd64.s), the
//     AVX2+FMA 4×8 kernel (gemm_amd64.s), the NEON 4×8 kernel on arm64
//     (gemm_arm64.s), or scalar 4×4 blocks when no assembly tier applies.
//
// The left operand is addressed through an aView — two element strides
// over the backing slice — so one driver serves A, Aᵀ (MulAtB, Gram) and
// the symmetric kernels without materializing a transpose.
//
// Small serial A·B and Aᵀ·B products with full panels skip step 1:
// gemmDirect runs the same kernels and row blocking on the unpacked
// right operand.
//
// Determinism: the panel/tile grid and the kernel choice are pure
// functions of the operand shapes, each output element is written by
// exactly one tile, and every kernel accumulates in ascending k. Results
// are therefore bit-identical whether the tile grid runs serially or on
// any number of pool workers — the property the serial-vs-parallel
// equality tests pin.

const (
	gemmMR       = 4   // 4-row micro-kernel rows
	gemmMR8      = 8   // 8-row micro-kernel rows (the AVX-512 tier)
	gemmNR       = 8   // packed panel width (micro-kernel cols)
	gemmTileRows = 64  // output rows per scheduler tile (multiple of gemmMR8)
	gemmTileCols = 256 // output cols per scheduler tile (multiple of gemmNR)
	packChunk    = 16  // panels packed per scheduler tile
)

// aView addresses the left GEMM operand: element A(i,t) of the m×k
// operand lives at data[i*row + t*k]. (row=cols, k=1) walks a row-major
// matrix; (row=1, k=cols) walks its transpose in place.
type aView struct {
	data []float64
	row  int
	k    int
}

// packPanel packs panel p of the k×n right operand into dst. The operand
// is addressed as B(t,j) = src[t*rowStride + j*colStride], so a
// transposed right operand (MulABt, GramTTo) packs by passing swapped
// strides. Partial trailing panels are zero-padded to gemmNR so the
// micro-kernels never branch on width.
//
//lrm:noalloc — packs into the pooled panel buffer, called per tile
func packPanel(dst, src []float64, k, n, rowStride, colStride, p int) {
	j0 := p * gemmNR
	pw := n - j0
	if pw > gemmNR {
		pw = gemmNR
	}
	o := p * k * gemmNR
	if colStride == 1 && pw == gemmNR {
		for t := 0; t < k; t++ {
			base := t*rowStride + j0
			copy(dst[o:o+gemmNR], src[base:base+gemmNR])
			o += gemmNR
		}
		return
	}
	for t := 0; t < k; t++ {
		base := t*rowStride + j0*colStride
		for jj := 0; jj < pw; jj++ {
			dst[o+jj] = src[base+jj*colStride]
		}
		for jj := pw; jj < gemmNR; jj++ {
			dst[o+jj] = 0
		}
		o += gemmNR
	}
}

// gemmAsmKernel is the signature of the assembly micro-kernels (4×8 and
// 8×8 alike: the row count is the caller's contract, not the type's).
type gemmAsmKernel = func(k int64, a *float64, aRowStride, aKStride int64, bp *float64, bKStride int64, c *float64, cRowStride int64)

// TileEpilogue is a hook gemmMain runs once per scheduler tile, after
// the tile's output block is fully computed, with the tile's rectangle
// [r0,r1)×[c0,c1) in output coordinates. The grid partitions the output,
// so across a product the hook observes every element exactly once; it
// runs on whichever goroutine computed the tile, so it must be safe to
// call concurrently for disjoint rectangles. Because each element's
// value never depends on when its tile's epilogue runs, a per-element
// epilogue op keeps the bit-identical-across-worker-counts guarantee.
//
// This is the fusion point for answer-path noise: AnswerMany's Laplace
// perturbation of the intermediate runs inside the producing GEMM's
// tiles (see MulEpiTo) instead of as a second sweep over the matrix.
type TileEpilogue func(r0, r1, c0, c1 int)

// fusedEpilogueRuns counts gemmMain products that ran with a fused tile
// epilogue. Tests (and the CI fused-epilogue gate) difference it to
// prove the one-pass claim: the noise pass happened inside the GEMM, not
// as a separate sweep.
var fusedEpilogueRuns atomic.Uint64

// FusedEpilogueRuns returns the cumulative number of GEMM products
// computed with a fused tile epilogue in this process. The counter never
// resets.
func FusedEpilogueRuns() uint64 { return fusedEpilogueRuns.Load() }

// gemmMain computes dst = A·B (overwriting dst, which must be m×n with
// contiguous rows): A is the aView, B is addressed as
// B(t,j) = bdata[t*bRow + j*bCol]. With upperOnly, tiles strictly below
// the diagonal are skipped and per-panel row ranges are clipped to the
// triangle — callers mirror the result (the symmetric Gram kernels).
//
// epi, when non-nil, runs once per scheduler tile after the tile's
// output rectangle is complete (see TileEpilogue). Epilogues are not
// supported on the triangular (upperOnly) grids — no caller needs them
// there and the clipped per-panel row ranges would make the rectangle
// a lie.
//
// Products below parallelThreshold run the identical tile grid inline on
// the calling goroutine (no closures, no allocations — the ALM inner
// loop's zero-alloc pin depends on this); larger ones draw tiles from
// the persistent pool.
func gemmMain(dst *Dense, m, n, k int, av aView, bdata []float64, bRow, bCol int, upperOnly bool, epi TileEpilogue) {
	if epi != nil {
		if upperOnly {
			panic("mat: tile epilogue on a triangular grid")
		}
		fusedEpilogueRuns.Add(1)
	}
	if m <= 0 || n <= 0 {
		return
	}
	if k <= 0 {
		zero(dst.data)
		if epi != nil {
			epi(0, m, 0, n)
		}
		return
	}
	nPanels := (n + gemmNR - 1) / gemmNR
	packed := getPackBuf(nPanels * k * gemmNR)
	parallel := !serialWork(m * n * k)
	if parallel {
		chunks := (nPanels + packChunk - 1) / packChunk
		forEachTile(chunks, func(c int) {
			hi := min((c+1)*packChunk, nPanels)
			for p := c * packChunk; p < hi; p++ {
				packPanel(packed, bdata, k, n, bRow, bCol, p)
			}
		})
	} else {
		for p := 0; p < nPanels; p++ {
			packPanel(packed, bdata, k, n, bRow, bCol, p)
		}
	}

	tilePanels := gemmTileCols / gemmNR
	tR := (m + gemmTileRows - 1) / gemmTileRows
	tC := (nPanels + tilePanels - 1) / tilePanels
	cd, ldc := dst.data, dst.cols
	sel := selectKernels()
	if parallel {
		forEachTile(tR*tC, func(t int) {
			gemmTileRun(t, cd, ldc, m, n, k, av, packed, upperOnly, tC, sel, epi)
		})
	} else {
		for t := 0; t < tR*tC; t++ {
			gemmTileRun(t, cd, ldc, m, n, k, av, packed, upperOnly, tC, sel, epi)
		}
	}
	putPackBuf(packed)
}

// gemmTileRun computes scheduler tile t of the fixed grid: output rows
// [r0,r1) × panels [p0,p1). sel holds the selected assembly kernels —
// kern8 for 8-row blocks (the AVX-512 tier), kern4 for 4-row blocks —
// or nils to use the scalar kernels throughout. Row ranges shorter than
// a kernel's height fall through to the next narrower kernel, so which
// rows run fused-FMA vs scalar arithmetic is a function of the shape
// alone, identical in every asm tier — the property that keeps the
// tiers bit-compatible. epi, when non-nil, runs after the tile
// completes with its output rectangle.
//
//lrm:noalloc — the kernel dispatch: one scheduler tile, stack state only
func gemmTileRun(t int, cd []float64, ldc, m, n, k int, av aView, packed []float64, upperOnly bool, tC int, sel kernelSel, epi TileEpilogue) {
	tilePanels := gemmTileCols / gemmNR
	nPanels := (n + gemmNR - 1) / gemmNR
	r0 := (t / tC) * gemmTileRows
	r1 := min(r0+gemmTileRows, m)
	p0 := (t % tC) * tilePanels
	p1 := min(p0+tilePanels, nPanels)
	if upperOnly && min(p1*gemmNR, n) <= r0 {
		return // every column of this tile is left of the diagonal
	}
	for p := p0; p < p1; p++ {
		j0 := p * gemmNR
		pw := n - j0
		if pw > gemmNR {
			pw = gemmNR
		}
		rLim := r1
		if upperOnly {
			if lim := j0 + pw; lim < rLim {
				rLim = lim // rows below the panel's last column are sub-diagonal
			}
			if rLim <= r0 {
				continue
			}
		}
		gemmPanelRows(sel, k, av, r0, rLim, packed, p*k*gemmNR, gemmNR, cd, ldc, j0, pw)
	}
	if epi != nil {
		c1 := p1 * gemmNR
		if c1 > n {
			c1 = n
		}
		epi(r0, r1, p0*gemmNR, c1)
	}
}

// gemmPanelRows computes output rows [r0,rLim) × columns [j0,j0+pw) of
// one gemmNR-wide column panel whose step-t values B(t,j0:j0+gemmNR)
// start at bp[bOff+t*bK]: bK = gemmNR for a packed panel, the operand's
// row stride when the kernels read a row-major right operand in place
// (gemmDirect). The row blocking is a function of the row range alone:
// 8-row blocks when an 8-row kernel is selected and the range holds 8
// rows, else 4-row blocks, each with an overlapped rerun for the row
// tail; ranges shorter than 4 rows (and partial panels) take the scalar
// row kernels. So which rows run fused-FMA vs scalar arithmetic does not
// depend on where B lives.
//
//lrm:noalloc — the kernel dispatch: one panel, stack state only
func gemmPanelRows(sel kernelSel, k int, av aView, r0, rLim int, bp []float64, bOff, bK int, cd []float64, ldc, j0, pw int) {
	i := r0
	if pw == gemmNR {
		if rLim-r0 >= gemmMR8 && sel.kern8 != nil {
			for ; i+gemmMR8 <= rLim; i += gemmMR8 {
				sel.kern8(int64(k),
					&av.data[i*av.row], int64(av.row*8), int64(av.k*8),
					&bp[bOff], int64(bK*8),
					&cd[i*ldc+j0], int64(ldc*8))
			}
			if i < rLim {
				// Row tail: rerun the full micro-kernel on the last
				// gemmMR8 rows. The overlapped rows are rewritten with
				// bit-identical values (same panel, same k-order, same
				// goroutine), which is far cheaper than an elementwise
				// tail.
				i = rLim - gemmMR8
				sel.kern8(int64(k),
					&av.data[i*av.row], int64(av.row*8), int64(av.k*8),
					&bp[bOff], int64(bK*8),
					&cd[i*ldc+j0], int64(ldc*8))
				i = rLim
			}
		} else if rLim-r0 >= gemmMR {
			if sel.kern4 != nil {
				for ; i+gemmMR <= rLim; i += gemmMR {
					sel.kern4(int64(k),
						&av.data[i*av.row], int64(av.row*8), int64(av.k*8),
						&bp[bOff], int64(bK*8),
						&cd[i*ldc+j0], int64(ldc*8))
				}
				if i < rLim {
					// Same rerun trick at 4-row height.
					i = rLim - gemmMR
					sel.kern4(int64(k),
						&av.data[i*av.row], int64(av.row*8), int64(av.k*8),
						&bp[bOff], int64(bK*8),
						&cd[i*ldc+j0], int64(ldc*8))
					i = rLim
				}
			} else {
				for ; i+gemmMR <= rLim; i += gemmMR {
					gemmScalar4x4(k, av.data, i*av.row, av.row, av.k, bp, bOff, bK, cd, i*ldc+j0, ldc)
					gemmScalar4x4(k, av.data, i*av.row, av.row, av.k, bp, bOff+4, bK, cd, i*ldc+j0+4, ldc)
				}
				if i < rLim {
					i = rLim - gemmMR
					gemmScalar4x4(k, av.data, i*av.row, av.row, av.k, bp, bOff, bK, cd, i*ldc+j0, ldc)
					gemmScalar4x4(k, av.data, i*av.row, av.row, av.k, bp, bOff+4, bK, cd, i*ldc+j0+4, ldc)
					i = rLim
				}
			}
		} else {
			// Fewer than gemmMR rows in the whole range: 1×8 blocks.
			for ; i < rLim; i++ {
				gemmScalarRow8(k, av.data, i*av.row, av.k, bp, bOff, bK, cd, i*ldc+j0)
			}
		}
	}
	if i < rLim {
		gemmScalarTail(k, av.data, i*av.row, av.row, av.k, bp, bOff, bK, cd, i*ldc+j0, ldc, rLim-i, pw)
	}
}

// gemmDirect computes dst = A·B without packing B (row-major k×n, row
// stride n) and reports true, when the product runs serially in one row
// of scheduler tiles (m ≤ gemmTileRows), every panel is full (n a
// multiple of gemmNR) and an assembly family is selected. The kernels
// then read B in place with bK = n, through the same gemmPanelRows row
// blocking as gemmTileRun, so every element keeps its kernel and its
// ascending-k chain: the bits equal the packed product's. This is the
// shape of the ALM's per-Nesterov-step gradient (r×r by r×n), where
// packing was a copy of B on every step. Otherwise it does nothing and
// reports false, and the caller runs gemmMain.
//
// The branch lives in the epilogue-free entry points (mulInto,
// mulAtBInto), not in gemmMain, so the fused-epilogue path keeps one
// straight-line body.
//
//lrm:noalloc — the ALM inner loop's products run through here
func gemmDirect(dst *Dense, m, n, k int, av aView, bdata []float64) bool {
	if m <= 0 || m > gemmTileRows || n%gemmNR != 0 || k <= 0 || !serialWork(m*n*k) {
		return false
	}
	sel := selectKernels()
	if sel.kern4 == nil {
		return false
	}
	for j0 := 0; j0 < n; j0 += gemmNR {
		gemmPanelRows(sel, k, av, 0, m, bdata, j0, n, dst.data, dst.cols, j0, gemmNR)
	}
	return true
}

// gemmScalar4x4 is the portable micro-kernel: a 4×4 register block over
// four panel columns starting at bpOff, bK elements between k steps.
// Like the assembly kernel it overwrites its output block and
// accumulates each element in ascending k.
//
//lrm:noalloc — register-blocked micro-kernel
func gemmScalar4x4(k int, ad []float64, a0, aRow, aK int, bp []float64, bpOff, bK int, cd []float64, c0, ldc int) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	var c20, c21, c22, c23 float64
	var c30, c31, c32, c33 float64
	ai0, ai1, ai2, ai3 := a0, a0+aRow, a0+2*aRow, a0+3*aRow
	bo := bpOff
	for t := 0; t < k; t++ {
		b0, b1, b2, b3 := bp[bo], bp[bo+1], bp[bo+2], bp[bo+3]
		bo += bK
		av := ad[ai0]
		c00 += av * b0
		c01 += av * b1
		c02 += av * b2
		c03 += av * b3
		av = ad[ai1]
		c10 += av * b0
		c11 += av * b1
		c12 += av * b2
		c13 += av * b3
		av = ad[ai2]
		c20 += av * b0
		c21 += av * b1
		c22 += av * b2
		c23 += av * b3
		av = ad[ai3]
		c30 += av * b0
		c31 += av * b1
		c32 += av * b2
		c33 += av * b3
		ai0 += aK
		ai1 += aK
		ai2 += aK
		ai3 += aK
	}
	cd[c0], cd[c0+1], cd[c0+2], cd[c0+3] = c00, c01, c02, c03
	c0 += ldc
	cd[c0], cd[c0+1], cd[c0+2], cd[c0+3] = c10, c11, c12, c13
	c0 += ldc
	cd[c0], cd[c0+1], cd[c0+2], cd[c0+3] = c20, c21, c22, c23
	c0 += ldc
	cd[c0], cd[c0+1], cd[c0+2], cd[c0+3] = c30, c31, c32, c33
}

// gemmScalarRow8 computes one output row against a full panel: 8
// accumulators, ascending k, bK elements between k steps. It serves
// matrices shorter than gemmMR rows.
//
//lrm:noalloc — register-blocked micro-kernel
func gemmScalarRow8(k int, ad []float64, a0, aK int, bp []float64, bpOff, bK int, cd []float64, c0 int) {
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	at := a0
	bo := bpOff
	for t := 0; t < k; t++ {
		av := ad[at]
		at += aK
		s0 += av * bp[bo]
		s1 += av * bp[bo+1]
		s2 += av * bp[bo+2]
		s3 += av * bp[bo+3]
		s4 += av * bp[bo+4]
		s5 += av * bp[bo+5]
		s6 += av * bp[bo+6]
		s7 += av * bp[bo+7]
		bo += bK
	}
	cd[c0] = s0
	cd[c0+1] = s1
	cd[c0+2] = s2
	cd[c0+3] = s3
	cd[c0+4] = s4
	cd[c0+5] = s5
	cd[c0+6] = s6
	cd[c0+7] = s7
}

// gemmScalarTail handles the leftovers — partial trailing panels — one
// element at a time, ascending k, bK elements between k steps.
//
//lrm:noalloc — element-at-a-time tail kernel
func gemmScalarTail(k int, ad []float64, a0, aRow, aK int, bp []float64, bpOff, bK int, cd []float64, c0, ldc, rows, cols int) {
	for i := 0; i < rows; i++ {
		ao := a0 + i*aRow
		co := c0 + i*ldc
		for j := 0; j < cols; j++ {
			var s float64
			at := ao
			bo := bpOff + j
			for t := 0; t < k; t++ {
				s += ad[at] * bp[bo]
				at += aK
				bo += bK
			}
			cd[co+j] = s
		}
	}
}

// mirrorLower copies the strictly-upper triangle of the square matrix
// into the strictly-lower one (the symmetric kernels compute only j ≥ i).
func mirrorLower(out *Dense) {
	n := out.cols
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out.data[j*n+i] = out.data[i*n+j]
		}
	}
}
