package mat

// Kernel tiers. The packed GEMM has one micro-kernel per instruction-set
// tier (AVX-512 8×8 and AVX2+FMA 4×8 on amd64, NEON 4×8 on arm64, scalar
// everywhere), and every product runs the widest tier the host enables:
// a pure function of the two gates gemmUseAsm and gemmUseAVX512, fixed
// at startup by CPU detection, the noasm/noavx512 build tags and the
// LRM_NOAVX512 environment variable.
//
// Determinism across tiers: every output element of an asm tier is one
// FMA chain in ascending k. IEEE FMA lane arithmetic is width-independent,
// and the 8-row tier reuses the 4-row kernel for row ranges shorter than
// 8, so the set of rows handled by FMA vs the scalar row kernel is
// identical in every asm tier (ranges of ≥4 rows are FMA, shorter ones
// scalar). A host running a narrower tier (no AVX-512, or LRM_NOAVX512
// set) therefore answers, decomposes and restores caches with exactly
// the bits of the AVX-512 default.
//
// The scalar tier runs plain Go loops and rounds differently; it runs
// only on builds and hosts without asm kernels. A mat-vec (MulVecTo) is
// a plain dot product on every tier, so a multi-column product and the
// loop of its per-column mat-vecs agree to within floating-point
// rounding, not bit for bit.

// gemmFamilyID enumerates the micro-kernel tiers.
type gemmFamilyID int

const (
	famScalar gemmFamilyID = iota
	famAVX2                // amd64 AVX2+FMA 4×8 kernels
	famAVX512              // amd64 AVX-512 8×8 kernels (4×8 for short row ranges)
	famNEON                // arm64 NEON 4×8 kernels
)

var famNames = [...]string{
	famScalar: "scalar",
	famAVX2:   "avx2",
	famAVX512: "avx512",
	famNEON:   "neon",
}

// gemmBestFamily returns the widest tier currently enabled.
func gemmBestFamily() gemmFamilyID {
	if !gemmUseAsm {
		return famScalar
	}
	if gemmUseAVX512 {
		return famAVX512
	}
	return gemmArchFamily
}

// kernelSel is the kernel pair gemmTileRun drives: kern8 computes 8-row
// blocks (nil outside the AVX-512 family), kern4 computes 4-row blocks,
// both over full gemmNR-wide panels. Both nil selects the scalar kernels.
type kernelSel struct {
	kern8 gemmAsmKernel
	kern4 gemmAsmKernel
}

// famKernels maps a tier to its kernel pair.
func famKernels(fam gemmFamilyID) kernelSel {
	switch fam {
	case famAVX512:
		return kernelSel{kern8: gemmKernel8x8, kern4: gemmKernel4x8}
	case famAVX2, famNEON:
		return kernelSel{kern4: gemmKernel4x8}
	default:
		return kernelSel{}
	}
}

// selectKernels returns the widest enabled tier's kernels.
func selectKernels() kernelSel { return famKernels(gemmBestFamily()) }

// KernelTier returns the kernel family every product runs on this host:
// the widest tier enabled.
func KernelTier() string { return famNames[gemmBestFamily()] }
