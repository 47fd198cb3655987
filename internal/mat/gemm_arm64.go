//go:build arm64 && !noasm

package mat

// gemmKernel4x8 is the NEON (ASIMD) micro-kernel in gemm_arm64.s: the
// same 4×8 tile as the amd64 kernel, eight 2-lane double accumulators
// per pair of rows, one fused multiply-add (VFMLA) chain per element in
// ascending k. IEEE-754 fused multiply-add rounds once per step
// regardless of lane width, so this kernel's results are bit-identical
// to the AVX2 and AVX-512 FMA kernels'. It must only be called when
// gemmUseAsm is true.
//
//go:noescape
func gemmKernel4x8(k int64, a *float64, aRowStride, aKStride int64, bp *float64, bKStride int64, c *float64, cRowStride int64)

// gemmUseAsm gates the assembly micro-kernel. ASIMD is architecturally
// baseline on arm64 — there is nothing to detect — but this stays a
// variable so tests can force the scalar fallback and check both paths
// against the oracle.
var gemmUseAsm = true

// gemmArchFamily is the architecture's base assembly tier — the only
// one on arm64, which has no wider tier.
const gemmArchFamily = famNEON
