//go:build (!amd64 && !arm64) || noasm

package mat

// Architectures without assembly micro-kernels — and any build with the
// noasm tag, which CI uses to exercise the portable fallback on stock
// runners — always use the scalar kernels in gemm.go.
var gemmUseAsm = false

// gemmArchFamily is never consulted while gemmUseAsm is false; famScalar
// keeps the reported tier honest if a test flips the gate.
const gemmArchFamily = famScalar

// gemmKernel4x8 is never called when gemmUseAsm is false; this stub only
// satisfies the compiler.
func gemmKernel4x8(k int64, a *float64, aRowStride, aKStride int64, bp *float64, bKStride int64, c *float64, cRowStride int64) {
	panic("mat: gemmKernel4x8 called without assembly support")
}
