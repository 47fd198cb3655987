//go:build !amd64 || noasm || noavx512

package mat

// Builds without the AVX-512 tier: non-amd64 architectures, the noasm
// scalar-fallback leg, and the noavx512 kill-switch tag (which CI runs
// on every push so the AVX2 fallback path stays green on AVX-512
// hardware too).
var gemmUseAVX512 = false

// gemmKernel8x8 is never called when gemmUseAVX512 is false; this stub
// only satisfies the compiler.
func gemmKernel8x8(k int64, a *float64, aRowStride, aKStride int64, bp *float64, bKStride int64, c *float64, cRowStride int64) {
	panic("mat: gemmKernel8x8 called without AVX-512 support")
}
