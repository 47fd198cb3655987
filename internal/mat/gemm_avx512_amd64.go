//go:build amd64 && !noasm && !noavx512

package mat

import "os"

// gemmKernel8x8 is the AVX-512 micro-kernel in gemm_avx512_amd64.s: an
// 8×8 output block held in eight ZMM accumulators, one fused
// multiply-add chain per element in ascending k — the same per-element
// arithmetic as gemmKernel4x8, so the two tiers agree bit for bit. It
// must only be called when gemmUseAVX512 is true.
//
//go:noescape
func gemmKernel8x8(k int64, a *float64, aRowStride, aKStride int64, bp *float64, bKStride int64, c *float64, cRowStride int64)

// detectAVX512 reports whether the CPU and OS support the AVX-512
// micro-kernels: AVX512F + AVX512DQ in CPUID leaf 7, and XMM/YMM plus
// opmask/ZMM state enabled in XCR0 (the OS must save the full 512-bit
// register file and mask registers across context switches). The base
// AVX2+FMA tier must also be present — the 8×8 kernel falls back to the
// 4×8 kernel for short row ranges.
func detectAVX512() bool {
	if !detectAVX2FMA() {
		return false
	}
	const (
		avx512f  = 1 << 16
		avx512dq = 1 << 17
	)
	_, b, _, _ := cpuidex(7, 0)
	if b&avx512f == 0 || b&avx512dq == 0 {
		return false
	}
	// XCR0: SSE|AVX (0x6) plus opmask|ZMM_Hi256|Hi16_ZMM (0xE0).
	lo, _ := xgetbv0()
	return lo&0xE6 == 0xE6
}

// gemmUseAVX512 gates the AVX-512 tier. Two kill switches beyond the
// hardware check: the noavx512 build tag compiles this file (and the
// kernels) out entirely, and the LRM_NOAVX512 environment variable
// disables the tier at startup without a rebuild — the operational
// escape hatch if a host's AVX-512 implementation downclocks badly. A
// variable (not a const) so tests can force the AVX2 tier and prove the
// two produce identical bits.
var gemmUseAVX512 = detectAVX512() && os.Getenv("LRM_NOAVX512") == ""
