//go:build amd64 && !noasm

package mat

// cpuidex and xgetbv0 are implemented in gemm_amd64.s.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// gemmKernel4x8 is the AVX2+FMA micro-kernel in gemm_amd64.s. It must
// only be called when gemmUseAsm is true.
//
//go:noescape
func gemmKernel4x8(k int64, a *float64, aRowStride, aKStride int64, bp *float64, bKStride int64, c *float64, cRowStride int64)

// detectAVX2FMA reports whether the CPU and OS support the AVX2+FMA
// micro-kernel: AVX + FMA + AVX2 in CPUID, and XMM/YMM state enabled in
// XCR0 (the OS must save the wide registers across context switches).
func detectAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c, _ := cpuidex(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if c&fma == 0 || c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if lo, _ := xgetbv0(); lo&0x6 != 0x6 {
		return false
	}
	_, b, _, _ := cpuidex(7, 0)
	return b&(1<<5) != 0 // AVX2
}

// gemmUseAsm gates the assembly micro-kernel. It is a variable (not a
// const) so tests can force the scalar fallback and check both paths
// against the oracle.
var gemmUseAsm = detectAVX2FMA()

// gemmArchFamily is the architecture's base assembly tier — what runs
// when the AVX-512 tier is absent or disabled.
const gemmArchFamily = famAVX2
