package mat

import (
	"fmt"
	"os"
	"runtime"
	"testing"
)

// TestKernelFamilyBitEquality pins the cross-tier contract that lets a
// host without the AVX-512 tier (or with LRM_NOAVX512 set) answer and
// restore caches exactly like the AVX-512 default: the AVX2 and AVX-512
// tiers must produce bit-identical products (both are one IEEE FMA chain
// per element, with the same FMA/scalar row partition because the 8-row
// tier falls back to the 4-row kernel for short ranges), both for a
// plain product and for the batched answer path with its fused noise
// epilogue. Skips where only one asm tier exists; CI's AVX-512 runners
// exercise it for real.
func TestKernelFamilyBitEquality(t *testing.T) {
	if !gemmUseAsm || !gemmUseAVX512 {
		t.Skip("needs two asm kernel tiers (AVX2 and AVX-512) on this host")
	}
	defer saveKernelGates()()

	for _, sh := range gemmShapes {
		a := randDenseSeed(t, sh.m, sh.k, int64(19*sh.m+sh.k))
		b := randDenseSeed(t, sh.k, sh.n, int64(23*sh.n+sh.k))
		noise := randDenseSeed(t, sh.m, sh.n, int64(29*sh.m+sh.n))
		name := fmt.Sprintf("%dx%dx%d", sh.m, sh.k, sh.n)
		fusedNoise := func() *Dense {
			dst := New(sh.m, sh.n)
			return MulEpiTo(dst, a, b, func(r0, r1, c0, c1 int) {
				for i := r0; i < r1; i++ {
					for j := c0; j < c1; j++ {
						dst.Set(i, j, dst.At(i, j)+noise.At(i, j))
					}
				}
			})
		}

		gemmUseAVX512 = true
		plain512 := MulTo(New(sh.m, sh.n), a, b)
		fused512 := fusedNoise()

		gemmUseAVX512 = false
		plain2 := MulTo(New(sh.m, sh.n), a, b)
		fused2 := fusedNoise()

		if !plain512.Equal(plain2) {
			t.Fatalf("%s: product differs bitwise between avx512 and avx2 tiers", name)
		}
		if !fused512.Equal(fused2) {
			t.Fatalf("%s: fused-noise product differs bitwise between avx512 and avx2 tiers", name)
		}
	}
}

// TestKernelTierFollowsGates pins that the kernel choice is a pure
// function of the two gates: scalar without asm, avx512 exactly when the
// AVX-512 gate is on, the arch tier otherwise — and that LRM_NOAVX512
// turns that gate off at startup on an amd64 asm build (CI runs this
// test with and without the variable set).
func TestKernelTierFollowsGates(t *testing.T) {
	hostAsm, host512 := gemmUseAsm, gemmUseAVX512
	if runtime.GOARCH == "amd64" && hostAsm && os.Getenv("LRM_NOAVX512") != "" {
		if host512 {
			t.Fatal("LRM_NOAVX512 set but the AVX-512 gate is on")
		}
		if got := KernelTier(); got != "avx2" {
			t.Fatalf("LRM_NOAVX512 host runs tier %q, want avx2", got)
		}
	}

	// Only KernelTier is called while the gates are flipped: no product
	// runs, so forcing a tier this host lacks is safe.
	defer saveKernelGates()()
	for _, avx512 := range []bool{false, true} {
		gemmUseAsm, gemmUseAVX512 = false, avx512
		if got := KernelTier(); got != "scalar" {
			t.Errorf("asm off, avx512=%v: tier %q, want scalar", avx512, got)
		}
		gemmUseAsm = true
		got := KernelTier()
		if (got == "avx512") != avx512 {
			t.Errorf("asm on, avx512=%v: tier %q", avx512, got)
		}
		if !avx512 && got != famNames[gemmArchFamily] {
			t.Errorf("asm on, avx512 off: tier %q, want the arch tier %q", got, famNames[gemmArchFamily])
		}
	}
}

// saveKernelGates captures the kernel gates and returns a func restoring
// them, for tests that flip gemmUseAsm/gemmUseAVX512 to force a tier:
// defer saveKernelGates()().
func saveKernelGates() (restore func()) {
	asm, avx512 := gemmUseAsm, gemmUseAVX512
	return func() { gemmUseAsm, gemmUseAVX512 = asm, avx512 }
}
