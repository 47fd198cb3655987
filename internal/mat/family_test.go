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
// families must produce bit-identical products on the fused path (both
// are one IEEE FMA chain per element, with the same FMA/scalar row
// partition because the 8-row tier falls back to the 4-row kernel for
// short ranges), and every family — scalar included — must agree on the
// column-exact path. Skips where only one family exists; CI's AVX-512
// runners exercise it for real.
func TestKernelFamilyBitEquality(t *testing.T) {
	if !gemmUseAsm || !gemmUseAVX512 {
		t.Skip("needs two asm kernel families (AVX2 and AVX-512) on this host")
	}
	defer saveKernelGates()()

	for _, sh := range gemmShapes {
		a := randDenseSeed(t, sh.m, sh.k, int64(19*sh.m+sh.k))
		b := randDenseSeed(t, sh.k, sh.n, int64(23*sh.n+sh.k))
		name := fmt.Sprintf("%dx%dx%d", sh.m, sh.k, sh.n)

		gemmUseAVX512 = true
		fused512 := MulTo(New(sh.m, sh.n), a, b)
		exact512 := MulColsTo(New(sh.m, sh.n), a, b)

		gemmUseAVX512 = false
		fused2 := MulTo(New(sh.m, sh.n), a, b)
		exact2 := MulColsTo(New(sh.m, sh.n), a, b)

		if !fused512.Equal(fused2) {
			t.Fatalf("%s: fused product differs bitwise between avx512 and avx2 families", name)
		}
		if !exact512.Equal(exact2) {
			t.Fatalf("%s: column-exact product differs bitwise between avx512 and avx2 families", name)
		}

		// Column-exact also matches the scalar kernels: dot-product
		// rounding is the one true order on that path.
		gemmUseAsm = false
		exactScalar := MulColsTo(New(sh.m, sh.n), a, b)
		gemmUseAsm = true
		if !exact512.Equal(exactScalar) {
			t.Fatalf("%s: column-exact product differs bitwise between asm and scalar kernels", name)
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
