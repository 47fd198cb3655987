// AVX-512 micro-kernel for the packed GEMM layer (gemm.go). Selected at
// runtime by the kernel-tier choice (gemmtier.go) when CPUID reports
// AVX512F+AVX512DQ and XCR0 has the opmask/ZMM state enabled
// (gemm_avx512_amd64.go); the build itself stays at the GOAMD64=v1
// baseline. The noavx512 build tag compiles the kernel out, mirroring
// the noasm tag one tier down.

//go:build amd64 && !noasm && !noavx512

#include "textflag.h"

// func gemmKernel8x8(k int64, a *float64, aRowStride, aKStride int64, bp *float64, bKStride int64, c *float64, cRowStride int64)
//
// Computes the 8×8 output block
//
//	C[i][j] = Σ_{t=0..k-1} A(i,t) · B(t,j)   for i in 0..7, j in 0..7
//
// overwriting C. Addressing matches gemmKernel4x8: element A(i,t) lives
// at a + i·aRowStride + t·aKStride, the 8 packed values for step t at
// bp + t·bKStride, C rows cRowStride bytes apart.
//
// One ZMM accumulator per output row; each k step is one 64-byte panel
// load plus eight embedded-broadcast FMAs (VFMADD231PD.BCST reads A(i,t)
// once and broadcasts it across the lanes). Every C element is a single
// FMA chain in ascending t — per-lane arithmetic identical to the 4×8
// AVX2 kernel's, which is what makes the two tiers interchangeable
// without changing a bit of output.
TEXT ·gemmKernel8x8(SB), NOSPLIT, $0-64
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ aRowStride+16(FP), R8
	MOVQ aKStride+24(FP), R12
	MOVQ bp+32(FP), DX
	MOVQ bKStride+40(FP), R13
	MOVQ c+48(FP), DI
	MOVQ cRowStride+56(FP), R10

	LEAQ (R8)(R8*2), R9       // 3·aRowStride
	LEAQ (R8)(R8*4), R14      // 5·aRowStride
	LEAQ (R9)(R8*4), R15      // 7·aRowStride
	LEAQ (R10)(R10*2), R11    // 3·cRowStride

	VXORPD Z0, Z0, Z0
	VXORPD Z1, Z1, Z1
	VXORPD Z2, Z2, Z2
	VXORPD Z3, Z3, Z3
	VXORPD Z4, Z4, Z4
	VXORPD Z5, Z5, Z5
	VXORPD Z6, Z6, Z6
	VXORPD Z7, Z7, Z7

	TESTQ CX, CX
	JZ    store8

loop8:
	VMOVUPD (DX), Z8                       // B(t, 0:8)
	VFMADD231PD.BCST (SI), Z8, Z0          // A(0,t)
	VFMADD231PD.BCST (SI)(R8*1), Z8, Z1    // A(1,t)
	VFMADD231PD.BCST (SI)(R8*2), Z8, Z2    // A(2,t)
	VFMADD231PD.BCST (SI)(R9*1), Z8, Z3    // A(3,t)
	VFMADD231PD.BCST (SI)(R8*4), Z8, Z4    // A(4,t)
	VFMADD231PD.BCST (SI)(R14*1), Z8, Z5   // A(5,t)
	VFMADD231PD.BCST (SI)(R9*2), Z8, Z6    // A(6,t)
	VFMADD231PD.BCST (SI)(R15*1), Z8, Z7   // A(7,t)
	ADDQ R12, SI
	ADDQ R13, DX
	DECQ CX
	JNZ  loop8

store8:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, (DI)(R10*1)
	VMOVUPD Z2, (DI)(R10*2)
	VMOVUPD Z3, (DI)(R11*1)
	LEAQ (DI)(R10*4), DI
	VMOVUPD Z4, (DI)
	VMOVUPD Z5, (DI)(R10*1)
	VMOVUPD Z6, (DI)(R10*2)
	VMOVUPD Z7, (DI)(R11*1)
	VZEROUPPER
	RET
