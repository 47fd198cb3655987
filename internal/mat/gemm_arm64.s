// NEON (ASIMD) micro-kernel for the packed GEMM layer (gemm.go).
// ASIMD is baseline on arm64, so there is no runtime detection — only
// the noasm build tag (CI's portable-fallback leg) compiles it out.
//
// The kernel computes the same 4×8 tile as the amd64 kernels, with the
// same operand addressing, so gemm.go's tile walk is identical on every
// architecture. The 8 output columns live in four 2-lane double vectors
// per row; sixteen V registers hold the whole tile.

//go:build arm64 && !noasm

#include "textflag.h"

// func gemmKernel4x8(k int64, a *float64, aRowStride, aKStride int64, bp *float64, bKStride int64, c *float64, cRowStride int64)
//
// Computes the 4×8 output block
//
//	C[i][j] = Σ_{t=0..k-1} A(i,t) · B(t,j)   for i in 0..3, j in 0..7
//
// overwriting C. Element A(i,t) lives at a + i·aRowStride + t·aKStride;
// the 8 packed values for step t at bp + t·bKStride; C rows cRowStride
// bytes apart — exactly the amd64 kernel's contract.
//
// Each C element is one fused multiply-add chain (VFMLA) in ascending t.
// IEEE-754 FMA rounds the product-and-add once per step independent of
// lane width, so this kernel is bit-identical to the AVX2 4×8 and
// AVX-512 8×8 FMA kernels — the cross-architecture half of the repo's
// determinism story.
TEXT ·gemmKernel4x8(SB), NOSPLIT, $0-64
	MOVD k+0(FP), R0
	MOVD a+8(FP), R1
	MOVD aRowStride+16(FP), R5
	MOVD aKStride+24(FP), R8
	MOVD bp+32(FP), R2
	MOVD bKStride+40(FP), R9
	MOVD c+48(FP), R3
	MOVD cRowStride+56(FP), R10

	ADD R5, R5, R6 // 2·aRowStride
	ADD R5, R6, R7 // 3·aRowStride

	VEOR V0.B16, V0.B16, V0.B16
	VEOR V1.B16, V1.B16, V1.B16
	VEOR V2.B16, V2.B16, V2.B16
	VEOR V3.B16, V3.B16, V3.B16
	VEOR V4.B16, V4.B16, V4.B16
	VEOR V5.B16, V5.B16, V5.B16
	VEOR V6.B16, V6.B16, V6.B16
	VEOR V7.B16, V7.B16, V7.B16
	VEOR V8.B16, V8.B16, V8.B16
	VEOR V9.B16, V9.B16, V9.B16
	VEOR V10.B16, V10.B16, V10.B16
	VEOR V11.B16, V11.B16, V11.B16
	VEOR V12.B16, V12.B16, V12.B16
	VEOR V13.B16, V13.B16, V13.B16
	VEOR V14.B16, V14.B16, V14.B16
	VEOR V15.B16, V15.B16, V15.B16

	CBZ R0, store

loop:
	VLD1 (R2), [V16.D2, V17.D2, V18.D2, V19.D2] // B(t, 0:8)
	ADD  R9, R2

	FMOVD (R1), F20        // A(0,t)
	VDUP  V20.D[0], V20.D2
	VFMLA V16.D2, V20.D2, V0.D2
	VFMLA V17.D2, V20.D2, V1.D2
	VFMLA V18.D2, V20.D2, V2.D2
	VFMLA V19.D2, V20.D2, V3.D2

	FMOVD (R1)(R5), F20    // A(1,t)
	VDUP  V20.D[0], V20.D2
	VFMLA V16.D2, V20.D2, V4.D2
	VFMLA V17.D2, V20.D2, V5.D2
	VFMLA V18.D2, V20.D2, V6.D2
	VFMLA V19.D2, V20.D2, V7.D2

	FMOVD (R1)(R6), F20    // A(2,t)
	VDUP  V20.D[0], V20.D2
	VFMLA V16.D2, V20.D2, V8.D2
	VFMLA V17.D2, V20.D2, V9.D2
	VFMLA V18.D2, V20.D2, V10.D2
	VFMLA V19.D2, V20.D2, V11.D2

	FMOVD (R1)(R7), F20    // A(3,t)
	VDUP  V20.D[0], V20.D2
	VFMLA V16.D2, V20.D2, V12.D2
	VFMLA V17.D2, V20.D2, V13.D2
	VFMLA V18.D2, V20.D2, V14.D2
	VFMLA V19.D2, V20.D2, V15.D2

	ADD  R8, R1
	SUBS $1, R0, R0
	BNE  loop

store:
	VST1 [V0.D2, V1.D2, V2.D2, V3.D2], (R3)
	ADD  R10, R3
	VST1 [V4.D2, V5.D2, V6.D2, V7.D2], (R3)
	ADD  R10, R3
	VST1 [V8.D2, V9.D2, V10.D2, V11.D2], (R3)
	ADD  R10, R3
	VST1 [V12.D2, V13.D2, V14.D2, V15.D2], (R3)
	RET
