// AVX2+FMA micro-kernel for the packed GEMM layer (gemm.go). Selected at
// runtime via CPUID (see gemm_amd64.go); the build stays at the GOAMD64=v1
// baseline so the binary still runs on machines without AVX2, where the
// scalar kernels in gemm.go take over.

//go:build amd64 && !noasm

#include "textflag.h"

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func gemmKernel4x8(k int64, a *float64, aRowStride, aKStride int64, bp *float64, bKStride int64, c *float64, cRowStride int64)
//
// Computes the 4×8 output block
//
//	C[i][j] = Σ_{t=0..k-1} A(i,t) · B(t,j)   for i in 0..3, j in 0..7
//
// overwriting C. A is addressed through two byte strides so one kernel
// serves both operand orientations: element A(i,t) lives at
// a + i·aRowStride + t·aKStride (aKStride=8 walks a row-major row;
// aRowStride=8 with aKStride=lda·8 walks a column, i.e. a transposed
// view). B is a panel whose 8 consecutive values for step t live at
// bp + t·bKStride (bKStride=64 for a packed panel). C rows are
// cRowStride bytes apart.
//
// Each C element is one FMA accumulation chain in ascending t — a single
// rounding per step, the fixed summation order the bit-identical
// serial/parallel guarantee rests on.
TEXT ·gemmKernel4x8(SB), NOSPLIT, $0-64
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ aRowStride+16(FP), R8
	MOVQ aKStride+24(FP), R12
	MOVQ bp+32(FP), DX
	MOVQ bKStride+40(FP), R13
	MOVQ c+48(FP), DI
	MOVQ cRowStride+56(FP), R10

	LEAQ (R8)(R8*2), R9   // 3·aRowStride
	LEAQ (R10)(R10*2), R11 // 3·cRowStride

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	TESTQ CX, CX
	JZ    store

loop:
	VMOVUPD (DX), Y8               // B(t, 0:4)
	VMOVUPD 32(DX), Y9             // B(t, 4:8)
	VBROADCASTSD (SI), Y10         // A(0,t)
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VBROADCASTSD (SI)(R8*1), Y11   // A(1,t)
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VBROADCASTSD (SI)(R8*2), Y12   // A(2,t)
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VBROADCASTSD (SI)(R9*1), Y13   // A(3,t)
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	ADDQ R12, SI
	ADDQ R13, DX
	DECQ CX
	JNZ  loop

store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R10*1)
	VMOVUPD Y3, 32(DI)(R10*1)
	VMOVUPD Y4, (DI)(R10*2)
	VMOVUPD Y5, 32(DI)(R10*2)
	VMOVUPD Y6, (DI)(R11*1)
	VMOVUPD Y7, 32(DI)(R11*1)
	VZEROUPPER
	RET
