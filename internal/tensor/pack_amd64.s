//go:build !purego

#include "textflag.h"

// ROW adds one k step of tile row r: it broadcasts a[k][r] and adds its
// products with the two B vectors Y12 and Y13 (columns 0–7 and 8–15) to
// the row's accumulators. Every product is rounded before it is added
// (VMULPS then VADDPS, no FMA).
#define ROW(off, acc0, acc1) \
	VBROADCASTSS off(SI), Y14; \
	VMULPS       Y12, Y14, Y15; \
	VADDPS       Y15, acc0, acc0; \
	VMULPS       Y13, Y14, Y14; \
	VADDPS       Y14, acc1, acc1

// func tile6x16AVX2(kcLen int, pa, panel, c *float32, ldc int)
//
// C rows c, c+ldc, …, c+5·ldc (16 floats each) are loaded into Y0–Y11,
// kcLen k steps of pa (6 floats each) and panel (16 floats each) are
// added in ascending k, and the tile is stored back. Only the tile's
// own floats of c, pa and panel are touched.
TEXT ·tile6x16AVX2(SB), NOSPLIT, $0-40
	MOVQ kcLen+0(FP), CX
	MOVQ pa+8(FP), SI
	MOVQ panel+16(FP), DI
	MOVQ c+24(FP), R8
	MOVQ ldc+32(FP), BX
	SHLQ $2, BX
	LEAQ (R8)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11
	LEAQ (R11)(BX*1), R12
	LEAQ (R12)(BX*1), R13
	VMOVUPS (R8), Y0
	VMOVUPS 32(R8), Y1
	VMOVUPS (R9), Y2
	VMOVUPS 32(R9), Y3
	VMOVUPS (R10), Y4
	VMOVUPS 32(R10), Y5
	VMOVUPS (R11), Y6
	VMOVUPS 32(R11), Y7
	VMOVUPS (R12), Y8
	VMOVUPS 32(R12), Y9
	VMOVUPS (R13), Y10
	VMOVUPS 32(R13), Y11
	TESTQ CX, CX
	JZ    store

loop:
	VMOVUPS (DI), Y12
	VMOVUPS 32(DI), Y13
	ROW(0, Y0, Y1)
	ROW(4, Y2, Y3)
	ROW(8, Y4, Y5)
	ROW(12, Y6, Y7)
	ROW(16, Y8, Y9)
	ROW(20, Y10, Y11)
	ADDQ $24, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  loop

store:
	VMOVUPS Y0, (R8)
	VMOVUPS Y1, 32(R8)
	VMOVUPS Y2, (R9)
	VMOVUPS Y3, 32(R9)
	VMOVUPS Y4, (R10)
	VMOVUPS Y5, 32(R10)
	VMOVUPS Y6, (R11)
	VMOVUPS Y7, 32(R11)
	VMOVUPS Y8, (R12)
	VMOVUPS Y9, 32(R12)
	VMOVUPS Y10, (R13)
	VMOVUPS Y11, 32(R13)
	VZEROUPPER
	RET
