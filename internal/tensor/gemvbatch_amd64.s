//go:build !purego

#include "textflag.h"

// ROW4 adds one 4-step of one weight row to its accumulator, in Gemv's
// order: t = w0·x0; t += w1·x1; t += w2·x2; t += w3·x3; acc += t. Y4–Y7
// hold the panel's eight lanes for inputs k..k+3; every product is
// rounded before it is added (VMULPS then VADDPS, no FMA).
#define ROW4(w, acc, t, u) \
	VBROADCASTSS (w), t; \
	VMULPS       Y4, t, t; \
	VBROADCASTSS 4(w), u; \
	VMULPS       Y5, u, u; \
	VADDPS       u, t, t; \
	VBROADCASTSS 8(w), u; \
	VMULPS       Y6, u, u; \
	VADDPS       u, t, t; \
	VBROADCASTSS 12(w), u; \
	VMULPS       Y7, u, u; \
	VADDPS       u, t, t; \
	VADDPS       t, acc, acc

// ROW1 adds one remaining product of one weight row: acc += w·x, with
// Y4 holding the panel's eight lanes for input k.
#define ROW1(w, acc, t) \
	VBROADCASTSS (w), t; \
	VMULPS       Y4, t, t; \
	VADDPS       t, acc, acc

// func tile4x8AVX2(w *float32, n int, x *float32, acc *[32]float32)
//
// Rows w, w+n, w+2n, w+3n (n floats each) against the panel x (n steps
// of 8 lanes); acc[i*8+l] = row i · lane l. Weights are read one float
// at a time (VBROADCASTSS), so nothing past the last row's last element
// is touched.
TEXT ·tile4x8AVX2(SB), NOSPLIT, $0-32
	MOVQ w+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ x+16(FP), DI
	MOVQ acc+24(FP), DX
	LEAQ (SI)(CX*4), R8
	LEAQ (R8)(CX*4), R9
	LEAQ (R9)(CX*4), R10
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ CX, BX
	SHRQ $2, BX
	ANDQ $3, CX
	TESTQ BX, BX
	JZ   tail

quad:
	VMOVUPS (DI), Y4
	VMOVUPS 32(DI), Y5
	VMOVUPS 64(DI), Y6
	VMOVUPS 96(DI), Y7
	ROW4(SI, Y0, Y8, Y9)
	ROW4(R8, Y1, Y10, Y11)
	ROW4(R9, Y2, Y12, Y13)
	ROW4(R10, Y3, Y14, Y15)
	ADDQ $16, SI
	ADDQ $16, R8
	ADDQ $16, R9
	ADDQ $16, R10
	ADDQ $128, DI
	DECQ BX
	JNZ  quad

tail:
	TESTQ CX, CX
	JZ    done

one:
	VMOVUPS (DI), Y4
	ROW1(SI, Y0, Y8)
	ROW1(R8, Y1, Y10)
	ROW1(R9, Y2, Y12)
	ROW1(R10, Y3, Y14)
	ADDQ $4, SI
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ $4, R10
	ADDQ $32, DI
	DECQ CX
	JNZ  one

done:
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, 64(DX)
	VMOVUPS Y3, 96(DX)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
