#include "textflag.h"

// Both kernels lift n (a positive multiple of 8) elements of row c (DI)
// from rows a (SI) and b (DX, 0 when one-sided), 8 per iteration in two YMM
// registers of 4 doubles, AX the element index. Each keeps the Go loops'
// operations in their order, each rounded once, so the two lift identical
// bits; it never fuses a multiply into an add (an FMA rounds once where Go
// rounds twice).

// INTO finishes an iteration: c = c OP t for the 8 elements whose t the
// iteration left in Y0 and Y1, then advances AX and compares it with n.
#define INTO(OP) \
	VMOVUPD (DI)(AX*8), Y2; \
	VMOVUPD 32(DI)(AX*8), Y3; \
	OP Y0, Y2, Y2; \
	OP Y1, Y3, Y3; \
	VMOVUPD Y2, (DI)(AX*8); \
	VMOVUPD Y3, 32(DI)(AX*8); \
	ADDQ $8, AX; \
	CMPQ AX, CX

// PREDICT2 sets t = 0.5 · (a + b); Y4 holds 0.5 in every lane.
#define PREDICT2 \
	VMOVUPD (SI)(AX*8), Y0; \
	VMOVUPD 32(SI)(AX*8), Y1; \
	VADDPD (DX)(AX*8), Y0, Y0; \
	VADDPD 32(DX)(AX*8), Y1, Y1; \
	VMULPD Y4, Y0, Y0; \
	VMULPD Y4, Y1, Y1

// PREDICT1 sets t = a.
#define PREDICT1 \
	VMOVUPD (SI)(AX*8), Y0; \
	VMOVUPD 32(SI)(AX*8), Y1

// UPDATE2 sets t = w · ((0 + a) + b); Y4 holds w in every lane, Y5 +0.
#define UPDATE2 \
	VADDPD (SI)(AX*8), Y5, Y0; \
	VADDPD 32(SI)(AX*8), Y5, Y1; \
	VADDPD (DX)(AX*8), Y0, Y0; \
	VADDPD 32(DX)(AX*8), Y1, Y1; \
	VMULPD Y4, Y0, Y0; \
	VMULPD Y4, Y1, Y1

// UPDATE1 sets t = w · (0 + a).
#define UPDATE1 \
	VADDPD (SI)(AX*8), Y5, Y0; \
	VADDPD 32(SI)(AX*8), Y5, Y1; \
	VMULPD Y4, Y0, Y0; \
	VMULPD Y4, Y1, Y1

// func predictRowsAVX2(c, a, b *float64, n int, sub bool)
TEXT ·predictRowsAVX2(SB), NOSPLIT, $0-33
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	MOVBLZX sub+32(FP), BX
	XORQ AX, AX
	TESTQ DX, DX
	JZ one
	MOVQ $0x3FE0000000000000, R8
	MOVQ R8, X4
	VBROADCASTSD X4, Y4
	TESTQ BX, BX
	JNZ sub2

add2:
	PREDICT2
	INTO(VADDPD)
	JB add2
	JMP done

sub2:
	PREDICT2
	INTO(VSUBPD)
	JB sub2
	JMP done

one:
	TESTQ BX, BX
	JNZ sub1

add1:
	PREDICT1
	INTO(VADDPD)
	JB add1
	JMP done

sub1:
	PREDICT1
	INTO(VSUBPD)
	JB sub1

done:
	VZEROUPPER
	RET

// func updateRowsAVX2(c, a, b *float64, n int, w float64, sub bool)
TEXT ·updateRowsAVX2(SB), NOSPLIT, $0-41
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	VBROADCASTSD w+32(FP), Y4
	MOVBLZX sub+40(FP), BX
	VXORPD Y5, Y5, Y5
	XORQ AX, AX
	TESTQ DX, DX
	JZ one
	TESTQ BX, BX
	JNZ sub2

add2:
	UPDATE2
	INTO(VADDPD)
	JB add2
	JMP done

sub2:
	UPDATE2
	INTO(VSUBPD)
	JB sub2
	JMP done

one:
	TESTQ BX, BX
	JNZ sub1

add1:
	UPDATE1
	INTO(VADDPD)
	JB add1
	JMP done

sub1:
	UPDATE1
	INTO(VSUBPD)
	JB sub1

done:
	VZEROUPPER
	RET
