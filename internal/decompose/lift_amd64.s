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

// The line kernel lifts the inverse step along four last-axis lines at
// once: lines 0–3 start at DI, SI, DX and R10, n (CX) active nodes each,
// R8 bytes apart. A column is the four lines' nodes at one index, one YMM
// register of 4 doubles, line r in lane r. The walk keeps the Go line's
// window in registers: at even node j, Y0 holds node j already updated and
// Y1 node j+1 as loaded, AX is j and BX its byte offset. Each node is
// loaded once and stored once, and no load reads what an earlier store of
// the call wrote. R11 runs four lines ahead of BX: the four lines the next
// call lifts are prefetched as these are walked, because four lines walked
// side by side defeat the hardware's one-stream-per-page prefetcher that a
// line-by-line walk of a contiguous slab keeps busy.
//
// Y13 holds +0, Y14 0.5 and Y15 w in every lane.

// GATHER loads the column at byte offset off into Y (X its low half) from
// four scalar loads, T scratch.
#define GATHER(off, X, Y, T) \
	VMOVSD      (DI)(off*1), X; \
	VMOVHPD     (SI)(off*1), X, X; \
	VMOVSD      (DX)(off*1), T; \
	VMOVHPD     (R10)(off*1), T, T; \
	VINSERTF128 $1, T, Y, Y

// SCATTER stores column Y (X its low half) at byte offset off, T scratch.
#define SCATTER(off, X, Y, T) \
	VMOVLPD      X, (DI)(off*1); \
	VMOVHPD      X, (SI)(off*1); \
	VEXTRACTF128 $1, Y, T; \
	VMOVLPD      T, (DX)(off*1); \
	VMOVHPD      T, (R10)(off*1)

// TRANSPOSE turns four 4-double vectors A, B, C, D — line pieces into
// columns or columns into line pieces — into P, Q, R, S, Y6–Y9 scratch.
#define TRANSPOSE(A, B, C, D, P, Q, R, S) \
	VUNPCKLPD  B, A, Y6; \
	VUNPCKHPD  B, A, Y7; \
	VUNPCKLPD  D, C, Y8; \
	VUNPCKHPD  D, C, Y9; \
	VPERM2F128 $0x20, Y8, Y6, P; \
	VPERM2F128 $0x20, Y9, Y7, Q; \
	VPERM2F128 $0x31, Y8, Y6, R; \
	VPERM2F128 $0x31, Y9, Y7, S

// LUPDATE2 sets E = E − w·((0 + L) + R), T scratch.
#define LUPDATE2(E, L, R, T) \
	VADDPD L, Y13, T; \
	VADDPD R, T, T; \
	VMULPD Y15, T, T; \
	VSUBPD T, E, E

// LUPDATE1 sets E = E − w·(0 + L), T scratch.
#define LUPDATE1(E, L, T) \
	VADDPD L, Y13, T; \
	VMULPD Y15, T, T; \
	VSUBPD T, E, E

// LPREDICT sets O = O + 0.5·(L + R), T scratch.
#define LPREDICT(O, L, R, T) \
	VADDPD L, R, T; \
	VMULPD Y14, T, T; \
	VADDPD T, O, O

// PREFETCH4 prefetches the four lines below the call's at byte offset R11.
#define PREFETCH4 \
	PREFETCHT0 (DI)(R11*1); \
	PREFETCHT0 (SI)(R11*1); \
	PREFETCHT0 (DX)(R11*1); \
	PREFETCHT0 (R10)(R11*1)

// func inverseLinesAVX2(x *float64, n, h, rows int, w float64, update bool)
TEXT ·inverseLinesAVX2(SB), NOSPLIT, $0-41
	MOVQ    x+0(FP), DI
	MOVQ    n+8(FP), CX
	MOVQ    h+16(FP), R8
	SHLQ    $3, R8
	MOVQ    rows+24(FP), R9
	SHLQ    $3, R9
	LEAQ    (DI)(R9*1), SI
	LEAQ    (SI)(R9*1), DX
	LEAQ    (DX)(R9*1), R10
	LEAQ    (R9)(R9*1), R11
	SHLQ    $1, R11
	VBROADCASTSD w+32(FP), Y15
	MOVQ    $0x3FE0000000000000, R9
	MOVQ    R9, X14
	VBROADCASTSD X14, Y14
	VXORPD  Y13, Y13, Y13

	// Node 0 is updated from node 1 alone.
	XORQ    AX, AX
	XORQ    BX, BX
	GATHER(BX, X0, Y0, X11)
	GATHER(R8, X1, Y1, X11)
	CMPB    update+40(FP), $0
	JEQ     first
	LUPDATE1(Y0, Y1, Y10)

first:
	CMPQ    R8, $8
	JNE     columns

	// h = 1: while nodes j+2…j+5 exist, load them as four line vectors,
	// transpose them into columns Y2–Y5, update j+2 and j+4, predict j+1
	// and j+3, and store nodes j…j+3 back as line vectors.
blocks:
	LEAQ    5(AX), R9
	CMPQ    R9, CX
	JGE     columns
	PREFETCH4
	VMOVUPD 16(DI)(BX*1), Y2
	VMOVUPD 16(SI)(BX*1), Y3
	VMOVUPD 16(DX)(BX*1), Y4
	VMOVUPD 16(R10)(BX*1), Y5
	TRANSPOSE(Y2, Y3, Y4, Y5, Y2, Y3, Y4, Y5)
	CMPB    update+40(FP), $0
	JEQ     blockpredict
	LUPDATE2(Y2, Y1, Y3, Y10)
	LUPDATE2(Y4, Y3, Y5, Y11)

blockpredict:
	LPREDICT(Y1, Y0, Y2, Y10)
	LPREDICT(Y3, Y2, Y4, Y11)
	TRANSPOSE(Y0, Y1, Y2, Y3, Y10, Y11, Y6, Y7)
	VMOVUPD Y10, (DI)(BX*1)
	VMOVUPD Y11, (SI)(BX*1)
	VMOVUPD Y6, (DX)(BX*1)
	VMOVUPD Y7, (R10)(BX*1)
	VMOVAPD Y4, Y0
	VMOVAPD Y5, Y1
	ADDQ    $4, AX
	ADDQ    $32, BX
	ADDQ    $32, R11
	JMP     blocks

	// Any h, and h = 1's last nodes: one column at a time while node j+3
	// exists, R9, R12 and R13 the byte offsets of nodes j+1, j+2, j+3.
columns:
	LEAQ    (BX)(R8*1), R9
	LEAQ    (R9)(R8*1), R12
	LEAQ    3(AX), R13
	CMPQ    R13, CX
	JGE     tail
	LEAQ    (R12)(R8*1), R13
	PREFETCH4
	GATHER(R12, X2, Y2, X11)
	GATHER(R13, X3, Y3, X11)
	CMPB    update+40(FP), $0
	JEQ     columnpredict
	LUPDATE2(Y2, Y1, Y3, Y10)

columnpredict:
	LPREDICT(Y1, Y0, Y2, Y10)
	SCATTER(BX, X0, Y0, X11)
	SCATTER(R9, X1, Y1, X11)
	VMOVAPD Y2, Y0
	VMOVAPD Y3, Y1
	ADDQ    $2, AX
	SUBQ    BX, R11
	ADDQ    R12, R11
	MOVQ    R12, BX
	JMP     columns

	// Two or three nodes are left. With three, the last node is even and
	// updated from its left neighbour alone, and the odd node before it
	// predicted from both; with two, the last node is odd and, without an
	// even right neighbour, predicted from its left alone.
tail:
	LEAQ    2(AX), R13
	CMPQ    R13, CX
	JGE     two

	GATHER(R12, X2, Y2, X11)
	CMPB    update+40(FP), $0
	JEQ     tailpredict
	LUPDATE1(Y2, Y1, Y10)

tailpredict:
	LPREDICT(Y1, Y0, Y2, Y10)
	SCATTER(R12, X2, Y2, X11)
	JMP     last

two:
	VADDPD  Y0, Y1, Y1

last:
	SCATTER(BX, X0, Y0, X11)
	SCATTER(R9, X1, Y1, X11)
	VZEROUPPER
	RET
