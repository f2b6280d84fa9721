#include "textflag.h"

// LANES gathers register Y from the four rows whose plane pointers sit at
// byte `at` of the placement (SI): one broadcast per lane, blended into its
// quadword, then the placement's VPSHUFB control at byte 256+at.
#define LANES(at, Y) \
	MOVQ (at)(SI), R8; \
	VPBROADCASTQ (R8)(DX*1), Y; \
	MOVQ (at+8)(SI), R9; \
	VPBROADCASTQ (R9)(DX*1), Y8; \
	VPBLENDD $0x0C, Y8, Y, Y; \
	MOVQ (at+16)(SI), R10; \
	VPBROADCASTQ (R10)(DX*1), Y9; \
	VPBLENDD $0x30, Y9, Y, Y; \
	MOVQ (at+24)(SI), R11; \
	VPBROADCASTQ (R11)(DX*1), Y10; \
	VPBLENDD $0xC0, Y10, Y, Y; \
	VPSHUFB (256+at)(SI), Y, Y

// EMIT stores the words of coefficients 8r+7 down to 8r from register Y,
// which holds byte r of every row; `at` is 32r, the byte offset of
// coefficient 8r in the group's words (DI).
#define EMIT(Y, at) \
	VPMOVMSKB Y, AX; \
	MOVL AX, (at+28)(DI); \
	VPADDB Y, Y, Y; \
	VPMOVMSKB Y, BX; \
	MOVL BX, (at+24)(DI); \
	VPADDB Y, Y, Y; \
	VPMOVMSKB Y, AX; \
	MOVL AX, (at+20)(DI); \
	VPADDB Y, Y, Y; \
	VPMOVMSKB Y, BX; \
	MOVL BX, (at+16)(DI); \
	VPADDB Y, Y, Y; \
	VPMOVMSKB Y, AX; \
	MOVL AX, (at+12)(DI); \
	VPADDB Y, Y, Y; \
	VPMOVMSKB Y, BX; \
	MOVL BX, (at+8)(DI); \
	VPADDB Y, Y, Y; \
	VPMOVMSKB Y, AX; \
	MOVL AX, (at+4)(DI); \
	VPADDB Y, Y, Y; \
	VPMOVMSKB Y, BX; \
	MOVL BX, (at)(DI)

// func wordsAVX2Groups(dst *uint32, p *wordPlacement, off, groups int)
TEXT ·wordsAVX2Groups(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ p+8(FP), SI
	MOVQ off+16(FP), DX
	MOVQ groups+24(FP), CX

loop:
	// Register i holds rows 2i, 2i+1 (low half) and 16+2i, 17+2i (high
	// half), each half's two rows byte-interleaved: word c of a half is
	// byte c of both rows.
	LANES(0, Y0)
	LANES(32, Y1)
	LANES(64, Y2)
	LANES(96, Y3)
	LANES(128, Y4)
	LANES(160, Y5)
	LANES(192, Y6)
	LANES(224, Y7)

	// Words → dwords: dword c of Y8+2j (c < 4) and Y9+2j (c ≥ 4) is byte
	// c of rows 4j..4j+3 (and 16+4j..19+4j in the high half).
	VPUNPCKLWD Y1, Y0, Y8
	VPUNPCKHWD Y1, Y0, Y9
	VPUNPCKLWD Y3, Y2, Y10
	VPUNPCKHWD Y3, Y2, Y11
	VPUNPCKLWD Y5, Y4, Y12
	VPUNPCKHWD Y5, Y4, Y13
	VPUNPCKLWD Y7, Y6, Y14
	VPUNPCKHWD Y7, Y6, Y15

	// Dwords → quadwords: rows 0..7 in Y0..Y3 (bytes 0,1 / 2,3 / 4,5 /
	// 6,7), rows 8..15 in Y4..Y7.
	VPUNPCKLDQ Y10, Y8, Y0
	VPUNPCKHDQ Y10, Y8, Y1
	VPUNPCKLDQ Y11, Y9, Y2
	VPUNPCKHDQ Y11, Y9, Y3
	VPUNPCKLDQ Y14, Y12, Y4
	VPUNPCKHDQ Y14, Y12, Y5
	VPUNPCKLDQ Y15, Y13, Y6
	VPUNPCKHDQ Y15, Y13, Y7

	// Quadwords → halves: Y8+r is byte r of rows 0..15 (low half) and
	// 16..31 (high half).
	VPUNPCKLQDQ Y4, Y0, Y8
	VPUNPCKHQDQ Y4, Y0, Y9
	VPUNPCKLQDQ Y5, Y1, Y10
	VPUNPCKHQDQ Y5, Y1, Y11
	VPUNPCKLQDQ Y6, Y2, Y12
	VPUNPCKHQDQ Y6, Y2, Y13
	VPUNPCKLQDQ Y7, Y3, Y14
	VPUNPCKHQDQ Y7, Y3, Y15

	EMIT(Y8, 0)
	EMIT(Y9, 32)
	EMIT(Y10, 64)
	EMIT(Y11, 96)
	EMIT(Y12, 128)
	EMIT(Y13, 160)
	EMIT(Y14, 192)
	EMIT(Y15, 224)

	ADDQ $256, DI
	ADDQ $8, DX
	DECQ CX
	JNZ  loop
	VZEROUPPER
	RET

// DECODE4 turns the four words at (SI) into their four float64 values in
// Y0: widen, mask, decode with the magic bias, subtract 2⁵²+2⁵¹, scale.
#define DECODE4 \
	VPMOVZXDQ (SI), Y0; \
	VPAND     Y1, Y0, Y0; \
	VPXOR     Y3, Y0, Y0; \
	VPADDQ    Y4, Y0, Y0; \
	VSUBPD    Y5, Y0, Y0; \
	VMULPD    Y2, Y0, Y0

// func decodeAVX2(dst *float64, stride int, ws *uint32, n int, mask uint64, unit float64)
TEXT ·decodeAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ stride+8(FP), BX
	SHLQ $3, BX
	MOVQ ws+16(FP), SI
	MOVQ n+24(FP), CX
	MOVQ mask+32(FP), R9
	// R10 = negaMask; R11 = 2⁵²+2⁵¹ (as float64 bits) − negaMask, so
	// (w ^ negaMask) + R11 = v + bits(2⁵²+2⁵¹) with v = (w ^ negaMask) −
	// negaMask, the nega-binary value of w.
	MOVQ $0xAAAAAAAAAAAAAAAA, R10
	MOVQ $0x988D555555555556, R11
	MOVQ $0x4338000000000000, AX
	VPBROADCASTQ mask+32(FP), Y1
	VBROADCASTSD unit+40(FP), Y2
	VMOVQ R10, X3
	VPBROADCASTQ X3, Y3
	VMOVQ R11, X4
	VPBROADCASTQ X4, Y4
	VMOVQ AX, X5
	VPBROADCASTQ X5, Y5
	CMPQ CX, $4
	JB   tail
	CMPQ BX, $8
	JNE  strided

contiguous:
	DECODE4
	VMOVUPD Y0, (DI)
	ADDQ    $16, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	CMPQ    CX, $4
	JAE     contiguous
	JMP     tail

strided:
	DECODE4
	VMOVLPD      X0, (DI)
	VMOVHPD      X0, (DI)(BX*1)
	VEXTRACTF128 $1, Y0, X0
	LEAQ         (DI)(BX*2), DI
	VMOVLPD      X0, (DI)
	VMOVHPD      X0, (DI)(BX*1)
	LEAQ         (DI)(BX*2), DI
	ADDQ         $16, SI
	SUBQ         $4, CX
	CMPQ         CX, $4
	JAE          strided

tail:
	TESTQ CX, CX
	JZ    done

tailword:
	MOVL   (SI), AX
	ANDQ   R9, AX
	XORQ   R10, AX
	ADDQ   R11, AX
	VMOVQ  AX, X0
	VSUBSD X5, X0, X0
	VMULSD X2, X0, X0
	VMOVSD X0, (DI)
	ADDQ   $4, SI
	ADDQ   BX, DI
	DECQ   CX
	JNZ    tailword

done:
	VZEROUPPER
	RET
