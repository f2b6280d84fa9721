#include "textflag.h"

// func quantizeAVX2(ws *uint64, cs *float64, n int, recip, limit float64)
TEXT ·quantizeAVX2(SB), NOSPLIT, $0-40
	MOVQ ws+0(FP), DI
	MOVQ cs+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD recip+24(FP), Y8
	VBROADCASTSD limit+32(FP), Y12
	// Y9 = |·| mask, Y10 = 0.5, Y11 = 1.0, Y13 = 2⁵²+2⁵¹, Y14 = negaMask −
	// bits(2⁵²+2⁵¹), Y15 = negaMask.
	MOVQ $0x7FFFFFFFFFFFFFFF, AX
	VMOVQ AX, X9
	VPBROADCASTQ X9, Y9
	MOVQ $0x3FE0000000000000, AX
	VMOVQ AX, X10
	VPBROADCASTQ X10, Y10
	MOVQ $0x3FF0000000000000, AX
	VMOVQ AX, X11
	VPBROADCASTQ X11, Y11
	MOVQ $0x4338000000000000, AX
	VMOVQ AX, X13
	VPBROADCASTQ X13, Y13
	MOVQ $0x6772AAAAAAAAAAAA, AX
	VMOVQ AX, X14
	VPBROADCASTQ X14, Y14
	MOVQ $0xAAAAAAAAAAAAAAAA, AX
	VMOVQ AX, X15
	VPBROADCASTQ X15, Y15

loop:
	// x = c/unit, exact as c·(1/unit) for a power-of-two unit whose
	// reciprocal is a normal float64.
	VMULPD (SI), Y8, Y0
	// Round |x| half away from zero: t = trunc(|x|) plus 1 where the
	// fraction |x| − t (exact) is at least 0.5; ±Inf stays ±Inf.
	VANDPD   Y9, Y0, Y1
	VROUNDPD $3, Y1, Y2
	VSUBPD   Y2, Y1, Y3
	VCMPPD   $0x1D, Y10, Y3, Y3
	VANDPD   Y11, Y3, Y3
	VADDPD   Y3, Y2, Y2
	// Clamp to limit (Inf included), restore x's sign, and zero NaN lanes.
	VMINPD  Y12, Y2, Y2
	VANDNPD Y0, Y9, Y4
	VORPD   Y4, Y2, Y2
	VCMPPD  $7, Y0, Y0, Y5
	VANDPD  Y5, Y2, Y2
	// q + 2⁵²+2⁵¹ is exact for |q| ≤ 2³⁰, so its bits less those of the
	// constant are q; adding negaMask and xoring it encodes q nega-binary.
	VADDPD  Y13, Y2, Y2
	VPADDQ  Y14, Y2, Y2
	VPXOR   Y15, Y2, Y2
	VMOVDQU Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JNZ     loop
	VZEROUPPER
	RET

// sliceShuf transposes each 128-bit lane's 4×4 bytes: byte 4b+j of the
// result is byte b of dword j.
DATA sliceShuf<>+0(SB)/8, $0x0d0905010c080400
DATA sliceShuf<>+8(SB)/8, $0x0f0b07030e0a0602
DATA sliceShuf<>+16(SB)/8, $0x0d0905010c080400
DATA sliceShuf<>+24(SB)/8, $0x0f0b07030e0a0602
GLOBL sliceShuf<>(SB), RODATA|NOPTR, $32

// sliceOrder puts the unpacked dwords back in word order (VPERMD indices).
DATA sliceOrder<>+0(SB)/8, $0x0000000400000000
DATA sliceOrder<>+8(SB)/8, $0x0000000500000001
DATA sliceOrder<>+16(SB)/8, $0x0000000600000002
DATA sliceOrder<>+24(SB)/8, $0x0000000700000003
GLOBL sliceOrder<>(SB), RODATA|NOPTR, $32

// NARROW loads words at+0 … at+7 of the half (SI) and leaves their low
// dwords, in word order, in Y.
#define NARROW(at, Y, T) \
	VMOVDQU at(SI), Y; \
	VMOVDQU at+32(SI), T; \
	VSHUFPS $0x88, T, Y, Y; \
	VPERMQ  $0xD8, Y, Y

// STORE writes the movemask of Y — bit p of the half's 32 words, p set by
// the register and how often it was doubled — to the plane whose base
// pointer sits at byte at = 8p of rows (DI), at byte offset DX.
#define STORE(at, Y) \
	VPMOVMSKB Y, AX; \
	MOVQ      (at)(DI), R8; \
	MOVL      AX, (R8)(DX*1)

// BITS stores the 8 bits of byte register Y, word bits p down to p−7 for
// at = 8p: each VPADDB moves the next lower bit of every byte into its
// sign bit.
#define BITS(at, Y) \
	STORE(at, Y); \
	VPADDB Y, Y, Y; \
	STORE(at-8, Y); \
	VPADDB Y, Y, Y; \
	STORE(at-16, Y); \
	VPADDB Y, Y, Y; \
	STORE(at-24, Y); \
	VPADDB Y, Y, Y; \
	STORE(at-32, Y); \
	VPADDB Y, Y, Y; \
	STORE(at-40, Y); \
	VPADDB Y, Y, Y; \
	STORE(at-48, Y); \
	VPADDB Y, Y, Y; \
	STORE(at-56, Y)

// func sliceAVX2Groups(words *uint64, rows *[32]unsafe.Pointer, off, groups int)
TEXT ·sliceAVX2Groups(SB), NOSPLIT, $0-32
	MOVQ words+0(FP), SI
	MOVQ rows+8(FP), DI
	MOVQ off+16(FP), DX
	MOVQ groups+24(FP), CX
	SHLQ $1, CX
	VMOVDQU sliceShuf<>(SB), Y14
	VMOVDQU sliceOrder<>(SB), Y15

half:
	// Each half-group is 32 words, whose 32 plane bits go to bytes
	// off..off+3 of the planes: the low half of a group's 8-byte lane, then
	// the high half.
	NARROW(0, Y0, Y1)
	NARROW(64, Y2, Y3)
	NARROW(128, Y4, Y5)
	NARROW(192, Y6, Y7)
	VPSHUFB Y14, Y0, Y0
	VPSHUFB Y14, Y2, Y2
	VPSHUFB Y14, Y4, Y4
	VPSHUFB Y14, Y6, Y6

	// Per lane, Y0/Y2/Y4/Y6 dword b is byte b of 4 words; gather byte b of
	// all 32 words into Y(b): lane-wise unpacks, then VPERMD into word
	// order.
	VPUNPCKLDQ  Y2, Y0, Y8
	VPUNPCKHDQ  Y2, Y0, Y9
	VPUNPCKLDQ  Y6, Y4, Y10
	VPUNPCKHDQ  Y6, Y4, Y11
	VPUNPCKLQDQ Y10, Y8, Y0
	VPUNPCKHQDQ Y10, Y8, Y1
	VPUNPCKLQDQ Y11, Y9, Y2
	VPUNPCKHQDQ Y11, Y9, Y3
	VPERMD      Y0, Y15, Y0
	VPERMD      Y1, Y15, Y1
	VPERMD      Y2, Y15, Y2
	VPERMD      Y3, Y15, Y3

	// Bits 31 down to 0: rows of bits at or above the plane count point at
	// plane 0 (bit planes−1), which is stored after them.
	BITS(248, Y3)
	BITS(184, Y2)
	BITS(120, Y1)
	BITS(56, Y0)

	ADDQ $256, SI
	ADDQ $4, DX
	DECQ CX
	JNZ  half
	VZEROUPPER
	RET

// FOLD4 raises Y to |c − float64(DecodeNegabinary(w & mask))·unit| of the
// four words at (SI) and coefficients at (BX), both at byte offset at.
#define FOLD4(at, Y, T) \
	VMOVDQU at(SI), T; \
	VPAND   Y12, T, T; \
	VPXOR   Y15, T, T; \
	VPADDQ  Y14, T, T; \
	VSUBPD  Y13, T, T; \
	VMULPD  Y11, T, T; \
	VSUBPD  at(BX), T, T; \
	VANDPD  Y10, T, T; \
	VMAXPD  Y, T, Y

// func foldAVX2(ws *uint64, cs *float64, n int, mask uint64, unit float64) float64
TEXT ·foldAVX2(SB), NOSPLIT, $0-48
	MOVQ ws+0(FP), SI
	MOVQ cs+8(FP), BX
	MOVQ n+16(FP), CX
	VPBROADCASTQ mask+24(FP), Y12
	VBROADCASTSD unit+32(FP), Y11
	// Y10 = |·| mask, Y13 = 2⁵²+2⁵¹, Y14 = its bits − negaMask, Y15 =
	// negaMask: (w ^ negaMask) + Y14 is the bits of 2⁵²+2⁵¹+v for the
	// nega-binary value v of w, exact since |v| < 2³² ≪ 2⁵¹.
	MOVQ $0x7FFFFFFFFFFFFFFF, AX
	VMOVQ AX, X10
	VPBROADCASTQ X10, Y10
	MOVQ $0x4338000000000000, AX
	VMOVQ AX, X13
	VPBROADCASTQ X13, Y13
	MOVQ $0x988D555555555556, AX
	VMOVQ AX, X14
	VPBROADCASTQ X14, Y14
	MOVQ $0xAAAAAAAAAAAAAAAA, AX
	VMOVQ AX, X15
	VPBROADCASTQ X15, Y15
	// Four independent maxima; errors are ≥ 0, so 0 starts each.
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	CMPQ   CX, $16
	JB     quad

sixteen:
	FOLD4(0, Y0, Y4)
	FOLD4(32, Y1, Y5)
	FOLD4(64, Y2, Y6)
	FOLD4(96, Y3, Y7)
	ADDQ $128, SI
	ADDQ $128, BX
	SUBQ $16, CX
	CMPQ CX, $16
	JAE  sixteen

quad:
	TESTQ CX, CX
	JZ    reduce
	FOLD4(0, Y0, Y4)
	ADDQ  $32, SI
	ADDQ  $32, BX
	SUBQ  $4, CX
	JMP   quad

reduce:
	VMAXPD       Y1, Y0, Y0
	VMAXPD       Y3, Y2, Y2
	VMAXPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X1, X0, X0
	VUNPCKHPD    X0, X0, X1
	VMAXSD       X1, X0, X0
	VMOVSD       X0, ret+40(FP)
	VZEROUPPER
	RET
