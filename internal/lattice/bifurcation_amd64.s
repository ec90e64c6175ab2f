//go:build !purego

#include "textflag.h"

DATA sbmOne<>+0(SB)/8, $0x3ff0000000000000
DATA sbmOne<>+8(SB)/8, $0x3ff0000000000000
DATA sbmOne<>+16(SB)/8, $0x3ff0000000000000
DATA sbmOne<>+24(SB)/8, $0x3ff0000000000000
GLOBL sbmOne<>(SB), RODATA|NOPTR, $32

// FLIP(k) writes node BX+k at flipped[AX] and counts it (AX++) when bit
// k of R12 is set: every lane is written, and the next one overwrites a
// lane that did not change, so no branch depends on the data.
#define FLIP(k) \
	LEAL k(BX), R13; \
	MOVL R13, (R10)(AX*4); \
	BTL  $k, R12; \
	ADCQ $0, AX

// func sbmStep(x, y, f *float64, spins *int8, flipped *int32, groups int, ma, c0, dt, a0 float64) int
//
// For 4·groups nodes (Bifurcation.Step): y += (ma·x + c0·f)·dt, x +=
// (a0·y)·dt — every product a VMULPD and every sum a VADDPD, never a
// fused multiply-add, an addition's operands swapped where that cannot
// change a sum — then the walls by compare and blend, the signs by
// compare, the changed signs by VMOVMSKPD against the old spins' sign
// bits, the new spins as bytes and the changed nodes appended to
// flipped. It returns how many it appended. Nothing branches on a value.
TEXT ·sbmStep(SB), NOSPLIT, $0-88
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ f+16(FP), R8
	MOVQ spins+24(FP), R9
	MOVQ flipped+32(FP), R10
	MOVQ groups+40(FP), CX
	VBROADCASTSD ma+48(FP), Y0
	VBROADCASTSD c0+56(FP), Y1
	VBROADCASTSD dt+64(FP), Y2
	VBROADCASTSD a0+72(FP), Y3
	VMOVUPD sbmOne<>(SB), Y4
	VXORPD Y6, Y6, Y6
	VSUBPD Y4, Y6, Y5 // −1
	XORQ BX, BX       // the group's first node
	XORQ AX, AX       // nodes appended

loop:
	// y' = y + (ma·x + c0·f)·dt; x' = x + (a0·y')·dt
	VMOVUPD (SI)(BX*8), Y7
	VMULPD  Y0, Y7, Y8
	VMULPD  (R8)(BX*8), Y1, Y9
	VADDPD  Y9, Y8, Y8
	VMULPD  Y2, Y8, Y8
	VADDPD  (DI)(BX*8), Y8, Y9
	VMULPD  Y3, Y9, Y10
	VMULPD  Y2, Y10, Y10
	VADDPD  Y10, Y7, Y7

	// Walls: x' > 1 ⇒ (1, +0), x' < −1 ⇒ (−1, +0); a NaN is neither.
	VCMPPD    $14, Y4, Y7, Y11
	VCMPPD    $1, Y5, Y7, Y12
	VBLENDVPD Y11, Y4, Y7, Y7
	VBLENDVPD Y12, Y5, Y7, Y7
	VORPD     Y12, Y11, Y11
	VANDNPD   Y9, Y11, Y9
	VMOVUPD   Y7, (SI)(BX*8)
	VMOVUPD   Y9, (DI)(BX*8)

	// R11: the lanes that read −1, !(x' ≥ 0). R12: those whose old spin
	// byte (0xFF for −1, 0x01 for +1) has its top bit set. Their XOR is
	// the lanes whose sign changed.
	VCMPPD    $9, Y6, Y7, Y13
	VMOVMSKPD Y13, R11
	VMOVD     (R9)(BX*1), X14
	VPMOVMSKB X14, R12
	XORL      R11, R12

	// The new spins: bit k of R11 spread to byte k (the multiplier's
	// shifts are 0, 7, 14 and 21, so no two bits meet), then 0x01 | 0xFE
	// where set.
	IMUL3L $0x204081, R11, R13
	ANDL   $0x01010101, R13
	IMUL3L $0xFE, R13, R13
	ORL    $0x01010101, R13
	MOVL   R13, (R9)(BX*1)

	FLIP(0)
	FLIP(1)
	FLIP(2)
	FLIP(3)

	ADDQ $4, BX
	DECQ CX
	JNZ  loop

	MOVQ AX, ret+80(FP)
	VZEROUPPER
	RET
