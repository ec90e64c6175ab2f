//go:build !purego

#include "textflag.h"

#include "tanh_amd64.h"

// TANH_PAIR_Z is TANH_PAIR on zmm: Z0 = tanh(Z7) and Z8 = tanh(Z15),
// the same operations in the same order on eight doubles at a time, in
// the same registers by number. AVX-512F alone: the table's constants
// come one quadword each through .BCST, the masks through VPANDQ and
// VPORQ (VANDPD and VORPD on zmm are AVX-512DQ), 2ᵏ through one
// VPSLLQ on the whole register, and a NaN argument back through a
// compare into K1 (K2 for group B) and VBLENDMPD. Z7 and Z15 are kept;
// Z1–Z6, Z9–Z14, K1 and K2 are clobbered.
#define TANH_PAIR_Z \
	VPANDQ.BCST ABSMASK, Z7, Z0; \
	VPANDQ.BCST ABSMASK, Z15, Z8; \
	VMINPD.BCST SAT, Z0, Z0; \
	VMINPD.BCST SAT, Z8, Z8; \
	VMULPD.BCST NEGTWO, Z0, Z0; \
	VMULPD.BCST NEGTWO, Z8, Z8; \
	VMULPD.BCST INVLN2, Z0, Z1; \
	VMULPD.BCST INVLN2, Z8, Z9; \
	VADDPD.BCST BIAS, Z1, Z1; \
	VADDPD.BCST BIAS, Z9, Z9; \
	VSUBPD.BCST BIAS, Z1, Z2; \
	VSUBPD.BCST BIAS, Z9, Z10; \
	VMULPD.BCST LN2HI, Z2, Z3; \
	VMULPD.BCST LN2HI, Z10, Z11; \
	VSUBPD Z3, Z0, Z0; \
	VSUBPD Z11, Z8, Z8; \
	VMULPD.BCST LN2LO, Z2, Z3; \
	VMULPD.BCST LN2LO, Z10, Z11; \
	VSUBPD Z3, Z0, Z0; \
	VSUBPD Z11, Z8, Z8; \
	VMULPD Z0, Z0, Z2; \
	VMULPD Z8, Z8, Z10; \
	VMULPD.BCST Q(1), Z0, Z3; \
	VMULPD.BCST Q(1), Z8, Z11; \
	VMULPD.BCST Q(3), Z0, Z4; \
	VMULPD.BCST Q(3), Z8, Z12; \
	VADDPD.BCST Q(0), Z3, Z3; \
	VADDPD.BCST Q(0), Z11, Z11; \
	VADDPD.BCST Q(2), Z4, Z4; \
	VADDPD.BCST Q(2), Z12, Z12; \
	VMULPD Z2, Z4, Z4; \
	VMULPD Z10, Z12, Z12; \
	VADDPD Z4, Z3, Z3; \
	VADDPD Z12, Z11, Z11; \
	VMULPD.BCST Q(5), Z0, Z4; \
	VMULPD.BCST Q(5), Z8, Z12; \
	VMULPD.BCST Q(7), Z0, Z5; \
	VMULPD.BCST Q(7), Z8, Z13; \
	VADDPD.BCST Q(4), Z4, Z4; \
	VADDPD.BCST Q(4), Z12, Z12; \
	VADDPD.BCST Q(6), Z5, Z5; \
	VADDPD.BCST Q(6), Z13, Z13; \
	VMULPD Z2, Z5, Z5; \
	VMULPD Z10, Z13, Z13; \
	VADDPD Z5, Z4, Z4; \
	VADDPD Z13, Z12, Z12; \
	VMULPD.BCST Q(9), Z0, Z5; \
	VMULPD.BCST Q(9), Z8, Z13; \
	VMULPD.BCST Q(11), Z0, Z6; \
	VMULPD.BCST Q(11), Z8, Z14; \
	VADDPD.BCST Q(8), Z5, Z5; \
	VADDPD.BCST Q(8), Z13, Z13; \
	VADDPD.BCST Q(10), Z6, Z6; \
	VADDPD.BCST Q(10), Z14, Z14; \
	VMULPD Z2, Z6, Z6; \
	VMULPD Z10, Z14, Z14; \
	VADDPD Z6, Z5, Z5; \
	VADDPD Z14, Z13, Z13; \
	VMULPD Z2, Z2, Z6; \
	VMULPD Z10, Z10, Z14; \
	VMULPD Z6, Z4, Z4; \
	VMULPD Z14, Z12, Z12; \
	VADDPD Z4, Z3, Z3; \
	VADDPD Z12, Z11, Z11; \
	VMULPD Z6, Z6, Z6; \
	VMULPD Z14, Z14, Z14; \
	VMULPD Z6, Z5, Z5; \
	VMULPD Z14, Z13, Z13; \
	VADDPD Z5, Z3, Z3; \
	VADDPD Z13, Z11, Z11; \
	VMULPD Z2, Z3, Z3; \
	VMULPD Z10, Z11, Z11; \
	VADDPD Z3, Z0, Z0; \
	VADDPD Z11, Z8, Z8; \
	VPSLLQ $52, Z1, Z1; \
	VPSLLQ $52, Z9, Z9; \
	VMULPD Z1, Z0, Z0; \
	VMULPD Z9, Z8, Z8; \
	VSUBPD.BCST ONE, Z1, Z2; \
	VSUBPD.BCST ONE, Z9, Z10; \
	VADDPD.BCST ONE, Z1, Z1; \
	VADDPD.BCST ONE, Z9, Z9; \
	VADDPD Z2, Z0, Z2; \
	VADDPD Z10, Z8, Z10; \
	VADDPD Z1, Z0, Z0; \
	VADDPD Z9, Z8, Z8; \
	VDIVPD Z0, Z2, Z0; \
	VDIVPD Z8, Z10, Z8; \
	VPANDQ.BCST ABSMASK, Z0, Z0; \
	VPANDQ.BCST ABSMASK, Z8, Z8; \
	VPANDQ.BCST SIGNMASK, Z7, Z2; \
	VPANDQ.BCST SIGNMASK, Z15, Z10; \
	VPORQ Z2, Z0, Z0; \
	VPORQ Z10, Z8, Z8; \
	VCMPPD $3, Z7, Z7, K1; \
	VCMPPD $3, Z15, Z15, K2; \
	VBLENDMPD Z7, Z0, K1, Z0; \
	VBLENDMPD Z15, Z8, K2, Z8

// LATCH_TAIL_Z is LATCH_TAIL on zmm: the derivative of group A in Z3 and
// of group B in Z11 from th in Z0 and Z8, with the same registers, the
// same operands and the same offsets DX and BX. Z0 and Z8 are
// clobbered.
#define LATCH_TAIL_Z \
	VSUBPD (SI)(DX*1), Z0, Z0; \
	VSUBPD (SI)(BX*1), Z8, Z8; \
	VMULPD Z2, Z0, Z0; \
	VMULPD Z2, Z8, Z8; \
	VMOVUPD (R9)(DX*1), Z3; \
	VMOVUPD (R9)(BX*1), Z11; \
	VADDPD (R10)(DX*1), Z3, Z3; \
	VADDPD (R10)(BX*1), Z11, Z11; \
	VADDPD (R8)(DX*1), Z3, Z3; \
	VADDPD (R8)(BX*1), Z11, Z11; \
	VADDPD Z0, Z3, Z3; \
	VADDPD Z8, Z11, Z11; \
	VMULPD Z4, Z3, Z3; \
	VMULPD Z4, Z11, Z11

// func latchStage8(v, v0, k, bias, ext *float64, gamma, kappa, invTau float64, groups int, tab *[21][4]uint64, next *float64, c float64)
//
// latchStage over 8·groups nodes, two groups of eight at a time: the
// same loads, operations and stores in the same order, on zmm. An odd
// last group runs as both A and B (BX = DX) and stores the same values
// twice. Only Z0–Z15, K1 and K2: VZEROUPPER clears the upper halves of
// those sixteen but not of Z16–Z31.
TEXT ·latchStage8(SB), NOSPLIT, $0-96
	MOVQ v+0(FP), SI
	MOVQ v0+8(FP), DI
	MOVQ k+16(FP), R8
	MOVQ bias+24(FP), R9
	MOVQ ext+32(FP), R10
	MOVQ groups+64(FP), CX
	MOVQ tab+72(FP), AX
	MOVQ next+80(FP), R13
	XORQ DX, DX

loop:
	CMPQ CX, $2
	JGE  pair
	TESTQ CX, CX
	JLE  done
	MOVQ DX, BX
	JMP  body

pair:
	LEAQ 64(DX), BX

body:
	VBROADCASTSD gamma+40(FP), Z1
	VMULPD (SI)(DX*1), Z1, Z7
	VMULPD (SI)(BX*1), Z1, Z15
	TANH_PAIR_Z
	VBROADCASTSD kappa+48(FP), Z2
	VBROADCASTSD invTau+56(FP), Z4
	LATCH_TAIL_Z
	VMOVUPD Z3, (R8)(DX*1)
	VMOVUPD Z11, (R8)(BX*1)
	// next = v0 + c·d
	VBROADCASTSD c+88(FP), Z5
	VMULPD Z5, Z3, Z3
	VMULPD Z5, Z11, Z11
	VADDPD (DI)(DX*1), Z3, Z3
	VADDPD (DI)(BX*1), Z11, Z11
	VMOVUPD Z3, (R13)(DX*1)
	VMOVUPD Z11, (R13)(BX*1)
	ADDQ $128, DX
	SUBQ $2, CX
	JMP  loop

done:
	VZEROUPPER
	RET

// func latchFinal8(v, v0, k, bias, ext *float64, gamma, kappa, invTau float64, groups int, tab *[21][4]uint64, k1, k2, k3, cand *float64, h, limit float64) int
//
// latchFinal over 8·groups nodes, as latchStage8 is latchStage. The
// first bad lane of a group comes from a compare into K3, moved out by
// KMOVW (KMOVB is AVX-512DQ, and VMOVMSKPD has no zmm form).
TEXT ·latchFinal8(SB), NOSPLIT, $0-136
	MOVQ v+0(FP), SI
	MOVQ v0+8(FP), DI
	MOVQ k+16(FP), R8
	MOVQ bias+24(FP), R9
	MOVQ ext+32(FP), R10
	MOVQ groups+64(FP), CX
	MOVQ tab+72(FP), AX
	MOVQ $-1, ret+128(FP)
	XORQ DX, DX

loop:
	CMPQ CX, $2
	JGE  pair
	TESTQ CX, CX
	JLE  done
	MOVQ DX, BX
	JMP  body

pair:
	LEAQ 64(DX), BX

body:
	VBROADCASTSD gamma+40(FP), Z1
	VMULPD (SI)(DX*1), Z1, Z7
	VMULPD (SI)(BX*1), Z1, Z15
	TANH_PAIR_Z
	VBROADCASTSD kappa+48(FP), Z2
	VBROADCASTSD invTau+56(FP), Z4
	LATCH_TAIL_Z
	// s = ((k1 + 2·k2) + 2·k3) + d
	MOVQ k1+80(FP), R13
	VMOVUPD (R13)(DX*1), Z4
	VMOVUPD (R13)(BX*1), Z12
	MOVQ k2+88(FP), R13
	VMOVUPD (R13)(DX*1), Z5
	VMOVUPD (R13)(BX*1), Z13
	VADDPD Z5, Z5, Z5
	VADDPD Z13, Z13, Z13
	VADDPD Z5, Z4, Z4
	VADDPD Z13, Z12, Z12
	MOVQ k3+96(FP), R13
	VMOVUPD (R13)(DX*1), Z5
	VMOVUPD (R13)(BX*1), Z13
	VADDPD Z5, Z5, Z5
	VADDPD Z13, Z13, Z13
	VADDPD Z5, Z4, Z4
	VADDPD Z13, Z12, Z12
	VADDPD Z3, Z4, Z4
	VADDPD Z11, Z12, Z12
	// cand = v0 + h·s
	VBROADCASTSD h+112(FP), Z5
	VMULPD Z5, Z4, Z4
	VMULPD Z5, Z12, Z12
	VADDPD (DI)(DX*1), Z4, Z4
	VADDPD (DI)(BX*1), Z12, Z12
	MOVQ cand+104(FP), R13
	VMOVUPD Z4, (R13)(DX*1)
	VMOVUPD Z12, (R13)(BX*1)
	// The first bad lane, A's before B's, unless one was found already.
	CMPQ ret+128(FP), $0
	JGE  advance
	VBROADCASTSD limit+120(FP), Z5
	VPANDQ.BCST ABSMASK, Z4, Z4
	VPANDQ.BCST ABSMASK, Z12, Z12
	VCMPPD $6, Z5, Z4, K3
	VCMPPD $6, Z5, Z12, K4
	KMOVW K3, R13
	BSFQ R13, R13
	JZ   checkb
	LEAQ (DX)(R13*8), R13
	JMP  found

checkb:
	KMOVW K4, R13
	BSFQ R13, R13
	JZ   advance
	LEAQ (BX)(R13*8), R13

found:
	// R13 is the bad lane's byte offset: ret = R13/8
	SHRQ $3, R13
	MOVQ R13, ret+128(FP)

advance:
	ADDQ $128, DX
	SUBQ $2, CX
	JMP  loop

done:
	VZEROUPPER
	RET
