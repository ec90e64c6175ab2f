//go:build !purego

#include "textflag.h"

DATA commitOne<>+0(SB)/8, $0x3ff0000000000000
GLOBL commitOne<>(SB), RODATA|NOPTR, $8

DATA commitHold<>+0(SB)/8, $0x3fe999999999999a
GLOBL commitHold<>(SB), RODATA|NOPTR, $8

// commitLanes holds, for each 4-bit mask m, 8 bytes: the lanes set in m
// in ascending order, a byte each and padded with 0, then their count.
DATA commitLanes<>+0(SB)/8, $0x0000000000000000
DATA commitLanes<>+8(SB)/8, $0x0000000100000000
DATA commitLanes<>+16(SB)/8, $0x0000000100000001
DATA commitLanes<>+24(SB)/8, $0x0000000200000100
DATA commitLanes<>+32(SB)/8, $0x0000000100000002
DATA commitLanes<>+40(SB)/8, $0x0000000200000200
DATA commitLanes<>+48(SB)/8, $0x0000000200000201
DATA commitLanes<>+56(SB)/8, $0x0000000300020100
DATA commitLanes<>+64(SB)/8, $0x0000000100000003
DATA commitLanes<>+72(SB)/8, $0x0000000200000300
DATA commitLanes<>+80(SB)/8, $0x0000000200000301
DATA commitLanes<>+88(SB)/8, $0x0000000300030100
DATA commitLanes<>+96(SB)/8, $0x0000000200000302
DATA commitLanes<>+104(SB)/8, $0x0000000300030200
DATA commitLanes<>+112(SB)/8, $0x0000000300030201
DATA commitLanes<>+120(SB)/8, $0x0000000403020100
GLOBL commitLanes<>(SB), RODATA|NOPTR, $128

DATA commitFour<>+0(SB)/8, $0x0000000400000004
DATA commitFour<>+8(SB)/8, $0x0000000400000004
GLOBL commitFour<>(SB), RODATA|NOPTR, $16

// func latchCommit(cand, v, holdUntil *float64, holdTarget, spins *int8, crossed *int32, groups int, t, th float64) int
//
// For 4·groups nodes (Latch.Commit): the rails as max(−1, c) then
// min(+1, ·) — VMAXPD and VMINPD hand back their second source when the
// compare fails, so with the candidate there a NaN keeps its payload and
// a −0 its sign, as rail's branches do; the holds by compare
// (t < holdUntil) and blend of 0.8·holdTarget, the target's bytes
// widened by VPMOVSXBD and VCVTDQ2PD on xmm; the store. The crossings are Readout's two arms,
// (s ≥ 0 ∧ v < −th) ∨ (s ≤ 0 ∧ v > th), as four-bit masks: v's compares
// by VMOVMSKPD (−th formed as 0 − th, which compares as −th does), and
// the spin bytes' by VPMOVMSKB — their sign bits are s < 0, and OR'd
// with VPCMPEQB against zero s ≤ 0. The crossed nodes are appended to
// crossed; it returns how many. The pointers are moved to the range's
// end and BX counts up from −4·groups to 0. Nothing branches on a
// value.
TEXT ·latchCommit(SB), NOSPLIT, $0-80
	MOVQ cand+0(FP), SI
	MOVQ v+8(FP), DI
	MOVQ holdUntil+16(FP), R8
	MOVQ holdTarget+24(FP), R9
	MOVQ spins+32(FP), R10
	MOVQ crossed+40(FP), R11
	MOVQ groups+48(FP), CX
	SHLQ $2, CX
	LEAQ (SI)(CX*8), SI
	LEAQ (DI)(CX*8), DI
	LEAQ (R8)(CX*8), R8
	LEAQ (R9)(CX*1), R9
	LEAQ (R10)(CX*1), R10
	VBROADCASTSD t+56(FP), Y0
	VBROADCASTSD th+64(FP), Y1
	VBROADCASTSD commitOne<>(SB), Y2
	VBROADCASTSD commitHold<>(SB), Y3
	VXORPD Y4, Y4, Y4 // 0
	VSUBPD Y2, Y4, Y5 // −1
	VSUBPD Y1, Y4, Y6 // −th
	VPXOR X15, X15, X15 // the group's first node, in every dword
	LEAQ commitLanes<>(SB), R14
	MOVQ CX, BX
	NEGQ BX             // the group's first node − 4·groups
	XORQ AX, AX         // nodes appended

loop:
	VMAXPD (SI)(BX*8), Y5, Y7
	VMINPD Y7, Y2, Y7
	VCMPPD    $1, (R8)(BX*8), Y0, Y8
	VPMOVSXBD (R9)(BX*1), X9
	VCVTDQ2PD X9, Y9
	VMULPD    Y3, Y9, Y9
	VBLENDVPD Y8, Y9, Y7, Y7
	VMOVUPD   Y7, (DI)(BX*8)

	// R12: the lanes where s ≥ 0 ∧ v < −th, R13 where s ≤ 0 ∧ v > th.
	VCMPPD    $1, Y6, Y7, Y13
	VCMPPD    $14, Y1, Y7, Y14
	VMOVD     (R10)(BX*1), X10
	VPCMPEQB  X4, X10, X11
	VPOR      X10, X11, X11
	VMOVMSKPD Y13, R12
	VPMOVMSKB X10, CX
	ORL       CX, R12
	XORL      CX, R12
	VPMOVMSKB X11, CX
	VMOVMSKPD Y14, R13
	ANDL      CX, R13
	ORL       R13, R12

	// The crossed lanes, widened and offset by the group's first node,
	// are written to crossed[AX:AX+4] whole and AX counts them: the next
	// group overwrites the padding.
	VPMOVZXBD (R14)(R12*8), X13
	VPADDD    X15, X13, X13
	VMOVDQU   X13, (R11)(AX*4)
	MOVBQZX   4(R14)(R12*8), R13
	ADDQ      R13, AX
	VPADDD    commitFour<>(SB), X15, X15

	ADDQ $4, BX
	JNZ  loop

	MOVQ AX, ret+72(FP)
	VZEROUPPER
	RET
	QUAD $0xCCCCCCCCCCCCCCCC
	QUAD $0xCCCCCCCCCCCCCCCC
	QUAD $0xCCCCCCCCCCCCCCCC
	QUAD $0xCCCCCCCCCCCCCCCC

	// 32 never-executed bytes that hold the text after them at its
	// alignment mod 64: see the end of latch_amd64.s.
