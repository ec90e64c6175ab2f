//go:build !purego

#include "textflag.h"

// fanBit holds, in byte lane l of a 16-byte group, bit l mod 8; fanShuf
// the four VPSHUFB controls that copy plane bytes 2s and 2s+1 to lanes
// 0–7 and 8–15, so that lane l of register s stands for column 16·s + l
// of a 64-column word.
DATA fanBit<>+0(SB)/8, $0x8040201008040201
DATA fanBit<>+8(SB)/8, $0x8040201008040201
GLOBL fanBit<>(SB), RODATA|NOPTR, $16

DATA fanShuf<>+0(SB)/8, $0x0000000000000000
DATA fanShuf<>+8(SB)/8, $0x0101010101010101
DATA fanShuf<>+16(SB)/8, $0x0202020202020202
DATA fanShuf<>+24(SB)/8, $0x0303030303030303
DATA fanShuf<>+32(SB)/8, $0x0404040404040404
DATA fanShuf<>+40(SB)/8, $0x0505050505050505
DATA fanShuf<>+48(SB)/8, $0x0606060606060606
DATA fanShuf<>+56(SB)/8, $0x0707070707070707
GLOBL fanShuf<>(SB), RODATA|NOPTR, $64

// COUNT spreads the 16 plane bits that shuf selects from word into 16
// bytes of 0xFF (bit set) or 0 and applies them to the counters acc with
// op: VPSUBB counts a set bit +1, VPADDB −1.
#define COUNT(shuf, word, op, acc) \
	VPSHUFB  shuf, word, X10; \
	VPAND    X11, X10, X10; \
	VPCMPEQB X11, X10, X10; \
	op       X10, acc, acc

// QUAD adds float64(c)·scale to the four fields at byte offset off of
// R9, c the four counter bytes at byte offset at of the spill.
#define QUAD(at, off) \
	VPMOVSXBD at(SP), X8; \
	VCVTDQ2PD X8, Y8; \
	VMULPD    Y15, Y8, Y8; \
	VADDPD    off(R9), Y8, Y8; \
	VMOVUPD   Y8, off(R9)

// func fanOutLanes(planes *uint64, rows *int, pairs int, out *float64, quads int, scale float64)
//
// For the 4·quads columns i of out (quads ≥ 1): out[i] += c_i·scale, c_i
// the number of plane rows, among pairs ≥ 1 pairs of word offsets
// rows[2r] and rows[2r+1] into planes, whose bit i is set in the first
// minus those whose bit i is set in the second (pairs ≤ 127: the counters
// are signed bytes). A 64-column word at a time, every row's two words
// are spread into byte counters held in four xmm registers — AVX1's
// integer width — and the counts then cross to doubles once: VPMOVSXBD,
// VCVTDQ2PD, one VMULPD by scale and one VADDPD into out per four
// columns. No instruction past AVX is used, and nothing branches on a
// value.
TEXT ·fanOutLanes(SB), NOSPLIT, $64-48
	MOVQ planes+0(FP), SI
	MOVQ rows+8(FP), DI
	MOVQ pairs+16(FP), R8
	MOVQ out+24(FP), R9
	MOVQ quads+32(FP), CX
	VBROADCASTSD scale+40(FP), Y15
	VMOVDQU fanBit<>(SB), X11
	VMOVDQU fanShuf<>+0(SB), X12
	VMOVDQU fanShuf<>+16(SB), X13
	VMOVDQU fanShuf<>+32(SB), X14
	VMOVDQU fanShuf<>+48(SB), X4

word:
	VPXOR X0, X0, X0
	VPXOR X1, X1, X1
	VPXOR X2, X2, X2
	VPXOR X3, X3, X3
	MOVQ  DI, R12
	MOVQ  R8, DX

row:
	MOVQ  (R12), R10
	MOVQ  8(R12), R11
	VMOVQ (SI)(R10*8), X8
	VMOVQ (SI)(R11*8), X9
	COUNT(X12, X8, VPSUBB, X0)
	COUNT(X13, X8, VPSUBB, X1)
	COUNT(X14, X8, VPSUBB, X2)
	COUNT(X4, X8, VPSUBB, X3)
	COUNT(X12, X9, VPADDB, X0)
	COUNT(X13, X9, VPADDB, X1)
	COUNT(X14, X9, VPADDB, X2)
	COUNT(X4, X9, VPADDB, X3)
	ADDQ  $16, R12
	DECQ  DX
	JNZ   row

	// The 64 counters, in column order, to the frame; a whole word's
	// sixteen quads are unrolled, a last partial word loops.
	VMOVDQU X0, 0(SP)
	VMOVDQU X1, 16(SP)
	VMOVDQU X2, 32(SP)
	VMOVDQU X3, 48(SP)
	CMPQ    CX, $16
	JLT     tail
	QUAD(0, 0)
	QUAD(4, 32)
	QUAD(8, 64)
	QUAD(12, 96)
	QUAD(16, 128)
	QUAD(20, 160)
	QUAD(24, 192)
	QUAD(28, 224)
	QUAD(32, 256)
	QUAD(36, 288)
	QUAD(40, 320)
	QUAD(44, 352)
	QUAD(48, 384)
	QUAD(52, 416)
	QUAD(56, 448)
	QUAD(60, 480)
	ADDQ    $512, R9
	ADDQ    $8, SI
	SUBQ    $16, CX
	JNZ     word
	JMP     done

tail:
	XORQ AX, AX

quad:
	VPMOVSXBD (SP)(AX*4), X8
	VCVTDQ2PD X8, Y8
	VMULPD    Y15, Y8, Y8
	VADDPD    (R9), Y8, Y8
	VMOVUPD   Y8, (R9)
	ADDQ      $32, R9
	INCQ      AX
	CMPQ      AX, CX
	JLT       quad

done:
	VZEROUPPER
	RET
