//go:build !purego

#include "textflag.h"

DATA csrOne<>+0(SB)/8, $0x3ff0000000000000
DATA csrOne<>+8(SB)/8, $0x3ff0000000000000
DATA csrOne<>+16(SB)/8, $0x3ff0000000000000
DATA csrOne<>+24(SB)/8, $0x3ff0000000000000
GLOBL csrOne<>(SB), RODATA|NOPTR, $32

// GATHER: YG = x[col] for the four columns of the slot at byte offset
// OFF of cols (SI), XH a scratch half.
#define GATHER(OFF, XG, YG, XH) \
	MOVL 0(SI)(OFF*1), R8; \
	MOVL 4(SI)(OFF*1), R9; \
	VMOVSD (DI)(R8*8), XG; \
	VMOVHPD (DI)(R9*8), XG, XG; \
	MOVL 8(SI)(OFF*1), R8; \
	MOVL 12(SI)(OFF*1), R9; \
	VMOVSD (DI)(R8*8), XH; \
	VMOVHPD (DI)(R9*8), XH, XH; \
	VINSERTF128 $1, XH, YG, YG

// BASE: YA = base[order[…]] (base in R9) for the group at byte offset
// OFF of order (AX).
#define BASE(OFF, XA, YA, XH) \
	MOVL (OFF+0)(AX), R8; \
	VMOVSD (R9)(R8*8), XA; \
	MOVL (OFF+4)(AX), R8; \
	VMOVHPD (R9)(R8*8), XA, XA; \
	MOVL (OFF+8)(AX), R8; \
	VMOVSD (R9)(R8*8), XH; \
	MOVL (OFF+12)(AX), R8; \
	VMOVHPD (R9)(R8*8), XH, XH; \
	VINSERTF128 $1, XH, YA, YA

// STORE: out[order[…]] = YA (out in R9) for the group at byte offset
// OFF of order (AX).
#define STORE(OFF, XA, YA, XH) \
	MOVL (OFF+0)(AX), R8; \
	VMOVSD XA, (R9)(R8*8); \
	MOVL (OFF+4)(AX), R8; \
	VMOVHPD XA, (R9)(R8*8); \
	VEXTRACTF128 $1, YA, XH; \
	MOVL (OFF+8)(AX), R8; \
	VMOVSD XH, (R9)(R8*8); \
	MOVL (OFF+12)(AX), R8; \
	VMOVHPD XH, (R9)(R8*8)

// func csrLanes(cols *int32, vals *float64, start *int, lens *int32, order *int32, x, base, out *float64, groups int)
//
// For each of groups lane groups (csr.go) of one window: lane l of a
// register starts at base[order[l]] (+0 when base is nil), adds
// vals·x[cols] slot by slot — a VMULPD and a VADDPD, each rounded on its
// own, never a fused multiply-add — and is stored to out[order[l]]. A
// slot past a lane's length is masked out with VBLENDVPD, never added as
// a zero product: 0·Inf is a NaN, and −0 + 0 is +0.
//
// Two groups, A then B, are in flight at once. Their lanes are ordered by
// length within the window, so A0 ≤ A3 ≤ B0 ≤ B3 and a pair runs in four
// phases: both unmasked below A0, A masked and B unmasked up to A3, B
// alone up to B0, B masked up to B3. A last odd group runs as B alone.
TEXT ·csrLanes(SB), NOSPLIT, $0-72
	MOVQ cols+0(FP), SI
	MOVQ vals+8(FP), BX
	MOVQ start+16(FP), R12
	MOVQ lens+24(FP), R13
	MOVQ order+32(FP), AX
	MOVQ x+40(FP), DI
	MOVQ groups+64(FP), DX
	VMOVUPD csrOne<>(SB), Y14

next:
	CMPQ DX, $2
	JGE  pair
	TESTQ DX, DX
	JLE  done
	// One group left: move the pointers back a group so that B's
	// offsets name it; nothing of A is read or written.
	SUBQ $8, R12
	SUBQ $16, R13
	SUBQ $16, AX
	MOVQ 8(R12), R11
	SHLQ $4, R11
	VXORPD Y1, Y1, Y1
	MOVQ base+48(FP), R9
	TESTQ R9, R9
	JZ   onezero
	BASE(16, X1, Y1, X5)

onezero:
	MOVL 16(R13), CX
	JMP  bonly

pair:
	MOVQ 0(R12), R10
	SHLQ $4, R10
	MOVQ 8(R12), R11
	SHLQ $4, R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ base+48(FP), R9
	TESTQ R9, R9
	JZ   both
	BASE(0, X0, Y0, X3)
	BASE(16, X1, Y1, X5)

both:
	// Phase 1: slots [0, A0), every lane of both groups.
	MOVL 0(R13), CX
	TESTQ CX, CX
	JZ   amask

bothloop:
	GATHER(R10, X2, Y2, X3)
	GATHER(R11, X4, Y4, X5)
	VMULPD 0(BX)(R10*2), Y2, Y2
	VMULPD 0(BX)(R11*2), Y4, Y4
	VADDPD Y2, Y0, Y0
	VADDPD Y4, Y1, Y1
	ADDQ $16, R10
	ADDQ $16, R11
	DECQ CX
	JNZ  bothloop

amask:
	// Phase 2: slots [A0, A3), A's lanes below their lengths, all of B's.
	MOVL 12(R13), CX
	MOVL 0(R13), R8
	SUBQ R8, CX
	JLE  bphase
	VCVTDQ2PD 0(R13), Y8
	VBROADCASTSS 0(R13), X9
	VCVTDQ2PD X9, Y9

amaskloop:
	GATHER(R10, X2, Y2, X3)
	GATHER(R11, X4, Y4, X5)
	VMULPD 0(BX)(R10*2), Y2, Y2
	VMULPD 0(BX)(R11*2), Y4, Y4
	VADDPD Y2, Y0, Y6
	VADDPD Y4, Y1, Y1
	VCMPPD $1, Y8, Y9, Y12
	VBLENDVPD Y12, Y6, Y0, Y0
	VADDPD Y14, Y9, Y9
	ADDQ $16, R10
	ADDQ $16, R11
	DECQ CX
	JNZ  amaskloop

bphase:
	MOVL 16(R13), CX
	MOVL 12(R13), R8
	SUBQ R8, CX

bonly:
	// Phase 3: slots [A3, B0) of B, every lane (CX of them).
	TESTQ CX, CX
	JLE  bmask

bonlyloop:
	GATHER(R11, X4, Y4, X5)
	VMULPD 0(BX)(R11*2), Y4, Y4
	VADDPD Y4, Y1, Y1
	ADDQ $16, R11
	DECQ CX
	JNZ  bonlyloop

bmask:
	// Phase 4: slots [B0, B3) of B, its lanes below their lengths.
	MOVL 28(R13), CX
	MOVL 16(R13), R8
	SUBQ R8, CX
	JLE  store
	VCVTDQ2PD 16(R13), Y10
	VBROADCASTSS 16(R13), X11
	VCVTDQ2PD X11, Y11

bmaskloop:
	GATHER(R11, X4, Y4, X5)
	VMULPD 0(BX)(R11*2), Y4, Y4
	VADDPD Y4, Y1, Y7
	VCMPPD $1, Y10, Y11, Y13
	VBLENDVPD Y13, Y7, Y1, Y1
	VADDPD Y14, Y11, Y11
	ADDQ $16, R11
	DECQ CX
	JNZ  bmaskloop

store:
	MOVQ out+56(FP), R9
	STORE(16, X1, Y1, X5)
	CMPQ DX, $2
	JL   done
	STORE(0, X0, Y0, X3)
	ADDQ $16, R12
	ADDQ $32, R13
	ADDQ $32, AX
	SUBQ $2, DX
	JMP  next

done:
	VZEROUPPER
	RET
