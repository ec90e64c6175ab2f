//go:build !purego

#include "textflag.h"

#include "tanh_amd64.h"

// LATCH_TAIL turns th = tanh(γ·v) in Y0 (group A) and Y8 (group B) into
// the derivative d = ((mv + (bias + ext)) + κ·(th − v))·invTau in Y3 and
// Y11 — Latch.deriv's operations in its order, with the additions'
// operands swapped where that cannot change a sum. It reads v at SI, mv
// at R8, bias at R9 and ext at R10, group A at byte offset DX and B at
// BX; κ is broadcast in Y2 and invTau in Y4. Y0 and Y8 are clobbered.
#define LATCH_TAIL \
	VSUBPD (SI)(DX*1), Y0, Y0; \
	VSUBPD (SI)(BX*1), Y8, Y8; \
	VMULPD Y2, Y0, Y0; \
	VMULPD Y2, Y8, Y8; \
	VMOVUPD (R9)(DX*1), Y3; \
	VMOVUPD (R9)(BX*1), Y11; \
	VADDPD (R10)(DX*1), Y3, Y3; \
	VADDPD (R10)(BX*1), Y11, Y11; \
	VADDPD (R8)(DX*1), Y3, Y3; \
	VADDPD (R8)(BX*1), Y11, Y11; \
	VADDPD Y0, Y3, Y3; \
	VADDPD Y8, Y11, Y11; \
	VMULPD Y4, Y3, Y3; \
	VMULPD Y4, Y11, Y11

// func latchStage(v, v0, k, bias, ext *float64, gamma, kappa, invTau float64, groups int, tab *[21][4]uint64, next *float64, c float64)
//
// For 4·groups nodes (Latch.Stage): γ·v, its tanh (TANH_PAIR), the tail
// (LATCH_TAIL) over the mat-vec held in k, k = d and next = v0 + c·d —
// two groups of four at a time, every product a VMULPD and every sum a
// VADDPD or VSUBPD, never a fused multiply-add. A group's loads all come
// before its stores, so next may be v. An odd last group runs as both A
// and B (BX = DX) and stores the same values twice.
TEXT ·latchStage(SB), NOSPLIT, $0-96
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
	LEAQ 32(DX), BX

body:
	VBROADCASTSD gamma+40(FP), Y1
	VMULPD (SI)(DX*1), Y1, Y7
	VMULPD (SI)(BX*1), Y1, Y15
	TANH_PAIR
	VBROADCASTSD kappa+48(FP), Y2
	VBROADCASTSD invTau+56(FP), Y4
	LATCH_TAIL
	VMOVUPD Y3, (R8)(DX*1)
	VMOVUPD Y11, (R8)(BX*1)
	// next = v0 + c·d
	VBROADCASTSD c+88(FP), Y5
	VMULPD Y5, Y3, Y3
	VMULPD Y5, Y11, Y11
	VADDPD (DI)(DX*1), Y3, Y3
	VADDPD (DI)(BX*1), Y11, Y11
	VMOVUPD Y3, (R13)(DX*1)
	VMOVUPD Y11, (R13)(BX*1)
	ADDQ $64, DX
	SUBQ $2, CX
	JMP  loop

done:
	VZEROUPPER
	RET

// func latchFinal(v, v0, k, bias, ext *float64, gamma, kappa, invTau float64, groups int, tab *[21][4]uint64, k1, k2, k3, cand *float64, h, limit float64) int
//
// For 4·groups nodes (Latch.Final): the fourth stage's d as latchStage
// forms it from the mat-vec in k, then cand = v0 + h·(((k1 + 2·k2) +
// 2·k3) + d) — 2·x as x + x, which is the same double — and the index of
// the first node whose |cand| is not at most limit (a NaN is not), or −1.
// R13 holds in turn the pointers that do not fit in registers.
TEXT ·latchFinal(SB), NOSPLIT, $0-136
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
	LEAQ 32(DX), BX

body:
	VBROADCASTSD gamma+40(FP), Y1
	VMULPD (SI)(DX*1), Y1, Y7
	VMULPD (SI)(BX*1), Y1, Y15
	TANH_PAIR
	VBROADCASTSD kappa+48(FP), Y2
	VBROADCASTSD invTau+56(FP), Y4
	LATCH_TAIL
	// s = ((k1 + 2·k2) + 2·k3) + d
	MOVQ k1+80(FP), R13
	VMOVUPD (R13)(DX*1), Y4
	VMOVUPD (R13)(BX*1), Y12
	MOVQ k2+88(FP), R13
	VMOVUPD (R13)(DX*1), Y5
	VMOVUPD (R13)(BX*1), Y13
	VADDPD Y5, Y5, Y5
	VADDPD Y13, Y13, Y13
	VADDPD Y5, Y4, Y4
	VADDPD Y13, Y12, Y12
	MOVQ k3+96(FP), R13
	VMOVUPD (R13)(DX*1), Y5
	VMOVUPD (R13)(BX*1), Y13
	VADDPD Y5, Y5, Y5
	VADDPD Y13, Y13, Y13
	VADDPD Y5, Y4, Y4
	VADDPD Y13, Y12, Y12
	VADDPD Y3, Y4, Y4
	VADDPD Y11, Y12, Y12
	// cand = v0 + h·s
	VBROADCASTSD h+112(FP), Y5
	VMULPD Y5, Y4, Y4
	VMULPD Y5, Y12, Y12
	VADDPD (DI)(DX*1), Y4, Y4
	VADDPD (DI)(BX*1), Y12, Y12
	MOVQ cand+104(FP), R13
	VMOVUPD Y4, (R13)(DX*1)
	VMOVUPD Y12, (R13)(BX*1)
	// The first bad lane, A's before B's, unless one was found already.
	CMPQ ret+128(FP), $0
	JGE  advance
	VBROADCASTSD limit+120(FP), Y5
	VANDPD ABSMASK, Y4, Y4
	VANDPD ABSMASK, Y12, Y12
	VCMPPD $6, Y5, Y4, Y4
	VCMPPD $6, Y5, Y12, Y12
	VMOVMSKPD Y4, R13
	BSFQ R13, R13
	JZ   checkb
	LEAQ (DX)(R13*8), R13
	JMP  found

checkb:
	VMOVMSKPD Y12, R13
	BSFQ R13, R13
	JZ   advance
	LEAQ (BX)(R13*8), R13

found:
	// R13 is the bad lane's byte offset: ret = R13/8
	SHRQ $3, R13
	MOVQ R13, ret+128(FP)

advance:
	ADDQ $64, DX
	SUBQ $2, CX
	JMP  loop

done:
	VZEROUPPER
	RET
	QUAD $0xCCCCCCCCCCCCCCCC
	QUAD $0xCCCCCCCCCCCCCCCC
	QUAD $0xCCCCCCCCCCCCCCCC
	QUAD $0xCCCCCCCCCCCCCCCC

	// Go aligns functions to 32 bytes, so the size of the text linked
	// ahead of a function decides whether it starts at 0 or at 32 mod 64,
	// and a kernel's loops can time several percent apart at the two.
	// Bench's calibration kernel does (ROADMAP, finding (i)), and every
	// scaled benchmark metric of a build is multiplied by its reading; CI
	// fails a bench build whose main.calibKernel is not at 32 mod 64. The
	// lane kernels may too: with sweep64 and five others moved by 32,
	// k256_mbrim4 read 5 % more CPU per solve in four pairs of four. When
	// a change to non-test code moves them, never-executed 0xCC bytes
	// after a RET move them back. At present 32 after latchCommit
	// (commit_amd64.s), the 32 above and 32 after cpuHasAVX
	// (sweep_amd64.s) keep main.calibKernel at 32 mod 64 and every lane
	// kernel where it sat before the latch's noise and variation arms
	// went, but latchStage and latchFinal, which take only the n mod 8
	// tail of a chip on an AVX-512F host. The next change that moves them
	// takes pads out or puts them in, until bench times its kernel where
	// no package's text size can move it (ROADMAP 1(b)). They belong in
	// files whose text is linked into bench; tanh_amd64.s's is not, since
	// nothing outside the tests calls Tanh.
