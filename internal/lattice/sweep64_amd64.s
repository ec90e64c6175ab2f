//go:build !purego

#include "textflag.h"

// func sweep64(col *float64, stride uintptr, x *float64, rows int, acc *float64)
//
// sweep32 on eight zmm accumulators of eight sums each: acc[0:64] +=
// Σ_{j<rows} col[j·stride/8 + 0:64]·x[j], ascending j. Every product is
// rounded by VMULPD and every sum by VADDPD, never fused, so each of the
// 64 sums carries sweep32's bits. Only Z0–Z15 and no mask registers:
// VZEROUPPER clears the upper halves of those sixteen but not of
// Z16–Z31, and the SSE code that follows would pay for any left dirty.
TEXT ·sweep64(SB), NOSPLIT, $0-40
	MOVQ col+0(FP), SI
	MOVQ stride+8(FP), DX
	MOVQ x+16(FP), DI
	MOVQ rows+24(FP), CX
	MOVQ acc+32(FP), BX
	VMOVUPD 0(BX), Z0
	VMOVUPD 64(BX), Z1
	VMOVUPD 128(BX), Z2
	VMOVUPD 192(BX), Z3
	VMOVUPD 256(BX), Z4
	VMOVUPD 320(BX), Z5
	VMOVUPD 384(BX), Z6
	VMOVUPD 448(BX), Z7
	TESTQ CX, CX
	JLE  done

row:
	VBROADCASTSD (DI), Z8
	VMULPD 0(SI), Z8, Z9
	VMULPD 64(SI), Z8, Z10
	VMULPD 128(SI), Z8, Z11
	VMULPD 192(SI), Z8, Z12
	VADDPD Z9, Z0, Z0
	VADDPD Z10, Z1, Z1
	VADDPD Z11, Z2, Z2
	VADDPD Z12, Z3, Z3
	VMULPD 256(SI), Z8, Z9
	VMULPD 320(SI), Z8, Z10
	VMULPD 384(SI), Z8, Z11
	VMULPD 448(SI), Z8, Z12
	VADDPD Z9, Z4, Z4
	VADDPD Z10, Z5, Z5
	VADDPD Z11, Z6, Z6
	VADDPD Z12, Z7, Z7
	ADDQ DX, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  row

done:
	VMOVUPD Z0, 0(BX)
	VMOVUPD Z1, 64(BX)
	VMOVUPD Z2, 128(BX)
	VMOVUPD Z3, 192(BX)
	VMOVUPD Z4, 256(BX)
	VMOVUPD Z5, 320(BX)
	VMOVUPD Z6, 384(BX)
	VMOVUPD Z7, 448(BX)
	VZEROUPPER
	RET

// func cpuHasAVX512F() bool
//
// CPUID must reach leaf 7, leaf 7 must report AVX512F (EBX bit 16), and
// XCR0 must show the OS saving the xmm, ymm, opmask and both zmm halves
// (bits 1, 2, 5, 6, 7). XGETBV needs OSXSAVE, which only cpuHasAVX
// proves: call this after it.
TEXT ·cpuHasAVX512F(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JB   no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x10000, BX
	JEQ  no
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
