//go:build !purego

#include "textflag.h"

// func sweep32(col *float64, stride uintptr, x *float64, rows int, acc *float64)
//
// acc[0:32] += Σ_{j<rows} col[j·stride/8 + 0:32]·x[j], ascending j: eight
// ymm accumulators of four sums each. Every product is rounded by VMULPD
// and every sum by VADDPD — never a fused multiply-add, which would skip
// the product's rounding and break the package determinism contract.
TEXT ·sweep32(SB), NOSPLIT, $0-40
	MOVQ col+0(FP), SI
	MOVQ stride+8(FP), DX
	MOVQ x+16(FP), DI
	MOVQ rows+24(FP), CX
	MOVQ acc+32(FP), BX
	VMOVUPD 0(BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVUPD 64(BX), Y2
	VMOVUPD 96(BX), Y3
	VMOVUPD 128(BX), Y4
	VMOVUPD 160(BX), Y5
	VMOVUPD 192(BX), Y6
	VMOVUPD 224(BX), Y7
	TESTQ CX, CX
	JLE  done

row:
	VBROADCASTSD (DI), Y8
	VMULPD 0(SI), Y8, Y9
	VMULPD 32(SI), Y8, Y10
	VMULPD 64(SI), Y8, Y11
	VMULPD 96(SI), Y8, Y12
	VADDPD Y9, Y0, Y0
	VADDPD Y10, Y1, Y1
	VADDPD Y11, Y2, Y2
	VADDPD Y12, Y3, Y3
	VMULPD 128(SI), Y8, Y9
	VMULPD 160(SI), Y8, Y10
	VMULPD 192(SI), Y8, Y11
	VMULPD 224(SI), Y8, Y12
	VADDPD Y9, Y4, Y4
	VADDPD Y10, Y5, Y5
	VADDPD Y11, Y6, Y6
	VADDPD Y12, Y7, Y7
	ADDQ DX, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  row

done:
	VMOVUPD Y0, 0(BX)
	VMOVUPD Y1, 32(BX)
	VMOVUPD Y2, 64(BX)
	VMOVUPD Y3, 96(BX)
	VMOVUPD Y4, 128(BX)
	VMOVUPD Y5, 160(BX)
	VMOVUPD Y6, 192(BX)
	VMOVUPD Y7, 224(BX)
	VZEROUPPER
	RET

// func cpuHasAVX() bool
//
// CPUID.1:ECX must report AVX (bit 28) and OSXSAVE (bit 27), and XCR0
// must show the OS saving both the xmm and the ymm state (bits 1, 2).
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
	QUAD $0xCCCCCCCCCCCCCCCC
	QUAD $0xCCCCCCCCCCCCCCCC
	QUAD $0xCCCCCCCCCCCCCCCC
	QUAD $0xCCCCCCCCCCCCCCCC

	// 32 never-executed bytes that hold the text after them at its
	// alignment mod 64: see the end of latch_amd64.s.
