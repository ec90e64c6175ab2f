//go:build !purego

#include "textflag.h"

#include "tanh_amd64.h"

// func tanhLanes(x *float64, groups int, tab *[21][4]uint64)
//
// x[0:4·groups] = tanh of itself, two groups of four at a time through
// TANH_PAIR (tanh_amd64.h). An odd last group runs as both A and B and
// is stored once.
TEXT ·tanhLanes(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ groups+8(FP), CX
	MOVQ tab+16(FP), AX

next:
	CMPQ CX, $2
	JGE  pair
	TESTQ CX, CX
	JLE  done
	VMOVUPD 0(SI), Y7
	VMOVAPD Y7, Y15
	JMP  body

pair:
	VMOVUPD 0(SI), Y7
	VMOVUPD 32(SI), Y15

body:
	TANH_PAIR
	VMOVUPD Y0, 0(SI)
	CMPQ CX, $2
	JL   done
	VMOVUPD Y8, 32(SI)
	ADDQ $64, SI
	SUBQ $2, CX
	JMP  next

done:
	VZEROUPPER
	RET
