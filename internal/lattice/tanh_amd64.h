// The lane tanh, once: tanhLanes (tanh_amd64.s) and the latch stage
// (latch_amd64.s) both expand TANH_PAIR, so the two cannot drift apart.

// tanhTab rows (tanh.go), 32 bytes each, addressed off AX.
#define ABSMASK  0(AX)
#define SIGNMASK 32(AX)
#define SAT      64(AX)
#define NEGTWO   96(AX)
#define INVLN2   128(AX)
#define BIAS     160(AX)
#define LN2HI    192(AX)
#define LN2LO    224(AX)
#define Q(n)     (256+32*n)(AX)
#define ONE      640(AX)

// TANH_PAIR sets Y0 = tanh(Y7) and Y8 = tanh(Y15): tanhGo's operations
// in tanhGo's order on two registers of four doubles at a time (group A
// in Y0–Y7, group B in Y8–Y15, interleaved so each hides the other's
// latencies). Every product is a VMULPD and every sum a VADDPD or
// VSUBPD, each rounded on its own — never a fused multiply-add, which
// would skip the product's rounding — plus one VDIVPD and bitwise ops.
// 2ᵏ is shifted into place on xmm halves: plain AVX has no 256-bit
// integer shift and useAVX probes for no more. Y7 and Y15 are kept (they
// give the result its sign, and a NaN argument comes back as itself);
// Y1–Y6 and Y9–Y14 are clobbered. The steps, in tanhGo's names:
//
//	a = min(|x|, sat); t = −2a
//	kb = t·(1/ln2) + bias; k = kb − bias
//	r = (t − k·ln2Hi) − k·ln2Lo; r2 = r·r
//	q01 = (c0 + c1·r) + (c2 + c3·r)·r2, and q23, q45 alike from c4–c11
//	q = (q01 + q23·r4) + q45·(r4·r4) with r4 = r2·r2; em = r + q·r2
//	s = 2ᵏ (kb's bits shifted left by 52)
//	p = em·s; y = (p + (s − 1))/(p + (s + 1))
//	|y| with x's sign; x itself where x is a NaN
#define TANH_PAIR \
	VANDPD ABSMASK, Y7, Y0; \
	VANDPD ABSMASK, Y15, Y8; \
	VMINPD SAT, Y0, Y0; \
	VMINPD SAT, Y8, Y8; \
	VMULPD NEGTWO, Y0, Y0; \
	VMULPD NEGTWO, Y8, Y8; \
	VMULPD INVLN2, Y0, Y1; \
	VMULPD INVLN2, Y8, Y9; \
	VADDPD BIAS, Y1, Y1; \
	VADDPD BIAS, Y9, Y9; \
	VSUBPD BIAS, Y1, Y2; \
	VSUBPD BIAS, Y9, Y10; \
	VMULPD LN2HI, Y2, Y3; \
	VMULPD LN2HI, Y10, Y11; \
	VSUBPD Y3, Y0, Y0; \
	VSUBPD Y11, Y8, Y8; \
	VMULPD LN2LO, Y2, Y3; \
	VMULPD LN2LO, Y10, Y11; \
	VSUBPD Y3, Y0, Y0; \
	VSUBPD Y11, Y8, Y8; \
	VMULPD Y0, Y0, Y2; \
	VMULPD Y8, Y8, Y10; \
	VMULPD Q(1), Y0, Y3; \
	VMULPD Q(1), Y8, Y11; \
	VMULPD Q(3), Y0, Y4; \
	VMULPD Q(3), Y8, Y12; \
	VADDPD Q(0), Y3, Y3; \
	VADDPD Q(0), Y11, Y11; \
	VADDPD Q(2), Y4, Y4; \
	VADDPD Q(2), Y12, Y12; \
	VMULPD Y2, Y4, Y4; \
	VMULPD Y10, Y12, Y12; \
	VADDPD Y4, Y3, Y3; \
	VADDPD Y12, Y11, Y11; \
	VMULPD Q(5), Y0, Y4; \
	VMULPD Q(5), Y8, Y12; \
	VMULPD Q(7), Y0, Y5; \
	VMULPD Q(7), Y8, Y13; \
	VADDPD Q(4), Y4, Y4; \
	VADDPD Q(4), Y12, Y12; \
	VADDPD Q(6), Y5, Y5; \
	VADDPD Q(6), Y13, Y13; \
	VMULPD Y2, Y5, Y5; \
	VMULPD Y10, Y13, Y13; \
	VADDPD Y5, Y4, Y4; \
	VADDPD Y13, Y12, Y12; \
	VMULPD Q(9), Y0, Y5; \
	VMULPD Q(9), Y8, Y13; \
	VMULPD Q(11), Y0, Y6; \
	VMULPD Q(11), Y8, Y14; \
	VADDPD Q(8), Y5, Y5; \
	VADDPD Q(8), Y13, Y13; \
	VADDPD Q(10), Y6, Y6; \
	VADDPD Q(10), Y14, Y14; \
	VMULPD Y2, Y6, Y6; \
	VMULPD Y10, Y14, Y14; \
	VADDPD Y6, Y5, Y5; \
	VADDPD Y14, Y13, Y13; \
	VMULPD Y2, Y2, Y6; \
	VMULPD Y10, Y10, Y14; \
	VMULPD Y6, Y4, Y4; \
	VMULPD Y14, Y12, Y12; \
	VADDPD Y4, Y3, Y3; \
	VADDPD Y12, Y11, Y11; \
	VMULPD Y6, Y6, Y6; \
	VMULPD Y14, Y14, Y14; \
	VMULPD Y6, Y5, Y5; \
	VMULPD Y14, Y13, Y13; \
	VADDPD Y5, Y3, Y3; \
	VADDPD Y13, Y11, Y11; \
	VMULPD Y2, Y3, Y3; \
	VMULPD Y10, Y11, Y11; \
	VADDPD Y3, Y0, Y0; \
	VADDPD Y11, Y8, Y8; \
	VEXTRACTF128 $1, Y1, X2; \
	VEXTRACTF128 $1, Y9, X10; \
	VPSLLQ $52, X1, X1; \
	VPSLLQ $52, X9, X9; \
	VPSLLQ $52, X2, X2; \
	VPSLLQ $52, X10, X10; \
	VINSERTF128 $1, X2, Y1, Y1; \
	VINSERTF128 $1, X10, Y9, Y9; \
	VMULPD Y1, Y0, Y0; \
	VMULPD Y9, Y8, Y8; \
	VSUBPD ONE, Y1, Y2; \
	VSUBPD ONE, Y9, Y10; \
	VADDPD ONE, Y1, Y1; \
	VADDPD ONE, Y9, Y9; \
	VADDPD Y2, Y0, Y2; \
	VADDPD Y10, Y8, Y10; \
	VADDPD Y1, Y0, Y0; \
	VADDPD Y9, Y8, Y8; \
	VDIVPD Y0, Y2, Y0; \
	VDIVPD Y8, Y10, Y8; \
	VANDPD ABSMASK, Y0, Y0; \
	VANDPD ABSMASK, Y8, Y8; \
	VANDPD SIGNMASK, Y7, Y2; \
	VANDPD SIGNMASK, Y15, Y10; \
	VORPD Y2, Y0, Y0; \
	VORPD Y10, Y8, Y8; \
	VCMPPD $3, Y7, Y7, Y2; \
	VCMPPD $3, Y15, Y15, Y10; \
	VBLENDVPD Y2, Y7, Y0, Y0; \
	VBLENDVPD Y10, Y15, Y8, Y8
