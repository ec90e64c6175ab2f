package lattice

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/big"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mbrim/internal/rng"
)

// tanhMaxULP is the stated accuracy of the owned tanh: its largest
// distance from the true value, in units of the result's last place,
// over everything TestTanhAccuracy measures. The measured maximum is
// 2.09 over 400 000 arguments, near |x| = 0.51, where numerator,
// denominator and quotient each round at their coarsest relative to the
// result; math.Tanh stays within 1.
const tanhMaxULP = 2.5

// tanhEdges are where a tanh goes wrong first: both zeros, the smallest
// and largest subnormals, values whose square underflows, every
// reduction boundary's neighbourhood (|x| = (m+½)·ln2/2), the saturation
// edge from both sides, the largest finite double, infinities and NaNs
// of both kinds, signs and payloads.
func tanhEdges() []float64 {
	edges := []float64{
		0, math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1022 - math.SmallestNonzeroFloat64,
		1e-300, 0x1p-600, 0x1p-54, 0x1p-30, 1e-5, 0.1, 0.5, 163.0 / 256, 1, 1.5, 3, 10,
		math.Nextafter(TanhSaturation, 0), TanhSaturation, math.Nextafter(TanhSaturation, 20),
		19, 20, 40, 1e10, math.MaxFloat64, math.Inf(1),
		math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff0000000000001),
		math.Float64frombits(0x7fffffffffffffff),
	}
	for m := 0; m < 56; m++ {
		b := (float64(m) + 0.5) * math.Ln2 / 2
		edges = append(edges, math.Nextafter(b, 0), b, math.Nextafter(b, 40))
	}
	for _, e := range edges {
		edges = append(edges, -e)
	}
	return edges
}

// tanhOf evaluates one argument through the range form, at the given
// position of a slice long enough to put it in a lane group when the
// lanes are on.
func tanhOf(x float64, at int) float64 {
	buf := []float64{0.25, -0.5, 0.75, -1, 1.25, -1.5, 1.75, -2, 2.25}
	buf[at] = x
	Tanh(buf)
	return buf[at]
}

// checkTanhSlice runs the range form over args placed off elements into
// a poisoned buffer, on the kernel in force, and holds every result to
// tanhGo's bits — NaNs included, since both forms hand a NaN back
// untouched — and every element outside the slice to its poison.
func checkTanhSlice(t *testing.T, off int, args []float64) {
	t.Helper()
	const poison = 12345.5
	buf := make([]float64, off+len(args)+3)
	for i := range buf {
		buf[i] = poison
	}
	in := buf[off : off+len(args)]
	copy(in, args)
	Tanh(in)
	for i, x := range args {
		if want := tanhGo(x); math.Float64bits(in[i]) != math.Float64bits(want) {
			t.Fatalf("%s len %d offset %d element %d: tanh(%v = %#x) = %#x, tanhGo %#x",
				armName(), len(args), off, i, x, math.Float64bits(x), math.Float64bits(in[i]), math.Float64bits(want))
		}
	}
	for i, v := range buf {
		if (i < off || i >= off+len(args)) && v != poison {
			t.Fatalf("%s len %d offset %d: wrote buf[%d]", armName(), len(args), off, i)
		}
	}
}

// TestTanhLanesMatchGo is the twin's proof: the range form, on both
// kernels, carries tanhGo's bits for the edges and for random bit
// patterns, at every slice length 0–17 and every start offset mod 4, so
// every placement in a pair of groups, a last odd group and the scalar
// remainder is covered; and it writes nothing outside its slice.
func TestTanhLanesMatchGo(t *testing.T) {
	r := rng.New(2100)
	pool := tanhEdges()
	for i := 0; i < 4096; i++ {
		pool = append(pool, math.Float64frombits(r.Uint64()), r.Float64()*50-25)
	}
	lanesAndGo(func() {
		at := 0
		for round := 0; round < 60; round++ {
			for n := 0; n <= 17; n++ {
				for off := 0; off < 4; off++ {
					args := make([]float64, n)
					for i := range args {
						args[i] = pool[at%len(pool)]
						at++
					}
					checkTanhSlice(t, off, args)
				}
			}
		}
	})
}

// TestLanesNeverFuse reads the assembly. Comparing bits finds a fused
// product only where the product's rounding reaches the result: fusing
// em's does (4 % of small arguments move, and TestTanhLanesMatchGo,
// TestTanhProperties and FuzzTanh's corpus fail), but a product far
// below the last place of the sum it joins — k·ln2Lo into r, q23·r⁴
// into q — moved none of the 37 000 arguments compared here when it was
// fused. No fused mnemonic in any kernel's source is the check that
// does not depend on luck.
func TestLanesNeverFuse(t *testing.T) {
	for _, file := range laneSources(t) {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, fused := range []string{"FMADD", "FMSUB", "FNMADD", "FNMSUB"} {
			if bytes.Contains(src, []byte(fused)) {
				t.Errorf("%s contains a %s instruction: every product must round on its own", file, fused)
			}
		}
	}
}

// laneSources are the files that hold the lane kernels' instructions:
// every amd64 assembly file and header of the package.
func laneSources(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*_amd64.[sh]")
	if err != nil || len(files) == 0 {
		t.Fatalf("no lane sources found: %v", err)
	}
	return files
}

// zmmAllowed is all each file dispatched under useAVX512 rather than
// useAVX may hold: AVX-512F and AVX1 float moves and arithmetic and the
// scalar code around them — sweep64's loop and cpuHasAVX512F's probe,
// and the zmm latch stage's tanh, tail, compares and blends.
var zmmAllowed = map[string]map[string]bool{
	"sweep64_amd64.s": set("VBROADCASTSD VMULPD VADDPD VMOVUPD VZEROUPPER TEXT #include MOVQ MOVL MOVB XORL " +
		"ADDQ DECQ ANDL TESTQ TESTL CMPL JB JEQ JNE JNZ JLE RET CPUID XGETBV"),
	"latch512_amd64.s": set("VBROADCASTSD VMULPD VADDPD VSUBPD VDIVPD VMINPD VMOVUPD VMOVAPD VPANDQ VPORQ " +
		"VPSLLQ VCMPPD VBLENDMPD KMOVW VZEROUPPER TEXT #include #define TANH_PAIR_Z LATCH_TAIL_Z " +
		"MOVQ XORQ CMPQ TESTQ LEAQ ADDQ SUBQ SHRQ BSFQ JGE JLE JZ JMP RET"),
}

// beyondF names what a zmm kernel reaches for first that AVX-512F lacks:
// the float logic ops on zmm and byte masks (DQ), wider mask moves (BW).
var beyondF = map[string]string{
	"VANDPD": "AVX-512DQ", "VANDNPD": "AVX-512DQ", "VORPD": "AVX-512DQ", "VXORPD": "AVX-512DQ",
	"KMOVB": "AVX-512DQ", "VPMOVQ2M": "AVX-512DQ", "VPMOVM2Q": "AVX-512DQ",
	"KMOVD": "AVX-512BW", "KMOVQ": "AVX-512BW", "VPMOVB2M": "AVX-512BW",
}

func set(words string) map[string]bool {
	m := map[string]bool{}
	for _, w := range strings.Fields(words) {
		m[w] = true
	}
	return m
}

// TestLanesStayAVX1 reads the assembly too: useAVX proves AVX, not AVX2,
// so no kernel it dispatches may hold an instruction only AVX2 has —
// integer work on ymm (VPTEST and the VPERMIL/VPERM2F128 float permutes
// are AVX1), broadcasts of integers or from a register, 128-bit integer
// inserts and extracts, cross-lane permutes, gathers, masked integer
// moves, variable shifts and dword blends — nor a zmm or mask register
// or an EVEX suffix. A file dispatched under useAVX512 holds only its
// zmmAllowed (with .BCST operands, which AVX-512F has), nothing of
// beyondF, no xmm or ymm operand (an EVEX form on them is AVX-512VL),
// only Z0–Z15 — VZEROUPPER leaves Z16–Z31 dirty — and K1–K7 only in
// latch512_amd64.s, whose compares need them.
func TestLanesStayAVX1(t *testing.T) {
	ymm := regexp.MustCompile(`\bY\d+\b`)
	avx2 := regexp.MustCompile(`^(VPBROADCAST|VBROADCASTI128|V(INSERT|EXTRACT)I128|VPERM[DQ]$|VPERMP[DS]|V(P?)GATHER|VPMASKMOV|VPS(LL|RL|RA)V|VPBLENDD)`)
	evex := regexp.MustCompile(`\b(Z\d+|K[0-7])\b`)
	vl := regexp.MustCompile(`\b[XY]\d+\b`)
	highZ := regexp.MustCompile(`\bZ(1[6-9]|2\d|3[01])\b`)
	mask := regexp.MustCompile(`\bK[0-7]\b`)
	for _, file := range laneSources(t) {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		allowed := zmmAllowed[file]
		for l, line := range strings.Split(string(src), "\n") {
			code, _, _ := strings.Cut(line, "//")
			for _, ins := range strings.Split(strings.TrimSuffix(strings.TrimSpace(code), `\`), ";") {
				f := strings.Fields(ins)
				if len(f) == 0 {
					continue
				}
				op, args := f[0], strings.Join(f[1:], " ")
				bad := func(why string) { t.Errorf("%s:%d: %s %s", file, l+1, strings.TrimSpace(ins), why) }
				if allowed != nil {
					base := strings.TrimSuffix(op, ".BCST")
					switch {
					case beyondF[base] != "":
						bad("is " + beyondF[base] + ", and cpuHasAVX512F proves only AVX-512F")
					case !allowed[base] && !strings.HasSuffix(op, ":"):
						bad("is outside what cpuHasAVX512F proves")
					case vl.MatchString(args):
						bad("is AVX-512VL on an xmm or ymm register")
					case highZ.MatchString(args):
						bad("names Z16–Z31, which VZEROUPPER leaves dirty")
					case mask.MatchString(args) && (file != "latch512_amd64.s" || strings.Contains(args, "K0")):
						bad("names a mask register outside K1–K7 of latch512_amd64.s")
					}
					continue
				}
				float := op == "VPTEST" || op == "VPERM2F128" || strings.HasPrefix(op, "VPERMIL")
				fromReg := strings.HasPrefix(op, "VBROADCASTS") && strings.HasPrefix(args, "X")
				if avx2.MatchString(op) || fromReg || (strings.HasPrefix(op, "VP") && !float && ymm.MatchString(args)) ||
					evex.MatchString(args) || strings.Contains(op, ".") {
					bad("is AVX2 or AVX-512, and useAVX proves only AVX")
				}
			}
		}
	}
}

// TestTanhProperties: odd bit for bit; never past ±1 and exactly ±1
// from TanhSaturation on, ±Inf included; ±0, subnormals and everything
// else below 2⁻⁵⁴ (where 2 + e is 2 and r² is below r's last place) come
// back unchanged; a NaN comes back as the same NaN (the RK4 guardrail
// finds a diverged step by the NaN in its candidate — tanh must not
// launder one).
func TestTanhProperties(t *testing.T) {
	r := rng.New(2101)
	args := tanhEdges()
	for i := 0; i < 20000; i++ {
		args = append(args, math.Float64frombits(r.Uint64()), r.Float64()*42-21)
	}
	lanesAndGo(func() {
		for i, x := range args {
			y, neg := tanhOf(x, i%9), tanhOf(-x, (i+4)%9)
			if math.Float64bits(y)^math.Float64bits(neg) != signBit {
				t.Fatalf("%s not odd at %v: %#x, %#x", armName(), x, math.Float64bits(y), math.Float64bits(neg))
			}
			a := math.Abs(x)
			switch {
			case x != x:
				if math.Float64bits(y) != math.Float64bits(x) {
					t.Fatalf("%s tanh(NaN %#x) = %#x", armName(), math.Float64bits(x), math.Float64bits(y))
				}
			case a >= TanhSaturation:
				if math.Abs(y) != 1 {
					t.Fatalf("%s tanh(%v) = %v, want ±1", armName(), x, y)
				}
			case a < 0x1p-54:
				if math.Float64bits(y) != math.Float64bits(x) {
					t.Fatalf("%s tanh(%v) = %v, want the argument", armName(), x, y)
				}
			default:
				if !(math.Abs(y) <= 1) || math.Signbit(y) != math.Signbit(x) {
					t.Fatalf("%s tanh(%v) = %v", armName(), x, y)
				}
			}
		}
	})
}

// TestTanhMonotone: non-decreasing over the dense sweep — every point of
// a 2⁻¹² grid over [−20, 20] in one slice — and over runs of consecutive
// doubles across every reduction boundary, the saturation edge and
// random places, where a one-ulp step down would show first.
func TestTanhMonotone(t *testing.T) {
	const step = 1.0 / 4096
	grid := make([]float64, 0, 40*4096+1)
	for i := -20 * 4096; i <= 20*4096; i++ {
		grid = append(grid, float64(i)*step)
	}
	starts := []float64{TanhSaturation - 1e-12, 1e-300, 0x1p-54, 0x1p-27, 0.5, 1, 5}
	for m := 0; m < 56; m++ {
		starts = append(starts, (float64(m)+0.5)*math.Ln2/2)
	}
	r := rng.New(2102)
	for i := 0; i < 40; i++ {
		starts = append(starts, r.Float64()*20)
	}
	const run = 4096
	lanesAndGo(func() {
		got := append([]float64(nil), grid...)
		Tanh(got)
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				t.Fatalf("%s tanh(%v) = %v > tanh(%v) = %v", armName(), grid[i-1], got[i-1], grid[i], got[i])
			}
		}
		xs, ys := make([]float64, run), make([]float64, run)
		for _, s := range starts {
			x := math.Float64frombits(math.Float64bits(s) - run/2)
			for i := range xs {
				xs[i] = x
				x = math.Nextafter(x, 40)
			}
			copy(ys, xs)
			Tanh(ys)
			for i := 1; i < run; i++ {
				if ys[i] < ys[i-1] {
					t.Fatalf("%s tanh(%#x) = %#x > tanh(next) = %#x", armName(),
						math.Float64bits(xs[i-1]), math.Float64bits(ys[i-1]), math.Float64bits(ys[i]))
				}
			}
		}
	})
}

const bigPrec = 320

func bigF(x float64) *big.Float { return new(big.Float).SetPrec(bigPrec).SetFloat64(x) }

// bigTanh is the reference: tanh(x) to some 250 bits, from the Taylor
// series of exp on an argument halved until it is below 2⁻¹⁶ and squared
// back, or from x − x³/3 where exp(2x) − 1 would cancel; past 40 the
// distance from 1 is below 2⁻¹¹⁴.
func bigTanh(x float64) *big.Float {
	if x > 40 {
		return bigF(1)
	}
	if math.Abs(x) < 0x1p-40 {
		bx := bigF(x)
		cube := new(big.Float).SetPrec(bigPrec).Mul(bx, bx)
		cube.Mul(cube, bx)
		return bx.Sub(bx, cube.Quo(cube, bigF(3)))
	}
	const halvings = 24
	z := new(big.Float).SetPrec(bigPrec).SetMantExp(bigF(2*x), -halvings)
	e, term := bigF(1), bigF(1)
	for n := 1; n <= 40; n++ {
		term.Mul(term, z)
		term.Quo(term, bigF(float64(n)))
		e.Add(e, term)
	}
	for i := 0; i < halvings; i++ {
		e.Mul(e, e)
	}
	num := new(big.Float).SetPrec(bigPrec).Sub(e, bigF(1))
	return num.Quo(num, e.Add(e, bigF(1)))
}

// ulpsFrom returns |y − ref| in units of the last place of ref's
// nearest double.
func ulpsFrom(y float64, ref *big.Float) float64 {
	near, _ := ref.Float64()
	ulp := math.Nextafter(math.Abs(near), math.Inf(1)) - math.Abs(near)
	d := new(big.Float).SetPrec(bigPrec).Sub(bigF(y), ref)
	d.Quo(d.Abs(d), bigF(ulp))
	f, _ := d.Float64()
	return f
}

// ulpsBetween is the distance between two finite doubles of one sign in
// representable steps.
func ulpsBetween(a, b float64) uint64 {
	ua, ub := math.Float64bits(math.Abs(a)), math.Float64bits(math.Abs(b))
	if ua < ub {
		ua, ub = ub, ua
	}
	return ua - ub
}

// TestTanhAccuracy states the error. Against the big.Float reference:
// at most tanhMaxULP on the edges, on arguments uniform in [0, 20], on
// arguments uniform in exponent down to 2⁻⁶⁰, and near every reduction
// boundary. Against math.Tanh — itself within one ulp, with last bits
// that differ between hosts, which is why it left — at most 3 steps on
// every point of a 2⁻¹⁰ grid over [−20, 20].
func TestTanhAccuracy(t *testing.T) {
	r := rng.New(2103)
	var args []float64
	for _, x := range tanhEdges() {
		if x > 0 && !math.IsInf(x, 0) {
			args = append(args, x)
		}
	}
	for i := 0; i < 3000; i++ {
		args = append(args, r.Float64()*20, math.Ldexp(1+r.Float64(), -r.Intn(61)),
			(float64(r.Intn(56))+0.5)*math.Ln2/2+(r.Float64()-0.5)*1e-9)
	}
	lanesAndGo(func() {
		worst, at := 0.0, 0.0
		for i, x := range args {
			if u := ulpsFrom(tanhOf(x, i%9), bigTanh(x)); u > worst {
				worst, at = u, x
			}
		}
		t.Logf("%s: %d references, worst %.3f ulp at %v", armName(), len(args), worst, at)
		if worst > tanhMaxULP {
			t.Fatalf("%s tanh(%v) is %.3f ulp from the reference, stated bound %v", armName(), at, worst, tanhMaxULP)
		}

		const step = 1.0 / 1024
		var hist [4]int
		grid := make([]float64, 0, 40*1024+1)
		for i := -20 * 1024; i <= 20*1024; i++ {
			grid = append(grid, float64(i)*step)
		}
		got := append([]float64(nil), grid...)
		Tanh(got)
		for i, x := range grid {
			d := ulpsBetween(got[i], math.Tanh(x))
			if d > 3 {
				t.Fatalf("%s tanh(%v) = %v, math.Tanh %v: %d steps apart", armName(), x, got[i], math.Tanh(x), d)
			}
			hist[d]++
		}
		t.Logf("%s: steps from math.Tanh on %d grid points: 0:%d 1:%d 2:%d 3:%d", armName(), len(grid), hist[0], hist[1], hist[2], hist[3])
	})
}

// FuzzTanh feeds raw bit patterns: every 8 bytes one argument, placed
// at the offset mod 4 the first byte names, so the fuzzer moves values
// between lane groups, the odd last group and the scalar remainder. On
// both kernels the range form must carry tanhGo's bits exactly and write
// only its slice (checkTanhSlice), and tanhGo must stay odd and within
// ±1.
func FuzzTanh(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), binary.LittleEndian.AppendUint64(nil, math.Float64bits(163.0/256)))
	seed := []byte{}
	for _, x := range tanhEdges()[:40] {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(x))
	}
	for n := 0; n <= 9; n++ {
		for off := uint8(0); off < 4; off++ {
			f.Add(off, seed[8*n:16*n])
		}
	}
	f.Add(uint8(2), seed)
	// A fused product changes few results — a fused em 4 % of arguments
	// below ln2/4, where no reduction hides the polynomial's last bit, and
	// 0.9 % of a chip's γ·V — so the corpus carries enough of both that a
	// mutant in either lane group meets one (TestTanhLanesMatchGo carries
	// far more).
	r, typical := rng.New(2104), []byte{}
	for i := 0; i < 512; i++ {
		span := []float64{0.17, 1.8}[i/4%2]
		typical = binary.LittleEndian.AppendUint64(typical, math.Float64bits((r.Float64()*2-1)*span))
	}
	f.Add(uint8(3), typical)
	f.Fuzz(func(t *testing.T, off uint8, raw []byte) {
		args := make([]float64, len(raw)/8)
		for i := range args {
			args[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		for _, x := range args {
			y, neg := tanhGo(x), tanhGo(-x)
			if math.Float64bits(y)^math.Float64bits(neg) != signBit || math.Abs(y) > 1 {
				t.Fatalf("tanhGo(%#x) = %#x, tanhGo(−x) = %#x", math.Float64bits(x), math.Float64bits(y), math.Float64bits(neg))
			}
		}
		lanesAndGo(func() { checkTanhSlice(t, int(off%4), args) })
	})
}
