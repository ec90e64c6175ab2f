// Package rng provides small, fast, deterministic pseudo-random number
// generators with explicit state.
//
// The multiprocessor architecture in the paper (Sec 5.4.2) relies on
// every chip holding a replica of the same PRNG so that stochastically
// induced spin flips can be applied everywhere without any
// communication. That requires generators that are (a) deterministic
// for a given seed, (b) cheaply cloneable so replicas can be handed to
// each chip, and (c) forkable so independent subsystems (solvers, job
// initializers, workload generators) do not share a stream by accident.
//
// The core generator is xoshiro256**, seeded through splitmix64, the
// combination recommended by the xoshiro authors. It is not
// cryptographically secure; it is a simulation PRNG.
package rng

import "math"

// gamma is splitmix64's increment, the odd constant nearest 2⁶⁴/φ.
const gamma = 0x9e3779b97f4a7c15

// Mix64 is splitmix64 as a stateless hash: the output of a splitmix64
// generator whose state was x, i.e. the finalizer of x + gamma. It is a
// bijection with good avalanche behaviour even from small inputs, which
// is why it seeds Sources, derives fork seeds and, outside this
// package, turns (seed, counter) pairs into backoff jitter, chaos fates
// and fault streams.
func Mix64(x uint64) uint64 {
	z := x + gamma
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a xoshiro256** generator. The zero value is invalid; use
// New. Source is not safe for concurrent use; clone or fork instead of
// sharing.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via splitmix64. Two Sources
// created with the same seed produce identical streams.
func New(seed uint64) *Source {
	var r Source
	r.Reseed(seed)
	return &r
}

// Reseed resets the generator to the state derived from seed, as if it
// had just been created by New(seed).
func (r *Source) Reseed(seed uint64) {
	for i := range r.s {
		r.s[i] = Mix64(seed)
		seed += gamma
	}
	// xoshiro256** requires a state that is not all zero; splitmix64 of
	// any seed cannot produce four zero words, but guard regardless.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = gamma
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 bits of the stream.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// LowBits returns the low bits of the next k outputs, the first in bit
// 0, and leaves r where k calls of Uint64 would: bit t is the
// Uint64()&1 of call t. It panics unless 0 <= k <= 64. The state stays
// in registers for the k steps, so a run of coin flips costs a step
// each and no store.
func (r *Source) LowBits(k int) uint64 {
	if uint(k) > 64 {
		panic("rng: LowBits called with k outside 0..64")
	}
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	var out uint64
	for t := 0; t < k; t++ {
		// Uint64's rotl(s1·5, 7)·9 has the low bit of the rotation, which
		// is bit 57 of s1·5: ·9 adds 8 times it, an even number.
		out |= (s1 * 5 >> 57 & 1) << uint(t)
		u := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= u
		s3 = rotl(s3, 45)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return out
}

// Clone returns an independent copy of r at its current state. The
// clone and the original then produce identical streams — this is the
// primitive behind coordinated induced spin flips: each chip gets a
// clone and draws the same values at the same logical step.
func (r *Source) Clone() *Source {
	c := *r
	return &c
}

// Fork derives a new, statistically independent Source from r without
// disturbing replicas of r: the fork seed is drawn by hashing the
// current state with a label rather than by advancing the stream.
// Distinct labels give distinct streams.
func (r *Source) Fork(label uint64) *Source {
	return New(Mix64(r.s[0] ^ rotl(r.s[2], 13) ^ (label * gamma)))
}

// State returns the current internal state, for equality checks in
// tests and for snapshotting a synchronized ensemble.
func (r *Source) State() [4]uint64 { return r.s }

// SetState restores a state previously captured with State, positioning
// the stream exactly where the snapshot was taken — the primitive
// behind bit-identical checkpoint/resume. An all-zero state is invalid
// for xoshiro256** (the generator would emit zeros forever); it is
// replaced with the same guard word Reseed uses, so a corrupt snapshot
// degrades the stream but can never wedge it.
func (r *Source) SetState(s [4]uint64) {
	r.s = s
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	// 53 high bits, standard conversion.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's multiply-shift with rejection for exact uniformity.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := mul64(v, un)
	if lo < un {
		threshold := (-un) % un
		for lo < threshold {
			v = r.Uint64()
			hi, lo = mul64(v, un)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t&mask32 + x0*y1
	hi = x1*y1 + t>>32 + w1>>32
	lo = x * y
	return
}

// Spin returns -1 or +1 with equal probability, the natural random
// initial value for an Ising spin: the low bit of one Uint64, 0 for -1
// and 1 for +1. It is arithmetic, not a branch, because that bit is a
// coin flip a branch predictor would miss half the time.
func (r *Source) Spin() int8 {
	return int8(r.Uint64()&1)*2 - 1
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Metropolis is the Metropolis acceptance test at one inverse
// temperature β: a move that raises the energy by ΔE > 0 is taken with
// probability exp(−β·ΔE), and any other is taken outright. It decides
// exactly as r.Float64() < math.Exp(-β*ΔE) does, drawing the same one
// Uint64, but pays math.Exp once per (β, ΔE) for the even integer ΔE a
// ±1 model produces.
//
// Float64 is the integer u = Uint64()>>11 over 2⁵³, and scaling by 2⁵³
// is exact, so the test is u < x for x = exp(−β·ΔE)·2⁵³; for an
// integer u that is u < ⌈x⌉. The table keeps ⌈x⌉ for ΔE = 2h, 1 ≤ h ≤
// n, each filled by that very math.Exp the first time it is asked for;
// any other ΔE — odd, fractional, past the table, ±Inf, NaN — takes
// the expression itself. The zero value is usable and has no table.
type Metropolis struct {
	beta float64
	// notBound[h] is ^⌈exp(−β·2h)·2⁵³⌉, or 0 while unfilled at this β:
	// a bound is at most 2⁵³, so its complement is never 0, and a
	// change of β is one clear.
	notBound []uint64
}

// NewMetropolis returns the test for ΔE up to 2n at inverse temperature
// beta: a table of n+1 words.
func NewMetropolis(n int, beta float64) *Metropolis {
	return &Metropolis{beta: beta, notBound: make([]uint64, n+1)}
}

// SetBeta moves the test to inverse temperature beta, forgetting the
// bounds of the old one unless the bits are the same.
func (m *Metropolis) SetBeta(beta float64) {
	if math.Float64bits(beta) != math.Float64bits(m.beta) {
		m.beta = beta
		clear(m.notBound)
	}
}

// Accept reports whether a move of energy change delta is taken,
// drawing one Uint64 from r when delta > 0 and none otherwise.
func (m *Metropolis) Accept(r *Source, delta float64) bool {
	return delta <= 0 || m.uphill(r, delta)
}

func (m *Metropolis) uphill(r *Source, delta float64) bool {
	h := int(delta * 0.5)
	if uint(h) < uint(len(m.notBound)) && float64(2*h) == delta {
		nb := m.notBound[h]
		if nb == 0 {
			nb = m.fill(h)
		}
		return r.Uint64()>>11 < ^nb
	}
	return r.Float64() < math.Exp(-m.beta*delta)
}

// fill computes and keeps the complemented bound for ΔE = 2h. For
// 37 ≤ β·2h ≤ 700 the bound is 1 without asking math.Exp: exp(−β·2h) is
// then a normal double at least 23 % below 2⁻⁵³, far past Exp's 1-ulp
// error, so x lies in (0, 1) and ⌈x⌉ = 1.
func (m *Metropolis) fill(h int) uint64 {
	y := m.beta * float64(2*h)
	var b uint64
	if y >= 37 && y <= 700 {
		b = 1
	} else {
		x := math.Exp(-y) * (1 << 53) // exact: a power of two
		switch {
		case !(x > 0): // 0 or NaN: no draw is below it
		case x >= 1<<53: // every draw is below it
			b = 1 << 53
		default:
			b = uint64(math.Ceil(x))
		}
	}
	m.notBound[h] = ^b
	return ^b
}

// Perm returns a random permutation of [0, n) using Fisher–Yates.
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
