// Package checkpoint defines the versioned on-disk format for
// interrupted solver runs. A checkpoint file is a single JSON object —
// human-inspectable, stdlib-only, and exact: encoding/json round-trips
// float64 values bit-for-bit (shortest-representation printing), and
// the few quantities that can hold ±Inf are carried as IEEE-754 bit
// patterns in uint64 fields, so a decoded checkpoint resumes
// bit-identically to the run that wrote it.
//
// The envelope binds a snapshot to the run that produced it: a magic
// string and format version, the engine kind, the seed, the problem
// size, and a hash of the model itself. Resume refuses a checkpoint
// whose envelope does not match the request, which turns the classic
// silent failure — resuming chip state against a different problem —
// into a typed error.
//
// Decode is hardened against arbitrary corrupt bytes: it validates the
// envelope and returns errors, never panics. The deep validation of
// the engine payload (dimensions, value ranges, PRNG positions)
// happens in the engine's own Restore path, which is equally
// panic-free; the two layers together make feeding a truncated,
// bit-flipped or hostile file a recoverable error.
package checkpoint

import (
	"encoding/json"
	"fmt"
	"math"

	"mbrim/internal/ising"
	"mbrim/internal/lattice"
	"mbrim/internal/multichip"
)

// Magic identifies a checkpoint file; Version is the format revision.
// Any incompatible change to the payload structs must bump Version.
const (
	Magic   = "mbrim-ckpt"
	Version = 1
)

// File is the envelope plus the engine payload. Exactly one payload
// field is set, matching Engine.
type File struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	// Engine is the core solver kind the run used (e.g.
	// "multichip-concurrent"); resume dispatches on it.
	Engine string `json:"engine"`
	// Seed and N describe the run; ModelHash fingerprints the problem
	// (couplings, biases, μ) so a checkpoint cannot be resumed against
	// a different model of the same size.
	Seed      uint64 `json:"seed"`
	N         int    `json:"n"`
	ModelHash uint64 `json:"modelHash"`
	// Multichip is the payload for the multichip engines.
	Multichip *multichip.Checkpoint `json:"multichip,omitempty"`
	// Warm is the engine-agnostic warm-start payload: the best spins
	// (and their energy) a run had found when it stopped. Unlike the
	// full-state payloads it resumes on a *different* engine — the
	// portfolio hand-off converts a losing entrant's best state into a
	// Warm envelope a second-stage engine starts from. Additive to
	// format version 1: files without it decode unchanged.
	Warm *Warm `json:"warm,omitempty"`
}

// Warm is the cross-engine warm-start snapshot.
type Warm struct {
	// Spins is the best configuration found (length N).
	Spins []int8 `json:"spins"`
	// EnergyBits is the IEEE-754 bit pattern of that configuration's
	// energy (uint64 so ±Inf round-trips exactly).
	EnergyBits uint64 `json:"energyBits"`
	// From names the engine that produced the state — provenance for
	// logs and the portfolio's win attribution, not validated on
	// resume.
	From string `json:"from,omitempty"`
}

// HashModel fingerprints a model with FNV-1a over its size, μ, the full
// row-major n×n coupling matrix and every bias (as IEEE-754 bits, so a
// −0 bias and NaN payloads distinguish). Only the stored couplings are
// visited: a byte of a zero entry leaves h ^= 0 untouched and multiplies
// by the prime, so a run of z absent entries is h *= prime^(8z) mod 2⁶⁴
// in closed form — the value is the n²-entry walk's, the one persisted
// checkpoints carry. It is not cryptographic — it guards against
// accidents, not adversaries.
func HashModel(m *ising.Model) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	// skip mixes z zero entries: h *= prime^(8z) by squaring.
	skip := func(z int) {
		for p, e := uint64(prime), uint64(z)*8; e > 0; e >>= 1 {
			if e&1 != 0 {
				h *= p
			}
			p *= p
		}
	}
	n := m.N()
	mix(uint64(n))
	mix(math.Float64bits(m.Mu()))
	lat, row, next := m.View(lattice.Auto), 0, 0 // next: the row-major index not yet mixed
	entry := func(j int, v float64) {
		skip(row + j - next)
		mix(math.Float64bits(v))
		next = row + j + 1
	}
	for i := 0; i < n; i++ {
		row = i * n
		lat.Scan(i, entry)
	}
	skip(n*n - next)
	for _, v := range m.Biases() {
		mix(math.Float64bits(v))
	}
	return h
}

// Encode serializes a checkpoint file, stamping the magic and version.
func Encode(f *File) ([]byte, error) {
	if f == nil {
		return nil, fmt.Errorf("checkpoint: nil file")
	}
	out := *f
	out.Magic = Magic
	out.Version = Version
	data, err := json.Marshal(&out)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	return data, nil
}

// Decode parses checkpoint bytes and validates the envelope. It never
// panics, whatever the input: corruption is reported as an error. The
// payload's deep validation happens when the engine restores it.
func Decode(data []byte) (*File, error) {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	if f.Magic != Magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q", f.Magic)
	}
	if f.Version != Version {
		return nil, fmt.Errorf("checkpoint: version %d, this build reads %d", f.Version, Version)
	}
	if f.N < 1 {
		return nil, fmt.Errorf("checkpoint: n=%d", f.N)
	}
	if f.Engine == "" {
		return nil, fmt.Errorf("checkpoint: missing engine")
	}
	return &f, nil
}

// EncodeWarm builds a warm-start envelope: the best spins an engine
// had found, bound to the model so it cannot warm-start a different
// problem. The spins are copied, not aliased.
func EncodeWarm(from string, seed uint64, m *ising.Model, spins []int8, energy float64) ([]byte, error) {
	if m == nil {
		return nil, fmt.Errorf("checkpoint: nil model")
	}
	if len(spins) != m.N() {
		return nil, fmt.Errorf("checkpoint: warm start has %d spins for a %d-spin model", len(spins), m.N())
	}
	return Encode(&File{
		Engine:    from,
		Seed:      seed,
		N:         m.N(),
		ModelHash: HashModel(m),
		Warm: &Warm{
			Spins:      append([]int8(nil), spins...),
			EnergyBits: math.Float64bits(energy),
			From:       from,
		},
	})
}

// ValidateWarm checks a decoded warm-start envelope against the model
// it is about to seed. Engine and seed are deliberately not checked —
// crossing engines is the point of a warm-start hand-off — but the
// model must be the same problem and the spins must be well-formed.
func (f *File) ValidateWarm(m *ising.Model) error {
	if f.Warm == nil {
		return fmt.Errorf("checkpoint: no warm-start payload")
	}
	if f.N != m.N() {
		return fmt.Errorf("checkpoint: written for %d spins, warm-starting %d", f.N, m.N())
	}
	if h := HashModel(m); f.ModelHash != h {
		return fmt.Errorf("checkpoint: model hash %#x does not match this problem (%#x)", f.ModelHash, h)
	}
	if len(f.Warm.Spins) != m.N() {
		return fmt.Errorf("checkpoint: warm payload has %d spins for a %d-spin model", len(f.Warm.Spins), m.N())
	}
	for i, s := range f.Warm.Spins {
		if s != -1 && s != 1 {
			return fmt.Errorf("checkpoint: warm spin [%d]=%d is not a spin", i, s)
		}
	}
	return nil
}

// Validate checks a decoded file against the run it is about to
// resume.
func (f *File) Validate(engine string, seed uint64, m *ising.Model) error {
	if f.Engine != engine {
		return fmt.Errorf("checkpoint: written by engine %q, resuming %q", f.Engine, engine)
	}
	if f.Seed != seed {
		return fmt.Errorf("checkpoint: written with seed %d, resuming %d", f.Seed, seed)
	}
	if f.N != m.N() {
		return fmt.Errorf("checkpoint: written for %d spins, resuming %d", f.N, m.N())
	}
	if h := HashModel(m); f.ModelHash != h {
		return fmt.Errorf("checkpoint: model hash %#x does not match this problem (%#x)", f.ModelHash, h)
	}
	return nil
}
