package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"runtime"
	"testing"

	"mbrim/internal/interconnect"
	"mbrim/internal/ising"
	"mbrim/internal/lattice"
	"mbrim/internal/multichip"
	"mbrim/internal/rng"
)

// FuzzEpochReport feeds arbitrary step-response bytes through the
// barrier's consumption of a worker's report: checkReport must answer
// with an error or admit a report the rest of the barrier handles — the
// fabric charge does not panic, the spin mirror stays ±1, and a peer
// slice accepts the forwarded updates. (ROADMAP 5c: every byte that
// arrives over the network is fuzzed.)
func FuzzEpochReport(f *testing.F) {
	m := kmodel(12, 5)
	mcfg := multichip.Config{Chips: 2, Seed: 3}
	_, parts, err := multichip.Partition(m.N(), mcfg)
	if err != nil {
		f.Fatal(err)
	}
	sender, err := multichip.NewSlice(m, mcfg, 0, 20)
	if err != nil {
		f.Fatal(err)
	}
	rep, err := sender.RunEpoch()
	if err != nil {
		f.Fatal(err)
	}
	genuine, err := json.Marshal(&StepResponse{Report: packReport(rep)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(genuine)
	f.Add([]byte(`{}`))
	// The slice owns spins 0..5, so its readout is one byte with two
	// padding bits; "Pw==" is 0x3f, all six up. Update words are
	// g<<2 | induced<<1 | up, little-endian, base64.
	f.Add([]byte(`{"report":{"epoch":1,"spins":"Pw==","updates":"AQAAAA0AAAA="}}`)) // spins 0 and 3 went up
	f.Add([]byte(`{"report":{"epoch":1,"spins":"Pw==","updates":"AQAAAAEAAAA="}}`)) // spin 0 twice
	f.Add([]byte(`{"report":{"epoch":1,"spins":"Pw==","updates":"LAAAAA=="}}`))     // g=11, the peer's
	f.Add([]byte(`{"report":{"epoch":1,"spins":"Pw==","updates":"DQAAAAkAAAA="}}`)) // g=3 then g=2
	f.Add([]byte(`{"report":{"epoch":1,"spins":"Pw==","updates":"AQAA"}}`))         // three bytes
	f.Add([]byte(`{"report":{"epoch":1,"spins":"fw=="}}`))                          // 0x7f: a padding bit set
	f.Add([]byte(`{"report":{"epoch":1,"spins":"Pz8="}}`))                          // two readout bytes
	f.Add([]byte(`{"report":{"epoch":1,"spins":"Pw==","updates":"BAAAAA=="}}`))     // spin 1 down, readout says up
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp StepResponse
		if json.Unmarshal(data, &resp) != nil {
			return
		}
		if checkReport(resp.Report, 1, parts[0]) != nil {
			return
		}
		rep := resp.Report
		interconnect.DeltaSyncBytes(len(rep.Updates)/4, len(parts[0]), 1)
		for li := range parts[0] {
			if v := spinAt(rep.Spins, li); v != -1 && v != 1 {
				t.Fatalf("admitted report mirrors spin %d as %d", li, v)
			}
		}
		peer, err := multichip.NewSlice(m, mcfg, 1, 20)
		if err != nil {
			t.Fatal(err)
		}
		ups, err := unpackUpdates(rep.Updates)
		if err != nil {
			t.Fatalf("admitted report, but its update list does not unpack: %v", err)
		}
		if err := peer.ApplySync(ups); err != nil {
			t.Fatalf("admitted report, but the peer slice rejects its updates: %v", err)
		}
	})
}

// FuzzStepRequest feeds arbitrary request bytes through what the worker
// does with a step or sync body — JSON-decode it, unpack the update
// list, hand it to ApplySync on a live slice: an error or a delivered
// barrier, never a panic.
func FuzzStepRequest(f *testing.F) {
	m := kmodel(12, 5)
	mcfg := multichip.Config{Chips: 2, Seed: 3}
	sender, err := multichip.NewSlice(m, mcfg, 1, 20)
	if err != nil {
		f.Fatal(err)
	}
	rep, err := sender.RunEpoch()
	if err != nil {
		f.Fatal(err)
	}
	genuine, err := json.Marshal(&StepRequest{Epoch: 2, Sync: packUpdates(rep.Updates)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(genuine)
	f.Add([]byte(`{"epoch":1}`))
	f.Add([]byte(`{"epoch":1,"sync":"AQAAAA=="}`))             // spin 0: the receiver's own
	f.Add([]byte(`{"epoch":1,"sync":"GQAAAA=="}`))             // spin 6 up
	f.Add([]byte(`{"epoch":1,"sync":"GQAAABkAAAA="}`))         // twice
	f.Add([]byte(`{"epoch":1,"sync":"GQAA"}`))                 // three bytes
	f.Add([]byte(`{"epoch":1,"sync":"/////w=="}`))             // g = 2^30−1
	f.Add([]byte(`{"epoch":1,"sync":[{"li":0,"g":6,"v":1}]}`)) // the form before packing
	f.Fuzz(func(t *testing.T, data []byte) {
		var step StepRequest
		var sync SyncRequest
		if json.Unmarshal(data, &step) != nil || json.Unmarshal(data, &sync) != nil {
			return
		}
		ups, err := unpackUpdates(step.Sync)
		if err != nil {
			return
		}
		sl, err := multichip.NewSlice(m, mcfg, 0, 20)
		if err != nil {
			t.Fatal(err)
		}
		if sl.ApplySync(ups) != nil {
			return
		}
		if _, err := sl.RunEpoch(); err != nil {
			t.Fatalf("slice accepted the barrier, then could not step: %v", err)
		}
	})
}

// FuzzModelFrame feeds arbitrary frames to ModelWire.Build: an error, or
// a model whose re-encoding decodes to the same bits — and either way at
// an allocation proportional to the frame and n, never to n²: what a
// frame may make a worker allocate is what it carries (a planes frame is
// itself n²/4 bits; a CSR frame of few entries builds few entries). The
// bound on n itself is TestWorkerRejectsOversizedModel's.
func FuzzModelFrame(f *testing.F) {
	for _, m := range frameModels() {
		// Small seeds only: the engine minimises every new interesting
		// input, and shrinking the offspring of a 160 KB frame eats the
		// whole ten-second CI budget (68 executions against 70 000).
		if w := ModelToWire(m.m); len(w.Frame) <= 600 {
			f.Add(uint16(w.N), w.Arm == armPlanes, w.Frame)
		}
	}
	f.Add(uint16(3), true, []byte{0x07, 0x08})              // a padding bit in the sign plane
	f.Add(uint16(3), true, []byte{0x01, 0x02})              // a sign without its presence
	f.Add(uint16(2), false, make([]byte, 8+12))             // row 0 claims no entry, one follows
	f.Add(uint16(2), false, []byte{1, 0, 0, 0, 0, 0, 0, 0}) // row 0 claims one entry, none follows
	f.Add(uint16(0), false, []byte{})                       // n = 0
	f.Add(uint16(40000), true, []byte{})                    // a big n over an empty frame
	f.Add(uint16(2000), false, make([]byte, 4*2000))        // a big n over a frame of no entries: 32 MB if dense
	f.Fuzz(func(t *testing.T, n uint16, planes bool, frame []byte) {
		w := &ModelWire{N: int(n), Arm: armCSR, Frame: frame}
		if planes {
			w.Arm = armPlanes
		}
		var m *ising.Model
		var err error
		if got, bound := allocatedBytes(func() { m, err = w.Build() }), frameAllocBound(w.Arm, len(frame), int(n), m); got > bound {
			t.Fatalf("Build of a %d-byte %s frame for n=%d allocated %d bytes, above %d", len(frame), w.Arm, n, got, bound)
		}
		if err != nil || n > 2000 {
			return // re-encoding a ±1 model takes the planes arm, n²/8 bytes whatever it stores
		}
		again, err := ModelToWire(m).Build()
		if err != nil {
			t.Fatalf("re-encoded frame does not build: %v", err)
		}
		sameModelBits(t, "re-encoded", again, m)
	})
}

// genuineSnapshot is slice 0 of a two-chip run over m at its first
// barrier, after the peer's updates were delivered across the wire.
func genuineSnapshot(tb testing.TB, m *ising.Model, mcfg multichip.Config) *multichip.SliceState {
	tb.Helper()
	var sl [2]*multichip.Slice
	var reps [2]*multichip.EpochReport
	for ci := range sl {
		var err error
		if sl[ci], err = multichip.NewSlice(m, mcfg, ci, 20); err != nil {
			tb.Fatal(err)
		}
		if reps[ci], err = sl[ci].RunEpoch(); err != nil {
			tb.Fatal(err)
		}
	}
	ups, err := unpackUpdates(packUpdates(reps[1].Updates))
	if err != nil {
		tb.Fatal(err)
	}
	if err := sl[0].ApplySync(ups); err != nil {
		tb.Fatal(err)
	}
	return sl[0].Snapshot()
}

// frameOwnedAt is where a packed snapshot's owned-vector length sits,
// after the four position fields and the four kick-PRNG words.
const frameOwnedAt = 8 * 8

// FuzzSliceFrame feeds arbitrary bytes to unpackState, the decoder of
// the snapshot a /sync round returns and a hand-off create carries: an
// error, or a state that packs back to the same bytes — nil and empty
// vectors kept apart, every float's bits kept — and that a live slice
// either refuses in Restore or steps from without a panic: to a report
// the barrier accepts, or to the integrator's divergence error.
func FuzzSliceFrame(f *testing.F) {
	m := kmodel(12, 5)
	mcfg := multichip.Config{Chips: 2, Seed: 3}
	_, parts, err := multichip.Partition(m.N(), mcfg)
	if err != nil {
		f.Fatal(err)
	}
	st := genuineSnapshot(f, m, mcfg)
	genuine := packState(st)
	f.Add(genuine)
	f.Add(packState(&multichip.SliceState{}))         // a nil machine, every vector nil
	f.Add(genuine[:len(genuine)/2])                   // truncated
	f.Add(append(append([]byte(nil), genuine...), 0)) // a trailing byte
	past := append([]byte(nil), genuine...)
	binary.LittleEndian.PutUint32(past[frameOwnedAt:], uint32(len(genuine))) // a length past the frame
	f.Add(past)
	two := append([]byte(nil), genuine...)
	two[len(two)-4-len(st.Belief)-1] = 2 // the last lastFlipInduced byte
	f.Add(two)
	f.Fuzz(func(t *testing.T, frame []byte) {
		st, err := unpackState(frame)
		if err != nil {
			return
		}
		if again := packState(st); !bytes.Equal(again, frame) {
			t.Fatalf("a %d-byte frame decodes to a state that packs to %d other bytes", len(frame), len(again))
		}
		sl, err := multichip.NewSlice(m, mcfg, 0, 20)
		if err != nil {
			t.Fatal(err)
		}
		if sl.Restore(st) != nil || sl.Done() {
			return
		}
		rep, err := sl.RunEpoch()
		if err != nil {
			return // a state no run reaches may diverge: the worker's 422
		}
		if err := checkReport(packReport(rep), rep.Epoch, parts[0]); err != nil {
			t.Fatalf("restored slice stepped to a report the barrier refuses: %v", err)
		}
	})
}

// allocatedBytes is what f allocates, by the runtime's own count.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// frameAllocBound is what ModelWire.Build may allocate for a frame of
// the given arm and length over n spins, given the model it built (nil
// on an error, which every arm reports before its first coupling). A
// spin costs five 8-byte vector slots. A CSR entry is 12 frame bytes and
// at most ~330 built ones (the float array of a weighted frame just over
// the 5 % density rule), ~64 when it stays compressed. A planes frame is
// ±1 by construction, so what it builds is what planes cost: a dense
// one its planes and row counts (lattice.Bytes), plus the builder's list
// of the first calls before it, which moves to the planes before it
// outgrows them — never the 8·n² floats it used to become; a sparse one compressed rows, at most ~160 bytes a
// call between the list, its filing and the lane slots.
func frameAllocBound(arm string, frameBytes, n int, m *ising.Model) uint64 {
	vectors := uint64(64*n + 16<<10)
	switch {
	case arm != armPlanes:
		return vectors + uint64(96*frameBytes)
	case m == nil:
		return vectors
	case m.View(lattice.Auto).Kind() == lattice.Dense:
		return vectors + 2*uint64(lattice.Bytes(m.View(lattice.Auto)))
	default:
		return vectors + 80*uint64(m.NNZ())
	}
}

// TestZeroFrameBuildsNoMatrix is the frame that used to ask for 34 GB:
// 262 144 bytes of zero row counts at n = 65 536 pass every check there
// is — and are a model with no couplings, which is what gets built.
func TestZeroFrameBuildsNoMatrix(t *testing.T) {
	const n = DefaultMaxSpins
	w := &ModelWire{N: n, Arm: armCSR, Frame: make([]byte, 4*n)}
	var m *ising.Model
	var err error
	got := allocatedBytes(func() { m, err = w.Build() })
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != n || m.NNZ() != 0 || m.View(lattice.Auto).Kind() != lattice.CSR {
		t.Fatalf("built n=%d nnz=%d as %v", m.N(), m.NNZ(), m.View(lattice.Auto).Kind())
	}
	if bound := frameAllocBound(w.Arm, len(w.Frame), n, m); got > bound || got > 4<<20 {
		t.Fatalf("allocated %d bytes (bound %d): the dense matrix would be %d", got, bound, 8*n*n)
	}
	if e := m.Energy(ising.RandomSpins(n, rng.New(1))); e != 0 {
		t.Fatalf("energy of the empty model %v", e)
	}
}
