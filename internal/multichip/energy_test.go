package multichip

import (
	"context"
	"errors"
	"math"
	"testing"

	"mbrim/internal/ising"
	"mbrim/internal/lattice"
	"mbrim/internal/obs"
)

// energyAuditor recomputes, with the model's own dense walk and at the
// moment of emission, every energy a single-job run puts on its stream:
// an EnergySample is the energy of the true global state, a Probe the
// chip's believed energy less the true one.
type energyAuditor struct {
	t       *testing.T
	m       *ising.Model
	s       *System
	samples int
	probes  int
}

func (a *energyAuditor) Emit(e obs.Event) {
	var want float64
	switch e.Kind {
	case obs.EnergySample:
		a.samples++
		want = a.m.Energy(a.s.GlobalSpins())
	case obs.Probe:
		a.probes++
		want = a.m.Energy(a.s.slices[e.Chip].chip.shadow) - a.m.Energy(a.s.GlobalSpins())
	default:
		return
	}
	if math.Float64bits(e.Value) != math.Float64bits(want) {
		a.t.Errorf("%v at epoch %d chip %d: %v (%#x), the model walk gives %v (%#x)", e.Kind, e.Epoch, e.Chip,
			e.Value, math.Float64bits(e.Value), want, math.Float64bits(want))
	}
}

// sampleCanceller stops a run at its k-th EnergySample.
type sampleCanceller struct {
	k      int
	cancel context.CancelFunc
	values []float64
}

func (c *sampleCanceller) Emit(e obs.Event) {
	if e.Kind != obs.EnergySample {
		return
	}
	if c.values = append(c.values, e.Value); len(c.values) == c.k {
		c.cancel()
	}
}

func TestEnergySamplesMatchModelWalk(t *testing.T) {
	// Weighted couplings and fractional biases under μ = 0.5: an energy
	// summed in any other order would miss the walk's last bits.
	m := weightedSparse(96, 0.04, 71)
	cfg := Config{Chips: 4, Seed: 72, EpochNS: 2, SampleEveryNS: 1e-9, Probes: true}
	const duration = 24

	for _, mode := range []struct {
		name string
		run  func(*System) *Result
	}{
		{"concurrent", func(s *System) *Result { return s.RunConcurrent(duration) }},
		{"sequential", func(s *System) *Result { return s.RunSequential(duration) }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			audit := &energyAuditor{t: t, m: m}
			c := cfg
			c.Tracer = audit
			audit.s = MustSystem(m, c)
			if k := audit.s.lat.Kind(); k != lattice.CSR {
				t.Fatalf("the sparse model resolved to %v", k)
			}
			res := mode.run(audit.s)
			if audit.samples != res.Epochs || audit.samples != len(res.Trace) || audit.samples < 10 {
				t.Fatalf("%d samples audited, %d in the trace, %d epochs", audit.samples, len(res.Trace), res.Epochs)
			}
			if mode.name == "concurrent" && audit.probes != 4*res.Epochs {
				t.Fatalf("%d probes audited over %d epochs", audit.probes, res.Epochs)
			}
			if want := m.Energy(res.Spins); math.Float64bits(res.Energy) != math.Float64bits(want) {
				t.Fatalf("Result.Energy %v, the model walk gives %v", res.Energy, want)
			}
		})
	}

	// Batch mode samples the best energy any job has shown so far. Its
	// job states are visible only in a checkpoint, so stop a fresh run at
	// the k-th sample for each k and check the recurrence there.
	t.Run("batch", func(t *testing.T) {
		const jobs = 3
		for k := 1; k <= 6; k++ {
			ctx, cancel := context.WithCancel(context.Background())
			stop := &sampleCanceller{k: k, cancel: cancel}
			c := cfg
			c.Tracer = stop
			res, ck, err := MustSystem(m, c).RunBatchCtx(ctx, jobs, duration, nil)
			cancel()
			if !errors.Is(err, context.Canceled) || ck == nil || len(stop.values) != k {
				t.Fatalf("stopping at sample %d: err=%v, checkpoint=%v, %d samples", k, err, ck != nil, len(stop.values))
			}
			want := math.Inf(1)
			if k > 1 {
				want = stop.values[k-2]
			}
			for j, state := range ck.JobStates {
				en := m.Energy(state)
				if math.Float64bits(res.Energies[j]) != math.Float64bits(en) {
					t.Fatalf("sample %d: job %d energy %v, the model walk gives %v", k, j, res.Energies[j], en)
				}
				want = math.Min(want, en)
			}
			if got := stop.values[k-1]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("sample %d: %v (%#x), the model walk gives %v (%#x)", k,
					got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	})
}
