package main

import (
	"context"
	"errors"
	"flag"
	"fmt"

	"mbrim/internal/brim"
	"mbrim/internal/core"
	"mbrim/internal/ising"
	"mbrim/internal/metrics"
	"mbrim/internal/obs"
)

func init() {
	register("guardrails", "numerical guardrails and interrupt/resume lifecycle", runGuardrails)
}

// cancelAtEpoch is a tracer that cancels a context when the
// multiprocessor reaches a chosen epoch barrier — a deterministic way
// to interrupt a run mid-flight, unlike a wall-clock timeout.
type cancelAtEpoch struct {
	epoch  int
	cancel context.CancelFunc
}

func (t *cancelAtEpoch) Emit(e obs.Event) {
	if e.Kind == obs.EpochSync && e.Epoch >= t.epoch {
		t.cancel()
	}
}

// runGuardrails demonstrates the solve-lifecycle hardening on two
// fronts:
//
//  1. a bias-magnitude sweep that drives the BRIM integrator from
//     clean steps through the step-halving guardrail and into a typed
//     divergence error — never NaN spins;
//  2. a deterministic interrupt of a multiprocessor run at a chosen
//     epoch, checkpoint capture, and a resume whose final energy is
//     bit-identical to the uninterrupted run.
func runGuardrails(args []string) error {
	fs := flag.NewFlagSet("guardrails", flag.ContinueOnError)
	n := fs.Int("n", 256, "K-graph size for the lifecycle demonstration")
	chips := fs.Int("chips", 4, "multiprocessor chips")
	duration := fs.Float64("duration", 100, "annealing time, ns")
	cutEpoch := fs.Int("cut-epoch", 3, "epoch at which the lifecycle run is interrupted")
	seed := fs.Uint64("seed", 1, "problem/system seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Part 1: the divergence ladder. Zero couplings leave the coupling
	// normalization at identity, so the bias term alone sets the RK4
	// slope: moderate magnitudes step cleanly, larger ones overshoot
	// the blowup limit and are rescued by halved-dt retries, and past
	// the guardrail's budget the run fails with a typed error whose
	// diagnostics name the node and the step sizes tried.
	note("divergence ladder: bias magnitude vs integrator outcome (clean / retries / typed error)")
	note("expectation: retries rise with |h| until the halving budget is exhausted; no NaN anywhere")
	retries := &metrics.Series{Name: "guardrail retries vs log10|h|"}
	uncoupled, err := ising.NewBuilder(8).Build()
	if err != nil {
		return err
	}
	biases := make([]float64, uncoupled.N())
	for _, exp := range []int{0, 6, 7, 8, 9, 10, 12, 14} {
		h := 1.0
		for i := 0; i < exp; i++ {
			h *= 10
		}
		for i := range biases {
			biases[i] = h
		}
		m, err := uncoupled.WithBiases(biases)
		if err != nil {
			return err
		}
		res, err := brim.SolveCtx(context.Background(), m, brim.SolveConfig{
			Duration: 10,
			Config:   brim.Config{Seed: *seed},
		})
		var div *brim.DivergenceError
		switch {
		case errors.As(err, &div):
			fmt.Printf("|h|=1e%-3d diverged: node %d at t=%.3g ns after %d step size(s)\n",
				exp, div.Node, div.TimeNS, len(div.DtHistory))
		case err != nil:
			return err
		default:
			fmt.Printf("|h|=1e%-3d ok: energy %.4g, %d halved-step retries\n",
				exp, res.Energy, res.StepRetries)
			retries.Add(float64(exp), float64(res.StepRetries))
		}
	}
	fmt.Print(metrics.Table("Guardrails: step-halving retries", retries))

	// Part 2: interrupt, checkpoint, resume. The tracer cancels the
	// context at an epoch barrier; the InterruptedError carries both
	// the best-so-far outcome and resume bytes. Feeding those bytes
	// back must land on exactly the uninterrupted run's energy.
	g, m := kgraph(*n, *seed)
	req := core.Request{
		Kind:       core.MBRIMConcurrent,
		Model:      m,
		Graph:      g,
		Seed:       *seed,
		Chips:      *chips,
		DurationNS: *duration,
	}
	full, err := core.Solve(req)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ireq := req
	ireq.Tracer = &cancelAtEpoch{epoch: *cutEpoch, cancel: cancel}
	_, err = core.SolveCtx(ctx, ireq)
	var intr *core.InterruptedError
	if !errors.As(err, &intr) {
		return fmt.Errorf("expected an interruption at epoch %d, got %v", *cutEpoch, err)
	}
	note("lifecycle: run interrupted at epoch %d with best-so-far energy %.0f (%d checkpoint bytes)",
		*cutEpoch, intr.Outcome.Energy, len(intr.Checkpoint))

	rreq := req
	rreq.Resume = intr.Checkpoint
	resumed, err := core.Solve(rreq)
	if err != nil {
		return err
	}
	fmt.Printf("uninterrupted: cut %.0f, energy %.0f\n", full.Cut, full.Energy)
	fmt.Printf("interrupted+resumed: cut %.0f, energy %.0f\n", resumed.Cut, resumed.Energy)
	if resumed.Energy != full.Energy {
		return fmt.Errorf("resume broke determinism: %.17g != %.17g", resumed.Energy, full.Energy)
	}
	note("expectation: the two lines above are identical — resume is bit-exact")
	return nil
}
