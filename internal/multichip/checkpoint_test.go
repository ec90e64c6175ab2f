package multichip

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"mbrim/internal/fault"
	"mbrim/internal/ising"
	"mbrim/internal/obs"
)

// epochCanceller cancels a context the moment the run's epoch barrier
// reaches the target — a deterministic interruption point, unlike a
// wall-clock timeout.
type epochCanceller struct {
	epoch  int
	cancel context.CancelFunc
}

func (t *epochCanceller) Emit(e obs.Event) {
	if e.Kind == obs.EpochSync && e.Epoch >= t.epoch {
		t.cancel()
	}
}

// sameResult requires two results of one run mode (*Result or
// *BatchResult) to be equal in every field, the series and the fault
// ledger included, and names the fields that are not.
func sameResult(t *testing.T, want, got any) {
	t.Helper()
	w, g := reflect.ValueOf(want).Elem(), reflect.ValueOf(got).Elem()
	var differ []string
	for i := 0; i < w.NumField(); i++ {
		if !reflect.DeepEqual(w.Field(i).Interface(), g.Field(i).Interface()) {
			differ = append(differ, w.Type().Field(i).Name)
		}
	}
	if len(differ) > 0 {
		t.Fatalf("results differ in %v", differ)
	}
}

// interruptAt runs the system under a context that the tracer cancels
// at the given epoch and returns the checkpoint.
func interruptAt(t *testing.T, m *ising.Model, cfg Config, epoch int,
	run func(*System, context.Context, *Checkpoint) (*Result, *Checkpoint, error)) *Checkpoint {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Tracer = &epochCanceller{epoch: epoch, cancel: cancel}
	s := MustSystem(m, cfg)
	res, ck, err := run(s, ctx, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected cancellation, got %v", err)
	}
	if ck == nil {
		t.Fatal("cancelled run returned no checkpoint")
	}
	if res == nil || len(res.Spins) != m.N() || !ising.ValidSpins(res.Spins) {
		t.Fatal("cancelled run returned no usable best-so-far state")
	}
	if ck.EpochsDone < epoch {
		t.Fatalf("checkpoint at epoch %d, wanted at least %d", ck.EpochsDone, epoch)
	}
	return ck
}

func TestResumeWithChipLossRepartition(t *testing.T) {
	// Interrupt after a permanent chip loss has repartitioned the dead
	// chip's slice onto the survivors: the checkpoint must carry the
	// reshaped partition and the resumed run must still match.
	m := kgraph(40, 6)
	const duration = 40
	cfg := Config{Chips: 4, Seed: 9, Faults: fault.Config{
		Seed: 3, ChipLossEpoch: 2,
		Recovery: fault.Recovery{Repartition: true},
	}}
	full := MustSystem(m, cfg).RunConcurrent(duration)
	runC := func(s *System, ctx context.Context, ck *Checkpoint) (*Result, *Checkpoint, error) {
		return s.RunConcurrentCtx(ctx, duration, ck)
	}
	ck := interruptAt(t, m, cfg, 4, runC)
	if len(ck.Chips) != 3 {
		t.Fatalf("checkpoint has %d chips, want 3 survivors", len(ck.Chips))
	}
	resumed, _, err := MustSystem(m, cfg).RunConcurrentCtx(context.Background(), duration, ck)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, full, resumed)
}

func TestApplyCheckpointRejectsMismatch(t *testing.T) {
	m := kgraph(32, 2)
	cfg := Config{Chips: 4, Seed: 5}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	trcfg := cfg
	trcfg.Tracer = &epochCanceller{epoch: 2, cancel: cancel}
	_, ck, err := MustSystem(m, trcfg).RunConcurrentCtx(ctx, 30, nil)
	if !errors.Is(err, context.Canceled) || ck == nil {
		t.Fatalf("setup: err=%v ck=%v", err, ck)
	}

	// Wrong mode.
	if _, _, err := MustSystem(m, cfg).RunSequentialCtx(context.Background(), 30, ck); err == nil {
		t.Fatal("sequential accepted a concurrent checkpoint")
	}
	// Wrong duration.
	if _, _, err := MustSystem(m, cfg).RunConcurrentCtx(context.Background(), 60, ck); err == nil {
		t.Fatal("accepted a checkpoint for a different duration")
	}
	// Fault-layer parity.
	fcfg := cfg
	fcfg.Faults = fault.Config{Seed: 1, DropRate: 0.1}
	if _, _, err := MustSystem(m, fcfg).RunConcurrentCtx(context.Background(), 30, ck); err == nil {
		t.Fatal("fault-injecting system accepted a fault-free checkpoint")
	}
	// Corrupt spins.
	bad := *ck
	bad.Chips = append([]ChipState(nil), ck.Chips...)
	badMachine := *ck.Chips[0].Machine
	badMachine.Spins = append([]int8(nil), badMachine.Spins...)
	badMachine.Spins[0] = 3
	bad.Chips[0] = ChipState{Owned: ck.Chips[0].Owned, Machine: &badMachine,
		Shadow: ck.Chips[0].Shadow, LastFlipInduced: ck.Chips[0].LastFlipInduced}
	if _, _, err := MustSystem(m, cfg).RunConcurrentCtx(context.Background(), 30, &bad); err == nil {
		t.Fatal("accepted corrupt spins")
	}
}

func TestPendingAccessors(t *testing.T) {
	// The in-flight inspection accessors must expose queued fabric
	// messages at an interruption point without disturbing the run.
	m := kgraph(40, 8)
	cfg := Config{Chips: 4, Seed: 11, Faults: fault.Config{
		Seed: 2, DelayRate: 0.6,
	}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Tracer = &epochCanceller{epoch: 3, cancel: cancel}
	s := MustSystem(m, cfg)
	_, ck, err := s.RunConcurrentCtx(ctx, 40, nil)
	if !errors.Is(err, context.Canceled) || ck == nil {
		t.Fatalf("setup: err=%v ck=%v", err, ck)
	}
	msgs := s.PendingMessages()
	if ck.Fault == nil {
		t.Fatal("fault state missing from checkpoint")
	}
	if len(msgs) != len(ck.Fault.Pending) {
		t.Fatalf("accessor reports %d pending, checkpoint %d", len(msgs), len(ck.Fault.Pending))
	}
	for _, msg := range msgs {
		if msg.From < 0 || msg.From >= 4 {
			t.Fatalf("pending message from bogus chip %d", msg.From)
		}
	}
	if got := s.PendingWritebacks(); len(got) != 0 {
		t.Fatalf("concurrent mode has %d batch writebacks pending", len(got))
	}
}
