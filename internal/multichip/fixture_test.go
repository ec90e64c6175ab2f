package multichip_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"

	"mbrim/internal/checkpoint"
	"mbrim/internal/fault"
	"mbrim/internal/graph"
	"mbrim/internal/multichip"
	"mbrim/internal/rng"
)

// TestParentCheckpointResumes pins the on-disk format across
// restructurings of the code that writes it:
// testdata/parent_ckpt_k16_c2.json holds a checkpoint envelope an
// earlier commit encoded (a faulty 2-chip K16 run cancelled with a
// delayed broadcast in flight) and that commit's uninterrupted result.
// Resuming the old bytes here must land on the old result. The fixture
// is regenerated only by a change that moves the dynamics on purpose
// and says so: -update re-runs its own procedure (the earliest epoch
// barrier from 4 on whose checkpoint carries a delayed broadcast).
func TestParentCheckpointResumes(t *testing.T) {
	const path = "testdata/parent_ckpt_k16_c2.json"
	m := graph.Complete(16, rng.New(12)).ToIsing()
	const duration = 40
	cfg := multichip.Config{Chips: 2, Seed: 12, Coordinated: true, ChannelBytesPerNS: 0.5, Faults: fault.Config{
		Seed: 7, DropRate: 0.15, CorruptRate: 0.1, DelayRate: 0.5, StallRate: 0.05,
		Recovery: fault.Recovery{Detect: true, WatchdogThreshold: 0.3},
	}}
	var fx struct {
		Checkpoint json.RawMessage  `json:"checkpoint"`
		Comment    string           `json:"comment"`
		CutEpoch   int              `json:"cutEpoch"`
		Want       multichip.Result `json:"want"`
	}
	if *updateGolden {
		want, _, err := multichip.MustSystem(m, cfg).RunConcurrentCtx(context.Background(), duration, nil)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 4; fx.Checkpoint == nil; cut++ {
			ctx, cancel := context.WithCancel(context.Background())
			icfg := cfg
			icfg.Tracer = &streamRecorder{cutAt: cut, cancel: cancel}
			_, ck, err := multichip.MustSystem(m, icfg).RunConcurrentCtx(ctx, duration, nil)
			cancel()
			if !errors.Is(err, context.Canceled) || ck == nil {
				t.Fatalf("no epoch barrier from 4 on leaves a delayed broadcast in flight (last err %v)", err)
			}
			if ck.Fault == nil || len(ck.Fault.Pending) == 0 {
				continue
			}
			if fx.Checkpoint, err = checkpoint.Encode(&checkpoint.File{Engine: "mbrim", Seed: cfg.Seed, N: m.N(),
				ModelHash: checkpoint.HashModel(m), Multichip: ck}); err != nil {
				t.Fatal(err)
			}
			fx.CutEpoch, fx.Want = cut, *want
		}
		fx.Comment = fmt.Sprintf("K16 graphSeed 12, 2 chips, seed 12, coordinated, 0.5 B/ns, noisy fault schedule, "+
			"cancelled at the epoch-%d barrier with a delayed broadcast in flight; want is the same commit's "+
			"UNINTERRUPTED RunConcurrent(40). Regenerated only by a change that moves the dynamics on purpose "+
			"(go test ./internal/multichip -run TestParentCheckpointResumes -update).", fx.CutEpoch)
		raw, err := json.MarshalIndent(&fx, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &fx); err != nil {
		t.Fatal(err)
	}
	file, err := checkpoint.Decode(fx.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if err := file.Validate("mbrim", cfg.Seed, m); err != nil {
		t.Fatal(err)
	}
	ck := file.Multichip
	if ck.Fault == nil || len(ck.Fault.Pending) == 0 {
		t.Fatal("fixture carries no in-flight delayed broadcast")
	}
	got, _, err := multichip.MustSystem(m, cfg).RunConcurrentCtx(context.Background(), duration, ck)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, fx.Want) {
		t.Fatalf("resumed on this commit:\n%+v\nparent's uninterrupted run:\n%+v", *got, fx.Want)
	}
}
