package multichip_test

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"mbrim/internal/checkpoint"
	"mbrim/internal/fault"
	"mbrim/internal/graph"
	"mbrim/internal/multichip"
	"mbrim/internal/rng"
)

// TestParentCheckpointResumes pins the on-disk format across the
// System-over-Slices restructuring: testdata/parent_ckpt_k16_c2.json
// holds a checkpoint envelope the commit BEFORE it encoded (a faulty
// 2-chip K16 run cancelled with a delayed broadcast in flight) and
// that commit's uninterrupted result. Resuming the old bytes here must
// land on the old result. The fixture is never regenerated.
func TestParentCheckpointResumes(t *testing.T) {
	raw, err := os.ReadFile("testdata/parent_ckpt_k16_c2.json")
	if err != nil {
		t.Fatal(err)
	}
	var fx struct {
		Checkpoint json.RawMessage  `json:"checkpoint"`
		Want       multichip.Result `json:"want"`
	}
	if err := json.Unmarshal(raw, &fx); err != nil {
		t.Fatal(err)
	}
	m := graph.Complete(16, rng.New(12)).ToIsing()
	const duration = 40
	cfg := multichip.Config{Chips: 2, Seed: 12, Coordinated: true, ChannelBytesPerNS: 0.5, Faults: fault.Config{
		Seed: 7, DropRate: 0.15, CorruptRate: 0.1, DelayRate: 0.5, StallRate: 0.05,
		Recovery: fault.Recovery{Detect: true, WatchdogThreshold: 0.3},
	}}
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
