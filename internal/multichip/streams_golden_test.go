package multichip_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"testing"

	"mbrim/internal/fault"
	"mbrim/internal/graph"
	"mbrim/internal/multichip"
	"mbrim/internal/obs"
	"mbrim/internal/rng"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/streams.golden.json and testdata/parent_ckpt_k16_c2.json")

// streamHashes is what one configuration must reproduce: SHA-256 of the
// uninterrupted run's result JSON and of its full event stream (flat
// events and spans, wall-clock fields zeroed), of a mid-run
// checkpoint's JSON, and of the run resumed from that checkpoint
// (result JSON followed by its event stream).
type streamHashes struct {
	Result     string `json:"result"`
	Events     string `json:"events"`
	Checkpoint string `json:"checkpoint"`
	Resumed    string `json:"resumed"`
}

// streamRecorder keeps a run's event stream and cancels the run once
// the given epoch has synchronized (0 never cancels).
type streamRecorder struct {
	events []obs.Event
	cutAt  int
	cancel context.CancelFunc
}

func (r *streamRecorder) Emit(e obs.Event) {
	e.WallNS, e.WallDurNS = 0, 0
	r.events = append(r.events, e)
	if r.cutAt > 0 && e.Kind == obs.EpochSync && e.Epoch >= r.cutAt {
		r.cancel()
	}
}

func hashJSON(t *testing.T, vs ...any) string {
	t.Helper()
	h := sha256.New()
	for _, v := range vs {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStreamsGolden pins every observable of the three run modes —
// results, checkpoints, and the order and content of every event and
// span — against testdata/streams.golden.json. The commit before the
// run modes were folded into one epoch frame generated it; it was
// regenerated at the owned tanh (lattice.Tanh), which moved the
// checkpoint hashes — the only ones that cover node voltages — and
// nothing else, and when brim's step went to 0.1·τ and when the
// couplings' spectrum came to set it (τ/6 on one chip, 0.25·τ on two to
// four), each of which moved every checkpoint hash and most result
// hashes. Every operation in a trajectory now carries the same bits on
// every host, so a hash that moves has changed behaviour; -update
// rewrites the file for a change that means to.
func TestStreamsGolden(t *testing.T) {
	const path = "testdata/streams.golden.json"
	golden := map[string]streamHashes{}
	if !*updateGolden {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
	}
	m := graph.Complete(24, rng.New(17)).ToIsing()
	const duration, jobs = 33, 3 // 10 epochs of 3.3
	schedules := []struct {
		name   string
		faults func(chips int) fault.Config
	}{
		{"clean", func(int) fault.Config { return fault.Config{} }},
		{"detect", func(int) fault.Config {
			return fault.Config{Seed: 5, DropRate: 0.3, CorruptRate: 0.3,
				Recovery: fault.Recovery{Detect: true, MaxRetransmits: 2, RetransmitBackoffNS: 0.3}}
		}},
		{"undetected", func(int) fault.Config {
			return fault.Config{Seed: 6, DropRate: 0.2, CorruptRate: 0.4}
		}},
		{"delay", func(int) fault.Config {
			return fault.Config{Seed: 7, DelayRate: 0.5, StallRate: 0.1}
		}},
		{"chiploss", func(chips int) fault.Config {
			return fault.Config{Seed: 8, DelayRate: 0.3, ChipLossEpoch: 4, ChipLossChip: chips / 2,
				Recovery: fault.Recovery{Repartition: true}}
		}},
		{"watchdog", func(int) fault.Config {
			return fault.Config{Seed: 9, DropRate: 0.4, DelayRate: 0.3,
				Recovery: fault.Recovery{WatchdogThreshold: 0.05}}
		}},
	}
	type runFn func(*multichip.System, context.Context, *multichip.Checkpoint) (any, *multichip.Checkpoint, error)
	modes := []struct {
		name string
		run  runFn
	}{
		{multichip.ModeConcurrent, func(s *multichip.System, ctx context.Context, ck *multichip.Checkpoint) (any, *multichip.Checkpoint, error) {
			return s.RunConcurrentCtx(ctx, duration, ck)
		}},
		{multichip.ModeSequential, func(s *multichip.System, ctx context.Context, ck *multichip.Checkpoint) (any, *multichip.Checkpoint, error) {
			return s.RunSequentialCtx(ctx, duration, ck)
		}},
		{multichip.ModeBatch, func(s *multichip.System, ctx context.Context, ck *multichip.Checkpoint) (any, *multichip.Checkpoint, error) {
			return s.RunBatchCtx(ctx, jobs, duration, ck)
		}},
	}
	// run executes one configuration with the full event surface on.
	run := func(t *testing.T, mode runFn, cfg multichip.Config, cutAt int, resume *multichip.Checkpoint) (any, *multichip.Checkpoint, []obs.Event) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		rec := &streamRecorder{cutAt: cutAt, cancel: cancel}
		cfg.Tracer = rec
		cfg.Spans = obs.NewSpanner(rec)
		res, ck, err := mode(multichip.MustSystem(m, cfg), ctx, resume)
		switch {
		case cutAt > 0 && (!errors.Is(err, context.Canceled) || ck == nil):
			t.Fatalf("interrupt at %d: err=%v checkpoint=%v", cutAt, err, ck != nil)
		case cutAt == 0 && (err != nil || ck != nil):
			t.Fatalf("run: err=%v checkpoint=%v", err, ck != nil)
		}
		return res, ck, rec.events
	}
	seen := 0
	for _, mode := range modes {
		for chips := 1; chips <= 4; chips++ {
			for _, sched := range schedules {
				for _, coordinated := range []bool{false, true} {
					for _, parallel := range []bool{false, true} {
						name := fmt.Sprintf("%s/chips=%d/%s/coordinated=%v/parallel=%v",
							mode.name, chips, sched.name, coordinated, parallel)
						t.Run(name, func(t *testing.T) {
							cfg := multichip.Config{Chips: chips, Seed: 23, Coordinated: coordinated, Parallel: parallel,
								Channels: 1, ChannelBytesPerNS: 0.25, SampleEveryNS: 5,
								RecordEpochStats: true, Probes: true, PairStats: true,
								Faults: sched.faults(chips)}
							var got streamHashes
							res, _, events := run(t, mode.run, cfg, 0, nil)
							got.Result, got.Events = hashJSON(t, res), hashJSON(t, events)
							_, ck, _ := run(t, mode.run, cfg, 2+chips, nil)
							got.Checkpoint = hashJSON(t, ck)
							res, _, events = run(t, mode.run, cfg, 0, ck)
							got.Resumed = hashJSON(t, res, events)
							if *updateGolden {
								golden[name] = got
								return
							}
							want, ok := golden[name]
							if !ok {
								t.Fatal("configuration is not in the golden file")
							}
							if got != want {
								t.Fatalf("got  %+v\nwant %+v", got, want)
							}
						})
						seen++
					}
				}
			}
		}
	}
	if seen != len(golden) {
		t.Fatalf("ran %d configurations, golden file holds %d", seen, len(golden))
	}
	if *updateGolden && !t.Failed() {
		raw, err := json.MarshalIndent(golden, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d configurations)", path, len(golden))
	}
}
