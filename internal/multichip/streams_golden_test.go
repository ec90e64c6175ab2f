package multichip_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"slices"
	"sort"
	"testing"

	"mbrim/internal/checkpoint"
	"mbrim/internal/fault"
	"mbrim/internal/graph"
	"mbrim/internal/multichip"
	"mbrim/internal/obs"
	"mbrim/internal/rng"
)

var updateGolden = flag.Bool("update", false, "rewrite the anchors in testdata/streams.golden.json and testdata/parent_ckpt_k16_c2.json")

// anchor is one distinct trajectory: SHA-256 of a run's result JSON and
// of its full event stream (flat events and spans, wall-clock fields
// zeroed), and every configuration that must reproduce both.
type anchor struct {
	Result  string   `json:"result"`
	Events  string   `json:"events"`
	Configs []string `json:"configs"`
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

// observation is what one configuration leaves: the uninterrupted
// run's result (and its JSON) and event stream, and the checkpoint
// envelope and event stream of the same run cut at the barrier of epoch
// 2+chips.
type observation struct {
	res              any
	result, envelope []byte
	events, prefix   []obs.Event
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// jsonDiff names the top-level fields in which two JSON objects differ.
func jsonDiff(a, b []byte) string {
	var ma, mb map[string]json.RawMessage
	if json.Unmarshal(a, &ma) != nil || json.Unmarshal(b, &mb) != nil {
		return "(not objects)"
	}
	var diff []string
	for k, v := range ma {
		if !bytes.Equal(v, mb[k]) {
			diff = append(diff, k)
		}
	}
	sort.Strings(diff)
	return fmt.Sprint(diff)
}

// activity is the four activity counters — flips, induced flips, bit
// changes, induced bit changes — three ways: a result's totals, the sums
// of its EpochStats, and the sums of its stream's ChipStep (flips) and
// EpochSync (bit changes) events.
func activity(res any, events []obs.Event) (totals, perEpoch, stream [4]int64) {
	r := reflect.ValueOf(res).Elem()
	for i, name := range []string{"Flips", "InducedFlips", "BitChanges", "InducedBitChanges"} {
		totals[i] = r.FieldByName(name).Int()
	}
	for _, st := range r.FieldByName("EpochStats").Interface().([]multichip.EpochStat) {
		perEpoch[0], perEpoch[1] = perEpoch[0]+st.Flips, perEpoch[1]+st.InducedFlips
		perEpoch[2], perEpoch[3] = perEpoch[2]+st.BitChanges, perEpoch[3]+st.InducedBitChanges
	}
	for _, e := range events {
		switch e.Kind {
		case obs.ChipStep:
			stream[0], stream[1] = stream[0]+e.Count, stream[1]+e.Induced
		case obs.EpochSync:
			stream[2], stream[3] = stream[2]+e.Count, stream[3]+e.Induced
		}
	}
	return totals, perEpoch, stream
}

// TestStreamsGolden holds the machine to the property the paper's
// design rests on — every chip reaches the same state at each epoch
// barrier whatever the host does — over 3 modes × 1–4 chips × 6 fault
// schedules × coordinated, with every event and span sink on. Each
// configuration is run uninterrupted and cut at the barrier of epoch
// 2+chips, the serial twin also resumed from that cut's checkpoint
// envelope, and four relations must hold:
//
//   - Parallel on ≡ off: the parallel=true subtest's result JSON, event
//     and span stream and checkpoint envelope (and the cut run's stream)
//     equal its parallel=false twin's, so the twin's relations and
//     anchor hold for both.
//   - Resumed ≡ uninterrupted: the whole result JSON is equal, series
//     and fault ledger included. The cut run's stream is a prefix of the
//     uninterrupted one, and the resumed stream is the rest, with every
//     span ID lowered by the number of IDs the prefix allocated — a
//     resumed solve's spanner starts again at 1.
//   - Checkpoint round trip: envelope → decode → encode is the same
//     bytes, and the run resumes from the decoded copy.
//   - Counters agree: EpochStats, and the ChipStep and EpochSync events
//     of the stream, sum to the result's flips, induced flips, bit
//     changes and induced bit changes.
//
// The relations store nothing. What they cannot see — the trajectory
// itself moving — is pinned by testdata/streams.golden.json: one
// result and one events hash per distinct trajectory, each naming the
// configurations that must reach it. Only a change that moves the
// dynamics on purpose rewrites it, with -update, which rewrites anchors
// only; the relations are checked either way.
func TestStreamsGolden(t *testing.T) {
	const path = "testdata/streams.golden.json"
	want := map[string]*anchor{} // configuration → the anchor it names
	if !*updateGolden {
		var anchors []*anchor
		raw, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(raw, &anchors)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range anchors {
			for _, c := range a.Configs {
				if want[c] != nil {
					t.Fatalf("configuration %s names two anchors", c)
				}
				want[c] = a
			}
		}
	}
	got := map[[2]string]*anchor{} // trajectory → the configurations reaching it, under -update
	m := graph.Complete(24, rng.New(17)).ToIsing()
	modelHash := checkpoint.HashModel(m)
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
	// observe runs one configuration uninterrupted and cut.
	observe := func(t *testing.T, mode runFn, cfg multichip.Config) observation {
		t.Helper()
		res, _, events := run(t, mode, cfg, 0, nil)
		_, ck, prefix := run(t, mode, cfg, 2+cfg.Chips, nil)
		env, err := checkpoint.Encode(&checkpoint.File{Engine: "mbrim", Seed: cfg.Seed, N: m.N(),
			ModelHash: modelHash, Multichip: ck})
		if err != nil {
			t.Fatal(err)
		}
		return observation{res: res, result: mustJSON(t, res), envelope: env, events: events, prefix: prefix}
	}
	// resume checks the relations a run holds on its own: the checkpoint
	// round trip, resumed (from the decoded envelope) ≡ uninterrupted, and
	// counters agree.
	resume := func(t *testing.T, mode runFn, cfg multichip.Config, o observation) {
		t.Helper()
		file, err := checkpoint.Decode(o.envelope)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := checkpoint.Encode(file); err != nil || !bytes.Equal(again, o.envelope) {
			t.Errorf("checkpoint round trip: re-encoding the decoded envelope changed it (err %v)", err)
		}
		res, _, tail := run(t, mode, cfg, 0, file.Multichip)
		if resumed := mustJSON(t, res); !bytes.Equal(resumed, o.result) {
			t.Errorf("resumed ≡ uninterrupted: results differ in %s", jsonDiff(resumed, o.result))
		}
		events, prefix := o.events, o.prefix
		if len(prefix) > len(events) || !slices.Equal(prefix, events[:len(prefix)]) {
			t.Errorf("resumed ≡ uninterrupted: the cut run's %d events are not a prefix of the uninterrupted stream", len(prefix))
		} else {
			var offset uint64
			for _, e := range prefix {
				offset = max(offset, e.Span)
			}
			for i := range tail {
				if tail[i].Span != 0 {
					tail[i].Span += offset
				}
				if tail[i].Parent != 0 {
					tail[i].Parent += offset
				}
			}
			if rest := events[len(prefix):]; !slices.Equal(tail, rest) {
				t.Errorf("resumed ≡ uninterrupted: the resumed stream (%d events, span IDs +%d) is not the uninterrupted one's last %d",
					len(tail), offset, len(rest))
			}
		}

		totals, perEpoch, stream := activity(o.res, events)
		if perEpoch != totals || stream != totals {
			t.Errorf("counters agree: flips, induced flips, bit changes, induced bit changes: result %v, EpochStats %v, stream %v",
				totals, perEpoch, stream)
		}
	}
	twins := map[string]observation{} // parallel=false observations awaiting their parallel=true twin
	seen := 0
	for _, mode := range modes {
		for chips := 1; chips <= 4; chips++ {
			for _, sched := range schedules {
				for _, coordinated := range []bool{false, true} {
					key := fmt.Sprintf("%s/chips=%d/%s/coordinated=%v", mode.name, chips, sched.name, coordinated)
					cfg := multichip.Config{Chips: chips, Seed: 23, Coordinated: coordinated,
						Channels: 1, ChannelBytesPerNS: 0.25, SampleEveryNS: 5,
						RecordEpochStats: true, Probes: true, PairStats: true,
						Faults: sched.faults(chips)}
					seen++
					for _, parallel := range []bool{false, true} {
						t.Run(fmt.Sprintf("%s/parallel=%v", key, parallel), func(t *testing.T) {
							pcfg := cfg
							pcfg.Parallel = parallel
							o := observe(t, mode.run, pcfg)
							if parallel {
								twin, ok := twins[key]
								if !ok { // the twin was filtered out by -run
									twin = observe(t, mode.run, cfg)
								}
								delete(twins, key)
								for what, same := range map[string]bool{
									"result":           bytes.Equal(o.result, twin.result),
									"event stream":     slices.Equal(o.events, twin.events),
									"checkpoint":       bytes.Equal(o.envelope, twin.envelope),
									"cut run's stream": slices.Equal(o.prefix, twin.prefix),
								} {
									if !same {
										t.Errorf("parallel ≡ serial: the %s differs", what)
									}
								}
								return // the twin's relations and anchor are this one's
							}
							twins[key] = o
							resume(t, mode.run, cfg, o)
							h := [2]string{sha(o.result), sha(mustJSON(t, o.events))}
							switch a := want[key]; {
							case *updateGolden:
								if got[h] == nil {
									got[h] = &anchor{Result: h[0], Events: h[1]}
								}
								got[h].Configs = append(got[h].Configs, key)
							case a == nil:
								t.Fatal("configuration is not in the golden file")
							case h != [2]string{a.Result, a.Events}:
								t.Errorf("trajectory moved: result %s events %s, want the anchor of %s (result %s events %s)",
									h[0], h[1], a.Configs[0], a.Result, a.Events)
							}
						})
					}
				}
			}
		}
	}
	if !*updateGolden && seen != len(want) {
		t.Fatalf("ran %d configurations, golden file names %d", seen, len(want))
	}
	if *updateGolden && !t.Failed() {
		var anchors []*anchor
		for _, a := range got {
			sort.Strings(a.Configs)
			anchors = append(anchors, a)
		}
		sort.Slice(anchors, func(i, j int) bool { return anchors[i].Configs[0] < anchors[j].Configs[0] })
		raw, err := json.MarshalIndent(anchors, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d anchors for %d configurations)", path, len(anchors), seen)
	}
}
