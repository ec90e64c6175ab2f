package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"mbrim/internal/checkpoint"
	"mbrim/internal/core"
	"mbrim/internal/ising"
	"mbrim/internal/multichip"
	"mbrim/internal/obs"
)

// TestClusterRelations holds the cluster to DESIGN §"cluster"'s
// contract — a fault-free distributed run is System.RunConcurrent on one
// host — as one more hosting in the relation table of multichip's
// TestStreamsGolden, on its K24 instance and fabric: concurrent mode ×
// 1–4 chips × coordinated, plus one row that leaves EpochNS and Channels
// at their defaults on a slower channel. Each configuration runs through
// a coordinator over two in-process workers and through System, and
//
//   - Cluster ≡ System: the coordinator's embedded Result equals
//     System's field for field, and its event stream is System's
//     filtered to the kinds a coordinator emits (EpochSync,
//     EnergySample).
//   - Cut and resume in every direction: cut at the barrier of epoch
//     2+chips, the coordinator hands back the envelope System hands back
//     when cut there, byte for byte; and the run
//     finishes at the uninterrupted result from the coordinator's
//     envelope in a fresh coordinator and in System, and from System's
//     envelope in a coordinator.
//
// At least one row must stall, so the elapsed-time ledger is held too.
func TestClusterRelations(t *testing.T) {
	m := kmodel(24, 17)
	workers := startWorkers(t, 2)
	const duration = 33 // 10 epochs of 3.3
	base := fastConfig(workers, 0, 23, duration)
	base.SampleEveryNS, base.CheckpointEvery = 5, 3
	var rows []Config
	for chips := 1; chips <= 4; chips++ {
		for _, coordinated := range []bool{false, true} {
			cfg := base
			cfg.Chips, cfg.Coordinated, cfg.Channels, cfg.ChannelBytesPerNS = chips, coordinated, 1, 0.25
			rows = append(rows, cfg)
		}
	}
	defaults := base
	defaults.Chips, defaults.Coordinated, defaults.ChannelBytesPerNS = 3, true, 0.05
	rows = append(rows, defaults)

	// run solves cfg in one hosting from the envelope env (none: from
	// the start), cancelled at the barrier of epoch cut (0: never), and
	// returns its result, the envelope a cut run hands back, and its event
	// stream.
	solves := 0
	run := func(t *testing.T, distributed bool, cfg Config, env []byte, cut int) (*multichip.Result, []byte, []obs.Event) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		log := &eventLog{}
		tracer := obs.Fanout(log, atBarrier(func(epoch int) {
			if epoch == cut {
				cancel()
			}
		}))
		var ck *multichip.Checkpoint
		if env != nil {
			ck = decodeEnvelope(t, m, cfg.Seed, env)
		}
		var (
			res *multichip.Result
			out []byte
			err error
		)
		if distributed {
			solves++
			cfg.Tracer = tracer
			co, nerr := New(m, fmt.Sprintf("rel-%d", solves), cfg)
			if nerr == nil && ck != nil {
				nerr = co.resumeFrom(ck)
			}
			if nerr != nil {
				t.Fatal(nerr)
			}
			var cres *Result
			if cres, out, err = co.run(ctx); cres != nil {
				res = &cres.Result
				if cres.LiveWorkers != len(workers) {
					t.Errorf("%d live workers, want %d", cres.LiveWorkers, len(workers))
				}
			}
		} else {
			mcfg := inProcessConfig(cfg)
			mcfg.Tracer = tracer
			if res, ck, err = multichip.MustSystem(m, mcfg).RunConcurrentCtx(ctx, cfg.DurationNS, ck); ck != nil {
				var eerr error
				if out, eerr = checkpoint.Encode(&checkpoint.File{Engine: string(core.MBRIMConcurrent), Seed: cfg.Seed,
					N: m.N(), ModelHash: checkpoint.HashModel(m), Multichip: ck}); eerr != nil {
					t.Fatal(eerr)
				}
			}
		}
		if (cut > 0) != (out != nil) || (cut > 0) != errors.Is(err, context.Canceled) || (cut == 0 && err != nil) {
			t.Fatalf("cut at %d: err=%v, %d envelope bytes", cut, err, len(out))
		}
		return res, out, log.events
	}

	stalled := false
	for _, cfg := range rows {
		t.Run(fmt.Sprintf("chips=%d/coordinated=%v/channels=%d", cfg.Chips, cfg.Coordinated, cfg.Channels), func(t *testing.T) {
			want, _, sysEvents := run(t, false, cfg, nil, 0)
			got, _, coEvents := run(t, true, cfg, nil, 0)
			sameResult(t, got, want)
			sysEvents = slices.DeleteFunc(sysEvents, func(e obs.Event) bool {
				return e.Kind != obs.EpochSync && e.Kind != obs.EnergySample
			})
			if !slices.Equal(coEvents, sysEvents) {
				t.Errorf("the coordinator's %d events are not System's %d EpochSync and EnergySample events",
					len(coEvents), len(sysEvents))
			}
			stalled = stalled || want.StallNS > 0

			cut := 2 + cfg.Chips
			_, coEnv, _ := run(t, true, cfg, nil, cut)
			_, sysEnv, _ := run(t, false, cfg, nil, cut)
			if !bytes.Equal(coEnv, sysEnv) {
				t.Errorf("cut at epoch %d, the coordinator's envelope is not System's", cut)
			}
			for _, resume := range []struct {
				name        string
				distributed bool
				env         []byte
			}{
				{"cluster-cut-resumed-in-cluster", true, coEnv},
				{"cluster-cut-resumed-in-system", false, coEnv},
				{"system-cut-resumed-in-cluster", true, sysEnv},
			} {
				t.Run(resume.name, func(t *testing.T) {
					got, _, _ := run(t, resume.distributed, cfg, resume.env, 0)
					sameResult(t, got, want)
				})
			}
		})
	}
	if !stalled {
		t.Error("no row stalled — the elapsed-time ledger is untested")
	}
}

// TestHostingsRefuseATamperedCheckpoint: an envelope whose position or
// counters no run could reach is refused by both hostings, through the
// one run-level check they share. The coordinator used to check only
// mode, duration, fault state and ownership, and ran each of these to
// completion: elapsedNS = -7 gave a 33 ns run that reported 12.8 ns.
func TestHostingsRefuseATamperedCheckpoint(t *testing.T) {
	m := kmodel(24, 17)
	cfg := fastConfig(startWorkers(t, 2), 2, 23, 33)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mcfg := inProcessConfig(cfg)
	mcfg.Tracer = atBarrier(func(epoch int) {
		if epoch == 4 {
			cancel()
		}
	})
	_, ck, err := multichip.MustSystem(m, mcfg).RunConcurrentCtx(ctx, cfg.DurationNS, nil)
	if !errors.Is(err, context.Canceled) || ck == nil || ck.EpochsDone != 4 {
		t.Fatalf("cut at epoch 4: err=%v, checkpoint %v", err, ck != nil)
	}
	for _, c := range []struct {
		name   string
		tamper func(*multichip.Checkpoint)
	}{
		{"elapsedNS=-7", func(ck *multichip.Checkpoint) { ck.ElapsedNS = -7 }},
		{"bitChanges=-5", func(ck *multichip.Checkpoint) { ck.BitChanges = -5 }},
		{"nextSampleNS=-1", func(ck *multichip.Checkpoint) { ck.NextSampleNS = -1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			bad := *ck
			c.tamper(&bad)
			env, err := checkpoint.Encode(&checkpoint.File{Engine: string(core.MBRIMConcurrent), Seed: cfg.Seed,
				N: m.N(), ModelHash: checkpoint.HashModel(m), Multichip: &bad})
			if err != nil {
				t.Fatal(err)
			}
			sys := multichip.MustSystem(m, inProcessConfig(cfg))
			if _, _, err := sys.RunConcurrentCtx(context.Background(), cfg.DurationNS, decodeEnvelope(t, m, cfg.Seed, env)); err == nil {
				t.Error("System resumed it")
			}
			co, err := New(m, "tampered-"+c.name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := co.resumeFrom(decodeEnvelope(t, m, cfg.Seed, env)); err == nil {
				t.Error("the coordinator resumed it")
			}
		})
	}
}

// decodeEnvelope opens a concurrent-engine checkpoint envelope of m.
func decodeEnvelope(t *testing.T, m *ising.Model, seed uint64, env []byte) *multichip.Checkpoint {
	t.Helper()
	f, err := checkpoint.Decode(env)
	if err == nil {
		err = f.Validate(string(core.MBRIMConcurrent), seed, m)
	}
	if err != nil {
		t.Fatal(err)
	}
	return f.Multichip
}
