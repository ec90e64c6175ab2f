#!/usr/bin/env bash
# End-to-end smoke of the distributed solve fabric: boot two mbrimd
# worker nodes, run the same seeded K-graph solve three ways —
#   1. in process (the ground truth),
#   2. distributed across the workers (must match bit for bit,
#      modeled traffic/stall ledgers included),
#   3. distributed through fault-injecting chaos proxies with one
#      worker blackholed mid-run (must recover via checkpoint
#      rollback-replay onto the survivor and land on the identical
#      trajectory, with the recovery cost visible in the ledgers) —
# and assert the bit-identity and recovery claims with jq; every leg
# prints the same -json document, so the comparisons are field against
# same field. The chaos run is federated: its span trace must carry
# coordinator and worker spans under one trace ID, recovery included.
# Leg 3 then cuts a distributed run short with -timeout and resumes its
# checkpoint with -cluster -resume to the reference spins. A fourth leg
# drives the daemon: engine "cluster" with federate:true on POST /runs,
# then GET /runs/{id}/trace and /diag, then the same run once more
# through the /cluster/runs alias.
#
# Run from the repository root: ./scripts/cluster_smoke.sh
SMOKE="cluster smoke"
# shellcheck source=scripts/lib.sh
. scripts/lib.sh

build mbrim mbrimd
start_daemon "$DIR/w1.out" -worker
A1=$ADDR
start_daemon "$DIR/w2.out" -worker
A2=$ADDR

PROBLEM="-k 64 -chips 2 -duration 100 -seed 7"

# 1. Ground truth: the in-process multiprocessor.
# shellcheck disable=SC2086
"$DIR/mbrim" -solver mbrim $PROBLEM -json >"$DIR/inproc.json" \
  || die "in-process reference solve"

# 2. Clean distributed run.
# shellcheck disable=SC2086
"$DIR/mbrim" -cluster "http://$A1,http://$A2" $PROBLEM -json \
  >"$DIR/clean.json" || die "clean distributed solve"

# 3. Chaos: flaky transport (5% injected 503s) plus worker 1
# blackholed at epoch 5, two epochs past the last checkpoint. Federated,
# so the kill scenario must still merge into ONE fleet trace.
# shellcheck disable=SC2086
"$DIR/mbrim" -cluster "http://$A1,http://$A2" $PROBLEM -json \
  -ckpt-every 3 -chaos-error 0.05 -chaos-kill-worker 1 -chaos-kill-epoch 5 \
  -federate -span-trace "$DIR/chaos_trace.json" \
  >"$DIR/chaos.json" || die "chaos distributed solve"

# The clean distributed run reproduces the in-process run bit for bit,
# ledgers included.
jq -e --slurpfile c "$DIR/clean.json" '
  $c[0].Kind == "cluster" and
  .Energy == $c[0].Energy and
  .Cut == $c[0].Cut and
  .Stats.flips == $c[0].Stats.flips and
  .Stats.inducedFlips == $c[0].Stats.inducedFlips and
  .Stats.bitChanges == $c[0].Stats.bitChanges and
  .Stats.trafficBytes == $c[0].Stats.trafficBytes and
  .Stats.stallNS == $c[0].Stats.stallNS and
  .Spins == $c[0].Spins
' "$DIR/inproc.json" >/dev/null \
  || die "clean distributed run diverged from the in-process reference"

# The chaos run replays to the identical trajectory (spins, energy,
# counters) despite losing a worker...
jq -e --slurpfile c "$DIR/chaos.json" '
  .Energy == $c[0].Energy and
  .Cut == $c[0].Cut and
  .Stats.flips == $c[0].Stats.flips and
  .Stats.bitChanges == $c[0].Stats.bitChanges and
  .Spins == $c[0].Spins
' "$DIR/inproc.json" >/dev/null \
  || die "chaos run did not recover to the reference trajectory"

# ...recovery actually happened and was charged into the ledgers:
# death + rollback-replay observed, degraded (the survivor hosts both
# slices), and the handoff traffic exceeds the fault-free run's.
jq -e --slurpfile i "$DIR/inproc.json" '
  .Stats.workerDeaths >= 1 and
  .Stats.recoveries >= 1 and
  .Stats.replayedEpochs >= 1 and
  .Stats.handoffBytes > 0 and
  .Stats.recoveryStallNS > 0 and
  .Stats.degraded == 1 and
  .Stats.liveWorkers == 1 and
  .Stats.trafficBytes > $i[0].Stats.trafficBytes
' "$DIR/chaos.json" >/dev/null \
  || die "chaos run's recovery ledger missing or inconsistent"

# The chaos run's span trace is the fleet's: every span carries the SAME
# trace ID, and spans from the coordinator AND both workers made it into
# the one document — including the worker that died mid-run (its
# pre-kill spans were federated at the earlier checkpoint round).
[ -s "$DIR/chaos_trace.json" ] || die "chaos run wrote no span trace"
jq -e '
  ([.traceEvents[] | select(.args.trace != null) | .args.trace] | unique | length) == 1
' "$DIR/chaos_trace.json" >/dev/null \
  || die "chaos fleet trace does not share a single trace ID"
jq -e '
  ([.traceEvents[] | select(.args.trace != null) | .args.origin] | unique) as $o |
  ($o | index("co") != null) and
  (($o | map(select(startswith("w"))) | length) >= 2)
' "$DIR/chaos_trace.json" >/dev/null \
  || die "chaos fleet trace is missing coordinator or worker spans"
jq -e '
  [.traceEvents[] | select(.name == "recovery")] | length >= 1
' "$DIR/chaos_trace.json" >/dev/null \
  || die "chaos fleet trace does not show the recovery"

# Interrupt and resume, distributed on both sides. Delaying proxies hold
# every RPC 40 ms, so the 31-epoch run cannot finish inside the 500 ms
# budget on any host: exit 3 with a checkpoint, which -cluster -resume
# (no proxies) carries to the reference spins.
set +e
# shellcheck disable=SC2086
"$DIR/mbrim" -cluster "http://$A1,http://$A2" $PROBLEM -json \
  -chaos-delay-rate 1 -chaos-delay 40ms -timeout 500ms \
  -checkpoint "$DIR/cut.ckpt" >"$DIR/cut.json" 2>"$DIR/cut.err"
CODE=$?
set -e
[ "$CODE" -eq 3 ] || die "interrupted distributed run exited $CODE, want 3: $(cat "$DIR/cut.err")"
[ -s "$DIR/cut.ckpt" ] || die "interrupted distributed run wrote no checkpoint"
# shellcheck disable=SC2086
"$DIR/mbrim" -cluster "http://$A1,http://$A2" $PROBLEM -json \
  -resume "$DIR/cut.ckpt" >"$DIR/resumed.json" || die "resuming the distributed run"
jq -e --slurpfile r "$DIR/resumed.json" '
  .Energy == $r[0].Energy and
  .Stats.flips == $r[0].Stats.flips and
  .Stats.bitChanges == $r[0].Stats.bitChanges and
  .Spins == $r[0].Spins
' "$DIR/inproc.json" >/dev/null \
  || die "-cluster -resume did not land on the reference trajectory"

# 4. The daemon: a third mbrimd (no -worker) runs the solve as engine
# "cluster" — a run like any other — and, federated, serves the workers'
# spans in its trace and a fleet section in its diagnostics.
start_daemon "$DIR/co.out"
CO=$ADDR

RID=$(curl -sf -X POST "http://$CO/runs" -d '{
  "engine": "cluster", "workers": ["http://'"$A1"'", "http://'"$A2"'"],
  "k": 64, "chips": 2, "durationNS": 100, "seed": 7, "graphSeed": 7,
  "checkpointEvery": 3, "federate": true
}' | jq -r .id)
[ -n "$RID" ] && [ "$RID" != "null" ] || die "federated submission rejected"

STATE=""
for _ in $(seq 1 100); do
  STATE=$(curl -sf "http://$CO/runs/$RID" | jq -r .state)
  case "$STATE" in completed | failed | interrupted) break ;; esac
  sleep 0.1
done
[ "$STATE" = completed ] || die "federated daemon run ended ${STATE:-nowhere}"

curl -sf "http://$CO/runs/$RID/trace" >"$DIR/daemon_trace.json" \
  || die "GET /runs/$RID/trace"
jq -e '
  ([.traceEvents[] | select(.args.trace != null) | .args.trace] | unique | length) == 1 and
  (([.traceEvents[] | select(.args.trace != null) | .args.origin] | unique) as $o |
    ($o | index("co") != null) and (($o | map(select(startswith("w"))) | length) >= 2))
' "$DIR/daemon_trace.json" >/dev/null \
  || die "daemon trace malformed: spans from 2 workers must share the coordinator trace ID"

curl -sf "http://$CO/runs/$RID/diag" >"$DIR/daemon_diag.json" \
  || die "GET /runs/$RID/diag"
jq -e '
  (.traceID | length) == 16 and
  .fleet.workers == 2 and
  .fleet.epochs >= 1 and
  .fleet.syncFraction >= 0 and .fleet.syncFraction <= 1 and
  (.fleet.perWorker | length) == 2
' "$DIR/daemon_diag.json" >/dev/null \
  || die "fleet section of the diag report malformed"

# The same run through the alias the old cluster surface left behind:
# done and a flat result beside the ordinary status, and the energy the
# CLI legs agreed on (graphSeed 7 is the CLI's -seed 7 graph).
curl -sf "http://$CO/cluster/runs/$RID" >"$DIR/alias.json" \
  || die "GET /cluster/runs/$RID"
jq -e --slurpfile i "$DIR/inproc.json" '
  .id == "'"$RID"'" and .done == true and .state == "completed" and
  .result.energy == $i[0].Energy and
  .result.flips == $i[0].Stats.flips and
  .result.energy == .outcome.energy
' "$DIR/alias.json" >/dev/null \
  || die "alias status malformed: $(cat "$DIR/alias.json")"

ok
