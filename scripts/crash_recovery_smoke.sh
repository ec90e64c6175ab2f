#!/usr/bin/env bash
# Crash-recovery smoke for mbrimd's durable run supervision: start a
# daemon with a state dir, submit a multichip solve, kill -9 the daemon
# mid-run, restart it on the same state dir, and assert the journal
# replay resumes the run to an outcome bit-identical — energy, flips,
# full spin state — to the same submission solved by a daemon that was
# never interrupted.
#
# Run from the repository root: ./scripts/crash_recovery_smoke.sh
SMOKE="crash recovery smoke"
# shellcheck source=scripts/lib.sh
. scripts/lib.sh
STATE="$DIR/state"

build mbrimd

# ~0.85 s of wall time on a two-vCPU host: room for several 100ms
# checkpoints before the kill, and real work left to resume after it.
BODY='{"engine":"mbrim","k":64,"chips":2,"durationNS":20000,"seed":7}'

# Generation 1: durable daemon, killed mid-run.
start_daemon "$DIR/d1.out" -state-dir "$STATE" -checkpoint-every 100ms
G1="$ADDR"
curl -sf -X POST "http://$G1/runs" -d "$BODY" >/dev/null \
  || die "submitting the run to generation 1"

for _ in $(seq 1 150); do
  if compgen -G "$STATE/checkpoints/*.ckpt" >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done
compgen -G "$STATE/checkpoints/*.ckpt" >/dev/null 2>&1 \
  || die "no durable checkpoint appeared before the kill"
sleep 0.15 # let the solve move past the checkpointed state
kill -9 "$DPID" || die "kill -9 of generation 1"
wait "$DPID" 2>/dev/null || true

[ -s "$STATE/run.journal" ] || die "journal file missing after the crash"

# Generation 2: same state dir; replay must resume run-1 to completion.
start_daemon "$DIR/d2.out" -state-dir "$STATE" -checkpoint-every 100ms
G2="$ADDR"
grep -q "replayed" "$DIR/d2.out" || die "generation 2 logged no replay summary"

OUTCOME=""
for _ in $(seq 1 600); do
  if OUTCOME=$(curl -sf "http://$G2/runs/run-1/outcome" 2>/dev/null); then
    break
  fi
  OUTCOME=""
  sleep 0.1
done
[ -n "$OUTCOME" ] || die "resumed run-1 never reached a terminal outcome"
echo "$OUTCOME" >"$DIR/resumed.json"
jq -e '.state == "completed"' "$DIR/resumed.json" >/dev/null \
  || die "resumed run-1 ended $(jq -r .state "$DIR/resumed.json"), not completed"

# Reference: the identical submission on a daemon that is never
# interrupted (no state dir — journaling off is also the overhead-free
# default path).
start_daemon "$DIR/d3.out"
G3="$ADDR"
curl -sf -X POST "http://$G3/runs" -d "$BODY" >/dev/null \
  || die "submitting the reference run"
REF=""
for _ in $(seq 1 600); do
  if REF=$(curl -sf "http://$G3/runs/run-1/outcome" 2>/dev/null); then
    break
  fi
  REF=""
  sleep 0.1
done
[ -n "$REF" ] || die "reference run never reached a terminal outcome"
echo "$REF" >"$DIR/reference.json"

# The durability pin: kill -9 plus replay is invisible in the outcome.
jq -e --slurpfile ref "$DIR/reference.json" '
  .energy == $ref[0].energy and
  .stats.flips == $ref[0].stats.flips and
  .spins == $ref[0].spins
' "$DIR/resumed.json" >/dev/null \
  || die "resumed outcome diverged from the uninterrupted reference"

ok
