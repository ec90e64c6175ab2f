#!/usr/bin/env bash
# End-to-end smoke of the heterogeneous portfolio engine (HETRI mode):
#
#   1. CLI leg — solve a seeded K-graph with sa alone to fix a target
#      energy, then race sa against tabu against a deliberately
#      long-running dsbm with that target. The race must end
#      first-to-target, the winner must be attributed, and the
#      still-running loser must report it was cancelled (its
#      InterruptedError surfaces as entrants[].interrupted in the race
#      ledger).
#   2. Daemon leg — the same scenario through mbrimd: GET /engines must
#      list the portfolio with its capability flags, POST /runs with a
#      portfolio spec must race to the target, and both the outcome's
#      race ledger and the diag snapshot's portfolio section must carry
#      the win attribution.
#
# Run from the repository root: ./scripts/portfolio_smoke.sh
SMOKE="portfolio smoke"
# shellcheck source=scripts/lib.sh
. scripts/lib.sh

build mbrim mbrimd

PROBLEM="-k 48 -seed 11 -sweeps 40 -runs 1"

# --- Leg 1: CLI race, first to target ---------------------------------

# Reference: sa alone fixes the target. Entrant 0 of the race runs the
# identical seed and sweep budget, so it reproduces this energy exactly
# and is guaranteed to cross the target.
# shellcheck disable=SC2086
"$DIR/mbrim" -solver sa $PROBLEM -json >"$DIR/ref.json" \
  || die "reference sa solve"
TARGET=$(jq -r '.Energy' "$DIR/ref.json")
[ -n "$TARGET" ] || die "reference run reported no energy"

# The race: sa will hit the target; dsbm's five-million-step budget
# guarantees somebody is still running when it does and must be
# cancelled.
# shellcheck disable=SC2086
"$DIR/mbrim" -solver portfolio -portfolio sa,tabu,dsbm \
  -target "$TARGET" $PROBLEM -steps 5000000 -json >"$DIR/race.json" \
  || die "portfolio race solve"

jq -e --argjson t "$TARGET" '
  .Portfolio.hitTarget == true and
  .Portfolio.winnerKind != "" and
  .Energy <= $t and
  ([.Portfolio.entrants[] | select(.interrupted == true)] | length) >= 1 and
  (.Portfolio.entrants | length) == 3
' "$DIR/race.json" >/dev/null \
  || die "race ledger missing first-to-target win or cancelled losers: $(cat "$DIR/race.json")"

# The human-readable report tells the same story.
# shellcheck disable=SC2086
"$DIR/mbrim" -solver portfolio -portfolio sa,tabu,dsbm \
  -target "$TARGET" $PROBLEM -steps 5000000 >"$DIR/race.txt" \
  || die "portfolio race solve (text)"
grep -q 'first to target' "$DIR/race.txt" || die "text report missing first-to-target"
grep -q 'cancelled' "$DIR/race.txt" || die "text report missing a cancelled loser"

# --- Leg 2: the daemon surface ----------------------------------------

start_daemon "$DIR/mbrimd.out"

# The engine catalogue comes from the registry, portfolio included.
curl -fsS "http://$ADDR/engines" >"$DIR/engines.json" || die "GET /engines"
jq -e '
  (.engines | length) >= 12 and
  ([.engines[] | select(.kind == "portfolio")] | length) == 1 and
  ([.engines[] | select(.kind == "mbrim" and .capabilities.resume)] | length) == 1 and
  ([.engines[] | select(.kind == "sa" and .capabilities.warmStart)] | length) == 1
' "$DIR/engines.json" >/dev/null || die "engine catalogue: $(cat "$DIR/engines.json")"

wait_done() {
  local id=$1 state=""
  for _ in $(seq 1 150); do
    state=$(curl -fsS "http://$ADDR/runs/$id" | jq -r .state)
    case "$state" in completed | failed | interrupted) break ;; esac
    sleep 0.2
  done
  [ "$state" = completed ] || die "run $id ended $state"
}

# Reference run through the daemon fixes the target for the same
# seeded problem.
ID=$(curl -fsS -X POST "http://$ADDR/runs" \
  -d '{"engine":"sa","k":48,"seed":11,"sweeps":40,"runs":1}' | jq -r .id)
[ -n "$ID" ] || die "reference submit"
wait_done "$ID"
DTARGET=$(curl -fsS "http://$ADDR/runs/$ID/outcome" | jq -r .energy)

# The race: identical sa entrant plus a long dsbm that must be
# cancelled at first-to-target.
RID=$(curl -fsS -X POST "http://$ADDR/runs" -d '{
  "engine": "portfolio", "k": 48, "seed": 11, "sweeps": 40, "runs": 1,
  "portfolio": {
    "targetEnergy": '"$DTARGET"',
    "entrants": [
      {"kind": "sa"}, {"kind": "tabu"}, {"kind": "dsbm", "steps": 5000000}
    ]
  }
}' | jq -r .id)
[ -n "$RID" ] || die "portfolio submit"
wait_done "$RID"

curl -fsS "http://$ADDR/runs/$RID/outcome" >"$DIR/outcome.json" || die "GET outcome"
jq -e --argjson t "$DTARGET" '
  .engine == "portfolio" and
  .energy <= $t and
  .portfolio.hitTarget == true and
  .portfolio.winnerKind != "" and
  ([.portfolio.entrants[] | select(.interrupted == true)] | length) >= 1
' "$DIR/outcome.json" >/dev/null \
  || die "daemon outcome ledger: $(cat "$DIR/outcome.json")"

# The diag snapshot folded the same race from the event stream.
curl -fsS "http://$ADDR/runs/$RID/diag" >"$DIR/diag.json" || die "GET diag"
jq -e '
  .portfolio != null and
  (.portfolio.entrants | length) == 3 and
  .portfolio.winner >= 0 and
  ([.portfolio.entrants[] | select(.phase == "cancelled")] | length) >= 1
' "$DIR/diag.json" >/dev/null || die "daemon diag portfolio section: $(cat "$DIR/diag.json")"

ok "CLI + daemon first-to-target race, losers cancelled"
