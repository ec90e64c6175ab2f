# shellcheck shell=bash
# What the smoke scripts share. Set SMOKE to the smoke's name, then
# source this from the repository root:
#
#   DIR                       a scratch directory for binaries and logs
#   die MSG…                  fail the smoke with a message
#   build NAME…               go build ./cmd/NAME into $DIR/NAME
#   start_daemon LOG ARGS…    boot $DIR/mbrimd on a free port with ARGS,
#                             wait for its banner and for /readyz; sets
#                             ADDR (host:port) and DPID
#   ok [DETAIL]               the smoke passed
#
# On exit every daemon started here is killed, and unless ok ran every
# $DIR/*.out log is printed.
set -euo pipefail
: "${SMOKE:?set SMOKE before sourcing scripts/lib.sh}"

DIR=$(mktemp -d)
PIDS=()
FAILED=1

cleanup() {
  if [ "$FAILED" -ne 0 ]; then
    echo "$SMOKE: FAILED — daemon logs follow" >&2
    for log in "$DIR"/*.out; do
      [ -f "$log" ] && { echo "--- $log ---" >&2; cat "$log" >&2; }
    done
  fi
  # Kill hard: a smoke runner must never leave daemons behind, even
  # ones wedged mid-drain.
  for pid in "${PIDS[@]:-}"; do
    kill -9 "$pid" 2>/dev/null || true
  done
}
trap cleanup EXIT

die() {
  echo "$SMOKE: FAIL: $*" >&2
  exit 1
}

build() {
  local name
  for name in "$@"; do
    go build -o "$DIR/$name" "./cmd/$name" || die "building $name"
  done
}

# (Deliberately not a command substitution: a subshell would hide the
# daemon's PID from the cleanup trap.)
start_daemon() {
  local log="$1"
  shift
  "$DIR/mbrimd" -addr localhost:0 "$@" >"$log" 2>&1 &
  DPID=$!
  PIDS+=("$DPID")
  ADDR=""
  for _ in $(seq 1 100); do
    ADDR=$(sed -n 's|^mbrimd: listening on http://||p' "$log")
    [ -n "$ADDR" ] && break
    sleep 0.1
  done
  [ -n "$ADDR" ] || die "daemon ($log) never printed its listen address"
  for _ in $(seq 1 100); do
    curl -sf "http://$ADDR/readyz" >/dev/null && return 0
    sleep 0.1
  done
  die "daemon ($log) never became ready"
}

ok() {
  FAILED=0
  echo "$SMOKE: OK${1:+ ($1)}"
}
