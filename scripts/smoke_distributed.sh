#!/usr/bin/env bash
# Distributed-campaign smoke (registered as the `smoke_distributed` ctest
# case). Proves the ISSUE-level acceptance property with real processes and
# real SIGKILLs:
#
#   1. reference bytes: the supervised smoke sweep, single host;
#   2. worker chaos: --serve=0 with four --worker processes, one of which
#      MEMTIS_KILL_WORKER-exits hard while holding a lease — the merged
#      output must be byte-identical to the reference;
#   3. coordinator chaos: --serve=127.0.0.1:0 --resume=MANIFEST with two
#      workers that each decide one cell and then die holding a lease, so
#      the campaign cannot finish; the coordinator is SIGKILLed once the
#      manifest holds decided cells, then the same command restarts on the
#      same manifest with fresh workers — the recovered output must again
#      be byte-identical.
set -euo pipefail

MEMTIS_RUN="${1:?usage: smoke_distributed.sh <path-to-memtis_run>}"
WORK="$(mktemp -d)"
cleanup() {
  # Kill any straggling coordinator/worker from a failed run.
  [ -z "${PIDS:-}" ] || kill -9 ${PIDS} 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT
PIDS=""

fail() {
  echo "smoke_distributed: FAIL: $*" >&2
  exit 1
}

REF="$WORK/ref.json"
"$MEMTIS_RUN" --smoke --quiet --supervise --out="$REF" \
  || fail "single-host supervised reference failed"

# --- 4 workers, one killed hard mid-campaign ----------------------------
SOCK_OUT="$WORK/sock.json"
PORT_FILE="$WORK/port.txt"
"$MEMTIS_RUN" --smoke --quiet --supervise --serve=0 --port-file="$PORT_FILE" \
  --lease-timeout-ms=2000 --out="$SOCK_OUT" &
COORD=$!
PIDS="$COORD"
for _ in $(seq 100); do
  [ -s "$PORT_FILE" ] && break
  sleep 0.1
done
[ -s "$PORT_FILE" ] || fail "coordinator never wrote --port-file"
PORT="$(cat "$PORT_FILE")"

WPIDS=""
# Worker 0 exits hard (no result, no FIN) while holding its second lease.
MEMTIS_KILL_WORKER=1 "$MEMTIS_RUN" --worker="$PORT" --quiet &
WPIDS="$WPIDS $!"
for i in 1 2 3; do
  "$MEMTIS_RUN" --worker="$PORT" --quiet --worker-name="sock$i" &
  WPIDS="$WPIDS $!"
done
PIDS="$PIDS$WPIDS"
for W in $WPIDS; do
  wait "$W" || true  # the killed worker reports nonzero by design
done
wait "$COORD" || fail "socket coordinator exited nonzero"
PIDS=""
cmp -s "$REF" "$SOCK_OUT" \
  || fail "4-worker campaign output differs from single-host reference"

# --- SIGKILL the coordinator mid-campaign, restart with --resume ---------
MANIFEST="$WORK/m.jsonl"
RESUME_OUT="$WORK/resume.json"
RESUME_PORT_FILE="$WORK/resume-port.txt"
serve_resumable() {  # $1: environment for the workers, e.g. KEY=VALUE
  rm -f "$RESUME_PORT_FILE"
  "$MEMTIS_RUN" --smoke --quiet --supervise --serve=127.0.0.1:0 \
    --resume="$MANIFEST" --port-file="$RESUME_PORT_FILE" \
    --lease-timeout-ms=2000 --out="$RESUME_OUT" &
  COORD=$!
  PIDS="$COORD"
  for _ in $(seq 100); do
    [ -s "$RESUME_PORT_FILE" ] && break
    sleep 0.1
  done
  [ -s "$RESUME_PORT_FILE" ] || fail "coordinator never wrote --port-file"
  local port
  port="$(cat "$RESUME_PORT_FILE")"
  WPIDS=""
  for i in 1 2; do
    env $1 "$MEMTIS_RUN" --worker="127.0.0.1:$port" --quiet \
      --worker-name="resume$i" &
    WPIDS="$WPIDS $!"
  done
  PIDS="$PIDS$WPIDS"
}
wait_workers() {
  for W in $WPIDS; do
    wait "$W" || true  # chaos-killed workers exit nonzero by design
  done
}

# Each worker decides one cell, then exits hard holding its next lease, so
# the campaign cannot finish and the kill always lands mid-campaign.
serve_resumable MEMTIS_KILL_WORKER=1
wait_workers
[ -s "$MANIFEST" ] || fail "no cell reached the manifest before the kill"
kill -9 "$COORD" 2>/dev/null || true
wait "$COORD" 2>/dev/null || true
PIDS=""
[ ! -e "$RESUME_OUT" ] || fail "campaign finished before the coordinator kill"

# Restart: the same command on the same manifest, served by fresh workers.
# Decided cells reload from the manifest; only the rest are issued.
serve_resumable ""
wait "$COORD" || fail "restarted coordinator exited nonzero"
wait_workers
PIDS=""
cmp -s "$REF" "$RESUME_OUT" \
  || fail "resumed campaign output differs from single-host reference"

echo "smoke_distributed: OK"
