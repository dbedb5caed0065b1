#!/usr/bin/env bash
# Checkpointed-cell smoke (registered as the `smoke_checkpoint` ctest case).
# Proves the checkpoint plane's acceptance property with real processes and
# real SIGKILLs:
#
#   1. reference bytes: the supervised smoke sweep, checkpointing off;
#   2. checkpointing on, uninterrupted: byte-identical to the reference;
#   3. kill/resume: every supervised child SIGKILLs itself right after its
#      first snapshot (MEMTIS_KILL_AFTER_CHECKPOINTS=1); the supervisor
#      restores each from its newest snapshot and the finished sweep is
#      byte-identical to the reference;
#   4. the same kill/resume under --faults=storm with the invariant auditor
#      on (MEMTIS_AUDIT=1) and an --audit-json sink: result AND audit
#      document both byte-identical to their uninterrupted twins;
#   5. the same kill/resume on the policies and workloads whose snapshots
#      are the newest (scan- and hint-fault-driven baselines; pagerank's
#      sweep, 603.bwaves's free/alloc churn), against the supervised run
#      without checkpoints;
#   6. distributed: a --serve=0 socket campaign with --checkpoint-ns and four
#      workers sharing a snapshot directory — every child self-SIGKILLs after
#      its first snapshot, and one worker is additionally kill -9'd while
#      holding a lease so a peer resumes its cell — merged output
#      byte-identical to the reference.
set -euo pipefail

MEMTIS_RUN="${1:?usage: smoke_checkpoint.sh <path-to-memtis_run>}"
WORK="$(mktemp -d)"
cleanup() {
  [ -z "${PIDS:-}" ] || kill -9 ${PIDS} 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT
PIDS=""

fail() {
  echo "smoke_checkpoint: FAIL: $*" >&2
  exit 1
}

CKPT_NS=200000  # dense enough that every smoke cell writes several snapshots

REF="$WORK/ref.json"
"$MEMTIS_RUN" --smoke --quiet --supervise --out="$REF" \
  || fail "supervised reference failed"

# --- checkpointing on, uninterrupted -------------------------------------
ON_OUT="$WORK/on.json"
"$MEMTIS_RUN" --smoke --quiet --supervise --checkpoint-ns="$CKPT_NS" \
  --checkpoint-dir="$WORK/ckpt-on" --out="$ON_OUT" \
  || fail "uninterrupted checkpointed sweep failed"
cmp -s "$REF" "$ON_OUT" \
  || fail "checkpointing on != off (uninterrupted)"

# --- kill/resume: children SIGKILL after their first snapshot ------------
KILL_OUT="$WORK/kill.json"
MEMTIS_KILL_AFTER_CHECKPOINTS=1 \
  "$MEMTIS_RUN" --smoke --quiet --supervise --checkpoint-ns="$CKPT_NS" \
  --checkpoint-dir="$WORK/ckpt-kill" --out="$KILL_OUT" \
  || fail "kill/resume sweep failed"
cmp -s "$REF" "$KILL_OUT" \
  || fail "SIGKILLed+resumed sweep differs from uninterrupted reference"
# The kill hook only fires after a snapshot exists, so snapshots were written.
ls "$WORK/ckpt-kill"/*.s[01] >/dev/null 2>&1 \
  || fail "kill/resume run left no snapshot files"

# --- kill/resume under storm + auditor, audit document compared ----------
STORM_REF="$WORK/storm_ref.json"
STORM_REF_AUDIT="$WORK/storm_ref_audit.json"
MEMTIS_AUDIT=1 \
  "$MEMTIS_RUN" --smoke --quiet --supervise --faults=storm \
  --out="$STORM_REF" --audit-json="$STORM_REF_AUDIT" \
  || fail "storm reference failed"
STORM_OUT="$WORK/storm.json"
STORM_AUDIT="$WORK/storm_audit.json"
MEMTIS_AUDIT=1 MEMTIS_KILL_AFTER_CHECKPOINTS=1 \
  "$MEMTIS_RUN" --smoke --quiet --supervise --faults=storm \
  --checkpoint-ns="$CKPT_NS" --checkpoint-dir="$WORK/ckpt-storm" \
  --out="$STORM_OUT" --audit-json="$STORM_AUDIT" \
  || fail "storm kill/resume sweep failed"
cmp -s "$STORM_REF" "$STORM_OUT" \
  || fail "storm kill/resume result differs"
cmp -s "$STORM_REF_AUDIT" "$STORM_AUDIT" \
  || fail "storm kill/resume audit document differs"

# --- kill/resume across the scan/hint-fault baselines and two workloads --
# 70k accesses: past 603.bwaves's 60k-access churn, so later snapshots hold
# a transient buffer that was freed and allocated again.
SPREAD=(--systems=nimble,tpp,tiering-0.8,multi-clock
        --benchmarks=pagerank,603.bwaves --accesses=70000 --quiet --supervise)
SPREAD_REF="$WORK/spread_ref.json"
"$MEMTIS_RUN" "${SPREAD[@]}" --out="$SPREAD_REF" \
  || fail "baseline-spread reference failed"
SPREAD_OUT="$WORK/spread.json"
MEMTIS_KILL_AFTER_CHECKPOINTS=1 \
  "$MEMTIS_RUN" "${SPREAD[@]}" --checkpoint-ns="$CKPT_NS" \
  --checkpoint-dir="$WORK/ckpt-spread" --out="$SPREAD_OUT" \
  || fail "baseline-spread kill/resume sweep failed"
cmp -s "$SPREAD_REF" "$SPREAD_OUT" \
  || fail "baseline-spread kill/resume differs from uninterrupted reference"
ls "$WORK/ckpt-spread"/*.s[01] >/dev/null 2>&1 \
  || fail "baseline-spread kill/resume left no snapshot files"

# --- distributed: 4 workers, self-SIGKILLs + one worker kill -9'd --------
DIST_OUT="$WORK/dist.json"
PORT_FILE="$WORK/port.txt"
CKDIR="$WORK/ckpt-dist"
"$MEMTIS_RUN" --smoke --quiet --supervise --serve=0 --port-file="$PORT_FILE" \
  --checkpoint-ns="$CKPT_NS" --lease-timeout-ms=2000 --out="$DIST_OUT" &
COORD=$!
PIDS="$COORD"
for _ in $(seq 100); do
  [ -s "$PORT_FILE" ] && break
  sleep 0.1
done
[ -s "$PORT_FILE" ] || fail "coordinator never wrote --port-file"
PORT="$(cat "$PORT_FILE")"

WPIDS=""
for i in 0 1 2 3; do
  MEMTIS_KILL_AFTER_CHECKPOINTS=1 \
    "$MEMTIS_RUN" --worker="$PORT" --quiet --worker-name="ck$i" \
    --checkpoint-dir="$CKDIR" &
  WPIDS="$WPIDS $!"
done
PIDS="$PIDS$WPIDS"

# SIGKILL one worker outright while the campaign runs: its lease expires and
# a peer resumes the cell from the shared snapshot directory.
VICTIM="$(echo $WPIDS | awk '{print $1}')"
sleep 0.5
kill -9 "$VICTIM" 2>/dev/null || true

for W in $WPIDS; do
  wait "$W" 2>/dev/null || true  # the killed worker reports nonzero by design
done
wait "$COORD" || fail "checkpointed socket coordinator exited nonzero"
PIDS=""
cmp -s "$REF" "$DIST_OUT" \
  || fail "checkpointed distributed campaign differs from reference"

echo "smoke_checkpoint: OK"
