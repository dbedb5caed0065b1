#!/usr/bin/env bash
# Sanitized build + full test sweep: configures a separate build tree with
# ASan/UBSan, builds everything — including the bench/ targets, so perf
# harness bitrot fails here too — and runs ctest (which includes the
# memtis_run --smoke runner case and the hotpath_bench --smoke perf smoke) —
# first plain, then again with MEMTIS_AUDIT=1 so every engine-driven test
# runs under the abort-on-violation invariant auditor (src/audit/), then a
# targeted MEMTIS_FAULTS=storm pass that drives the fault-injection stress
# tests (src/fault/) under the dense all-site preset, and finally a
# crash-injection sweep that SIM_CHECK-aborts one supervised cell
# (MEMTIS_CRASH_CELL) and asserts the sweep completes around it, a fifth
# pass running a 3-tenant churn colocation (src/tenant/) under MEMTIS_AUDIT=1
# so the per-tenant conservation/quota invariants are exercised end to end,
# and a sixth pass storming the exchange-abort fault site through every
# exchange-capable policy under the auditor (the exchange-accounting and
# frame-conservation invariants certify each two-sided rollback), and a
# seventh pass building the sharded-engine tests under ThreadSanitizer (a
# separate build tree — TSan and ASan cannot share one) and running the
# shard-identity suite with real worker threads, since ShardedEngine is the
# repo's first intra-cell threading, and an eighth pass re-running the
# distributed-campaign chaos/differential suite (multi-worker byte-identity,
# killed/hung workers, coordinator SIGKILL + --resume restart, wire-protocol
# and JSON-codec fuzz) under the sanitizers, since the coordinator/worker
# layer is the repo's first socket and multi-process I/O, and a ninth pass
# driving the snapshot plane's kill-storm (kill-anywhere differentials,
# snapshot-loader corruption fuzzers, real-SIGKILL checkpoint smoke) under
# the same sanitizers.
# Usage:
#
#   scripts/check.sh [build-dir]
#
# Env: JOBS overrides the parallelism (default: nproc).

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-asan}"
JOBS="${JOBS:-$(nproc)}"

cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"
cmake --build "$BUILD_DIR" -j"$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS"
echo "== second pass: MEMTIS_AUDIT=1 (runtime invariant auditing) =="
MEMTIS_AUDIT=1 ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS"
echo "== third pass: MEMTIS_FAULTS=storm (fault-injection stress, audited) =="
MEMTIS_AUDIT=1 MEMTIS_FAULTS=storm ctest --test-dir "$BUILD_DIR" \
    --output-on-failure -j"$JOBS" -R '(Fault|Fuzz|memtis_run_smoke)'
echo "== fourth pass: crash-injection sweep (supervised cell isolation) =="
MEMTIS_RUN="$BUILD_DIR/src/runner/memtis_run"
CRASH_FP="$("$MEMTIS_RUN" --smoke --list-cells | awk '{print $1; exit}')"
CRASH_OUT="$BUILD_DIR/crash_injection_sweep.json"
if MEMTIS_CRASH_CELL="$CRASH_FP" "$MEMTIS_RUN" --smoke --quiet \
    --supervise --keep-going --out="$CRASH_OUT"; then
  echo "check.sh: FAIL: crash-injected sweep exited 0" >&2
  exit 1
fi
grep -q '"cells_failed":1' "$CRASH_OUT" || {
  echo "check.sh: FAIL: expected exactly one failed cell" >&2
  exit 1
}
grep -q '"kind":"crash"' "$CRASH_OUT" || {
  echo "check.sh: FAIL: crash failure kind not reported" >&2
  exit 1
}
echo "crash-injection sweep: one cell failed, sweep completed (as intended)"
echo "== fifth pass: 3-tenant churn colocation under MEMTIS_AUDIT=1 =="
# A colocated fairness run with a fast-quota'd tenant, a weighted tenant, and
# a churner that arrives mid-run and departs after its access budget — under
# the abort-on-violation auditor, so any per-tenant conservation, quota, or
# borrow-window violation (including at the churn boundaries) kills the run.
COLO_OUT="$BUILD_DIR/colocate_churn.json"
MEMTIS_AUDIT=1 "$MEMTIS_RUN" --quiet --accesses=120000 --indent=0 \
    "--colocate=silo,quota=0.5,weight=2;pagerank,quota=0.25;btree,name=churner,arrive=5000000,accesses=30000" \
    --out="$COLO_OUT"
grep -q '"kind":"colocation"' "$COLO_OUT" || {
  echo "check.sh: FAIL: colocation report missing" >&2
  exit 1
}
grep -q '"slowdown":' "$COLO_OUT" || {
  echo "check.sh: FAIL: colocation report lacks per-tenant slowdowns" >&2
  exit 1
}
echo "3-tenant churn colocation: audit clean, fairness report written"
echo "== sixth pass: exchange-abort storm across exchange-capable policies =="
# Every policy that can call ExchangePages (AutoTiering natively, the MEMTIS
# and HeMem opt-in variants) runs at a tight fast ratio — so the fast tier
# fills and exchanges actually fire — with the exchange-abort site rolling
# at 20 % plus background migrate-aborts, under the abort-on-violation
# auditor. The output must show completed exchanges and injected aborts.
EXCH_OUT="$BUILD_DIR/exchange_storm.json"
MEMTIS_AUDIT=1 "$MEMTIS_RUN" --quiet --accesses=120000 \
    --systems=autotiering,memtis-exchange,hemem-exchange \
    --benchmarks=btree --ratios=1:8 --audit \
    --faults=exchange-abort=0.2,migrate-abort=0.05,seed=9 \
    --out="$EXCH_OUT"
grep -q '"exchanges":' "$EXCH_OUT" || {
  echo "check.sh: FAIL: exchange storm completed no exchanges" >&2
  exit 1
}
grep -q '"exchange-abort"' "$EXCH_OUT" || {
  echo "check.sh: FAIL: exchange-abort site never rolled" >&2
  exit 1
}
echo "exchange-abort storm: audit clean, exchanges and aborts recorded"
echo "== seventh pass: ThreadSanitizer over the sharded-engine tests =="
# ShardedEngine runs shards on a work-stealing thread pool; TSan certifies
# the only cross-thread state (the atomic index, the shard-indexed result
# slots, the join) is race-free. Separate tree: TSan is incompatible with
# the ASan/UBSan flags above.
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "$TSAN_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all"
cmake --build "$TSAN_DIR" -j"$JOBS" --target replay_differential_test
"$TSAN_DIR/tests/replay_differential_test" \
    --gtest_filter='PolicySpread/ShardedIdentityTest.*:ReplayFuzz.*'
echo "sharded-engine TSan pass: clean"
echo "== eighth pass: distributed campaign chaos under ASan/UBSan =="
# The multi-worker campaign suite — differential byte-identity at 1 and 4
# workers, killed and hung workers, lease-expiry caps, coordinator restart
# from a torn --resume manifest — plus the wire-protocol fuzzers, the
# manifest fuzzer, the JSON field-list codec cases (the decoder reads
# untrusted manifest and wire bytes) and the real-SIGKILL smoke script, all
# in the sanitized build so every socket, fork and decode path is leak- and
# UB-checked end to end.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS" \
    -R '(Distributed\.|Campaign\.|smoke_distributed)'
"$BUILD_DIR/tests/fuzz_test" --gtest_filter='Fuzz.FrameDecoder*:Fuzz.Protocol*:Fuzz.Coordinator*:Fuzz.JobSpecJson*:Fuzz.ManifestRoundTrip*:Codec.*'
echo "distributed chaos pass: clean"
echo "== ninth pass: checkpoint kill-storm under ASan/UBSan =="
# The snapshot plane end to end in the sanitized build: serializer/envelope
# units, the kill-anywhere differentials (every registered policy on btree
# and memtis on every paper workload, in process and supervised; the 4-worker
# socket campaign; storm + auditor), the snapshot-loader corruption fuzzers,
# and the real-SIGKILL smoke script — so every snapshot write,
# restore, quarantine, and resumed fork path is leak- and UB-checked. The
# buddy allocator's and the memory system's snapshot cases run here too:
# their loaders must reject frame ids, slot ids, page-table entries and tenant
# ids read from the payload before anything indexes with them. The
# Fuzz.Snapshot* filter includes the payload fuzzers (torn and mutated real
# payloads through RestoreFromPayload, a moved region base among them; each
# accepted payload runs to its end in a forked child).
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS" \
    -R '(Serializer\.|SnapshotFile\.|SnapshotStore\.|Checkpoint\.|BuddySnapshot\.|MemorySystemSnapshot\.|smoke_checkpoint)'
"$BUILD_DIR/tests/fuzz_test" --gtest_filter='Fuzz.Snapshot*'
echo "checkpoint kill-storm pass: clean"
