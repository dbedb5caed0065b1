#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of memtis-sim (see README.md here).

  python3 bench/e2e/memtis_bench.py [--workload NAME] [--seed N] [--seconds S]
                                    [--trace 0|1] [--report FILE]
  python3 bench/e2e/memtis_bench.py --smoke
  python3 bench/e2e/memtis_bench.py --fidelity [--seed N]
  python3 bench/e2e/memtis_bench.py --compare PARENT.json... -- CHANGE.json...

Builds memtis_run, layer_trace and hotpath_bench from this checkout into
.bench_build (Release only), then runs each workload through memtis_run for
--seconds, repeating its unit of work and reporting medians. --trace 0 prints
the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones. The
last stdout line of a single-workload run is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Without --workload every workload runs in turn. Any failed cell, failed
check or nonzero child exit makes the run incorrect and the exit code 1.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build"
MEMTIS_RUN = BUILD / "memtis" / "runner" / "memtis_run"
LAYER_TRACE = BUILD / "layer_trace"
HOTPATH_BENCH = BUILD / "hotpath_bench"
RUSAGE_RUN = BUILD / "rusage_run"
TARGETS = (MEMTIS_RUN, LAYER_TRACE, HOTPATH_BENCH, RUSAGE_RUN)

NPROC = os.cpu_count() or 1
POOL = min(4, NPROC)  # worker threads for the pooled workloads and builds
SETUP_REPS = 9
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
PAPER_BEST_CELLS = 23
PAPER_GAIN_PCT = 33.6

# Access budgets and cell counts per mode. "full" is what the tracked numbers
# use: each workload's unit of work takes 1-2 s on a 4-core x86 host, so a
# 10 s run measures 5-9 units. "smoke" only exercises every path and check.
SIZES = {
    "full": dict(
        fig5_accesses=150_000,
        stream_accesses=30_000_000,
        stream_sharded_accesses=120_000_000,
        campaign_seeds=8,
        campaign_accesses=300_000,
        checkpoint_ns=20_000_000,
        storm_seeds=2,
        storm_accesses=100_000,
        ablation_seeds=1,
        model_accesses=300_000,
        audit_probe_accesses=50_000,
        stream_probe_accesses=4_000_000,
        probe_repeat=3,
        micro_runs=3,
    ),
    "smoke": dict(
        fig5_accesses=2_000,
        stream_accesses=100_000,
        stream_sharded_accesses=400_000,
        campaign_seeds=1,
        campaign_accesses=20_000,
        checkpoint_ns=1_000_000,
        storm_seeds=1,
        storm_accesses=3_000,
        ablation_seeds=1,
        model_accesses=10_000,
        audit_probe_accesses=3_000,
        stream_probe_accesses=100_000,
        probe_repeat=1,
        micro_runs=1,
    ),
}

MICROBENCHES = {  # hotpath_bench name -> per-layer metric
    "cooling_scan": "micro.cooling_scan_ns",
    "split_collapse_churn": "micro.split_collapse_ns",
    "exchange_churn": "micro.exchange_ns",
    "migrate_evict_churn": "micro.migrate_evict_ns",
    "metrics_recount": "micro.metrics_recount_ns",
    "access_replay": "micro.access_replay_scalar_ns",
}
GRID_SYSTEMS = ("memtis", "hemem", "autotiering")  # in every workload
MODELS = ("graph500", "pagerank", "xsbench", "liblinear", "silo", "btree",
          "603.bwaves", "654.roms", "stream")


class BenchError(Exception):
    """A failed child, cell or correctness check."""


# --------------------------------------------------------------------------
# Build and child processes


def build():
    cache = BUILD / "CMakeCache.txt"
    if cache.exists():
        m = re.search(r"^CMAKE_BUILD_TYPE:[^=]*=(.*)$", cache.read_text(), re.M)
        build_type = m.group(1).strip() if m else ""
        if build_type != "Release":
            sys.exit(f"memtis_bench: {BUILD} is configured as "
                     f"'{build_type or '<unset>'}', not Release; host-time "
                     "numbers from it would be meaningless. Remove it first.")
    # Configuring every time keeps the generated makefiles in step with this
    # directory's CMakeLists.txt; it is a no-op when nothing changed.
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), f"-j{POOL}", "--target",
              *(t.name for t in TARGETS)]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print(f"memtis_bench: build failed: {' '.join(cmd)}", file=sys.stderr)
            sys.exit(2)


def child_env(extra):
    # Every MEMTIS_* knob (scale, seeds, audit, thread count, crash and kill
    # hooks) would silently change what a workload runs; only the workload's
    # own settings reach the child.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MEMTIS_")}
    env.update(extra)
    return env


@dataclass
class Proc:
    wall: float
    cpu: float
    rss_kb: int
    stdout: str


def kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run(argv, work, env=None, capture=False):
    """Runs argv to completion; returns its wall time and resource usage."""
    err_path = work / "child.stderr"
    usage_path = work / "child.rusage"
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen([str(a) for a in (RUSAGE_RUN, usage_path, *argv)],
                             env=child_env(env or {}),
                             stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                             stderr=err, start_new_session=True)
        # A hung child (or a supervised grandchild) is killed as a group.
        timer = threading.Timer(CHILD_TIMEOUT_S, kill_group, (p.pid,))
        timer.start()
        try:
            out = p.stdout.read().decode() if capture else ""
            p.wait()
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    if p.returncode != 0:
        tail = err_path.read_text()[-2000:]
        raise BenchError(f"{Path(argv[0]).name} exited {p.returncode}: "
                         f"{' '.join(map(str, argv[1:]))}\n{tail}")
    rss_kb, user_s, system_s = usage_path.read_text().split()
    return Proc(wall, float(user_s) + float(system_s), int(rss_kb), out)


# --------------------------------------------------------------------------
# Workloads


@dataclass
class Invocation:
    """One memtis_run call of a workload's unit of work."""
    sweep: list            # sweep-axis flags: what cells exist
    accesses: int
    sink: str              # --out file name in the work directory
    execution: list = field(default_factory=list)  # how they run
    audit: list = field(default_factory=list)      # --audit flags
    env: dict = field(default_factory=dict)
    simulates: bool = True  # False: reloads results, simulates nothing

    def argv(self, seed, work, accesses=None):
        acc = self.accesses if accesses is None else accesses
        return ([MEMTIS_RUN, *self.sweep, f"--accesses={acc}", f"--base-seed={seed}"]
                + [a.format(work=work) for a in self.audit + self.execution]
                + ["--quiet", "--indent=0", f"--out={work / self.sink}"])

    def audit_json(self, work):
        for a in self.audit:
            if a.startswith("--audit-json="):
                return Path(a.format(work=work).split("=", 1)[1])
        return None

    def list_cells(self, seed, work, audit=False):
        """The canonical cell specs, by memtis_run itself. Without `audit` the
        audit flags are left off: an audited cell's metrics equal the plain
        cell's, and a plain cell's policy can be traced."""
        argv = [MEMTIS_RUN, *self.sweep, f"--accesses={self.accesses}",
                f"--base-seed={seed}", "--list-cells"]
        if audit:
            argv += [a.format(work=work) for a in self.audit]
        out = run(argv, work, capture=True)
        return [line for line in out.stdout.splitlines() if line]


def campaign_invocations(size, seeds, suffix):
    sweep = ["--systems=memtis,hemem,autotiering,autonuma",
             "--benchmarks=silo,btree", "--ratios=1:2,1:8", f"--seeds={seeds}"]
    resilient = [f"--threads={POOL}", "--supervise", "--keep-going",
                 "--backoff-ms=0", f"--checkpoint-ns={size['checkpoint_ns']}",
                 f"--checkpoint-dir={{work}}/ckpt{suffix}",
                 f"--resume={{work}}/manifest{suffix}.jsonl"]
    return [
        # Every fresh child SIGKILLs itself after its 2nd snapshot and is
        # resumed from it by the supervisor.
        Invocation(sweep, size["campaign_accesses"], f"campaign{suffix}.json",
                   resilient, env={"MEMTIS_KILL_AFTER_CHECKPOINTS": "2"}),
        # The same command again: every cell is reloaded from the manifest.
        Invocation(sweep, size["campaign_accesses"], f"rerun{suffix}.json",
                   resilient, simulates=False),
    ]


WORKLOADS = {
    # Why each workload exists: BENCHMARK.json and README.md.
    "fig5_grid": dict(
        threads=1,
        invocations=lambda s: [Invocation(
            ["--ratios=1:2,1:8,1:16", "--baseline"], s["fig5_accesses"],
            "fig5.json", ["--threads=1"])],
    ),
    "stream_batched": dict(
        threads=1,
        invocations=lambda s: [
            Invocation(["--systems=memtis,hemem,autotiering", "--benchmarks=stream"],
                       s["stream_accesses"], "stream.json", ["--threads=1"]),
            Invocation(["--systems=memtis", "--benchmarks=stream", "--shards=4"],
                       s["stream_sharded_accesses"], "sharded.json", ["--threads=1"]),
        ],
    ),
    "campaign": dict(
        threads=POOL,
        invocations=lambda s: campaign_invocations(s, s["campaign_seeds"], ""),
    ),
    "audited_storm": dict(
        threads=1,
        invocations=lambda s: [Invocation(
            ["--systems=memtis,hemem,autotiering,tpp",
             "--benchmarks=silo,btree,pagerank,654.roms",
             f"--seeds={s['storm_seeds']}", "--faults=storm"],
            s["storm_accesses"], "storm.json", ["--threads=1"],
            audit=["--audit", "--audit-json={work}/storm_audit.json",
                   "--audit-epoch-ns=1000000"])],
    ),
}


def load(path):
    with open(path) as f:
        return json.load(f)


def flatten(obj, prefix=""):
    out = {}
    for key, value in obj.items():
        if isinstance(value, dict):
            out.update(flatten(value, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = value
    return out


def job_digest_record(job):
    # Everything the simulation decided; "id"/"attempts" describe execution.
    return {k: v for k, v in job.items() if k not in ("id", "attempts")}


@dataclass
class Unit:
    wall: float = 0.0
    cpu: float = 0.0
    rss_kb: int = 0
    accesses: int = 0
    cells: int = 0
    digest: str = ""
    jobs: list = field(default_factory=list)  # simulated jobs, listing order
    fidelity: dict = None


def run_unit(invocations, seed, work, expected_cells, accesses=None):
    """Runs one unit of work and checks every output it produced."""
    # A campaign unit starts without snapshots or manifest.
    shutil.rmtree(work / "ckpt", ignore_errors=True)
    (work / "manifest.jsonl").unlink(missing_ok=True)
    unit = Unit()
    digest = hashlib.sha256()
    sinks = []
    for inv in invocations:
        p = run(inv.argv(seed, work, accesses), work, env=inv.env)
        unit.wall += p.wall
        unit.cpu += p.cpu
        unit.rss_kb = max(unit.rss_kb, p.rss_kb)
        raw = (work / inv.sink).read_bytes()
        if not inv.simulates and raw != sinks[-1]:
            raise BenchError(f"{inv.sink} (reloaded from the manifest) differs "
                             "from the run that wrote the manifest")
        sinks.append(raw)
        doc = json.loads(raw)
        summary = doc.get("summary")
        if summary and (summary["cells_failed"] or summary["cells_not_run"]):
            raise BenchError(f"{inv.sink}: {summary}")
        budget = inv.accesses if accesses is None else accesses
        for job in doc["jobs"]:
            if job["metrics"]["accesses"] < budget:
                raise BenchError(f"{inv.sink}: job {job['id']} stopped at "
                                 f"{job['metrics']['accesses']} of {budget} accesses")
            if inv.simulates:
                digest.update(json.dumps(job_digest_record(job), sort_keys=True).encode())
        if inv.audit:
            audit = load(inv.audit_json(work))
            if not audit["summary"]["ok"] or audit["summary"]["violations_total"]:
                raise BenchError(f"audit violations: {audit['summary']}")
            for job in audit["jobs"]:
                digest.update(json.dumps(job, sort_keys=True).encode())
            injected = sum(j["metrics"]["faults"]["faults_injected"] for j in doc["jobs"])
            if injected == 0:
                raise BenchError("fault storm injected no faults")
        if inv.simulates:
            unit.jobs += doc["jobs"]
        if "--baseline" in inv.sweep:
            unit.fidelity = fidelity(doc)
    if len(unit.jobs) != expected_cells:
        raise BenchError(f"{len(unit.jobs)} cells in the sinks, "
                         f"{expected_cells} listed")
    unit.cells = len(unit.jobs)
    unit.accesses = sum(j["metrics"]["accesses"] for j in unit.jobs)
    unit.digest = digest.hexdigest()
    return unit


def fidelity(doc):
    """MEMTIS vs the best baseline per Fig. 5 cell, as fig05_main_comparison."""
    runtime = {}
    for job in doc["jobs"]:
        key = (job["benchmark"], job["fast_ratio"], job["seed_index"])
        runtime.setdefault(key, {})[job["system"]] = job["metrics"]["effective_runtime_ns"]
    cells = {}
    for (benchmark, ratio, _), by_system in runtime.items():
        base = by_system.pop("all-capacity")
        for system, ns in by_system.items():
            cells.setdefault((benchmark, ratio), {}).setdefault(system, []).append(base / ns)
    scores = {}
    best = 0
    for by_system in cells.values():
        perf = {s: statistics.fmean(v) for s, v in by_system.items()}
        for s, v in perf.items():
            scores.setdefault(s, []).append(v)
        best += perf["memtis"] >= max(v for s, v in perf.items() if s != "memtis")
    geo = {s: math.exp(statistics.fmean(map(math.log, v))) for s, v in scores.items()}
    gain = geo["memtis"] / max(v for s, v in geo.items() if s != "memtis") - 1
    return {"fig5_best_cells": best, "fig5_cells": len(cells),
            "fig5_gain_pct": 100 * gain,
            "fig5_gain_err_pct": abs(100 * gain - PAPER_GAIN_PCT)}


# --------------------------------------------------------------------------
# Untraced pass: end-to-end metrics


def measure(invocations, seed, seconds, work, expected, setup_reps):
    # Set-up: the same unit with one access per cell, several times. It also
    # warms the page cache and binaries before the timed units.
    setup = [run_unit(invocations, seed, work, expected, accesses=1).wall
             for _ in range(setup_reps)]
    units = []
    t0 = time.perf_counter()
    while True:
        units.append(run_unit(invocations, seed, work, expected))
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds and len(units) >= min(MIN_REPS, setup_reps):
            break
        if elapsed >= 8 * max(seconds, 1):
            break
    digests = {u.digest for u in units}
    if len(digests) != 1:
        raise BenchError(f"simulated results differ between repetitions: {digests}")
    med = statistics.median
    metrics = {
        "wall_s": (med(u.wall for u in units), "s"),
        "host_ns_per_access": (med(1e9 * u.wall / u.accesses for u in units), "ns"),
        "cpu_s": (med(u.cpu for u in units), "s"),
        "setup_s": (med(setup), "s"),
        "peak_rss_mb": (med(u.rss_kb / 1024 for u in units), "MiB"),
    }
    return metrics, units


# --------------------------------------------------------------------------
# Traced pass: per-layer metrics


def trace_cells(lines, threads, work, plain):
    cells_file = work / "cells.txt"
    cells_file.write_text("\n".join(lines) + "\n")
    argv = [LAYER_TRACE, f"--cells={cells_file}", f"--threads={threads}"]
    return json.loads(run(argv + (["--plain"] if plain else []), work,
                          capture=True).stdout)


def check_identity(traced, reference, what):
    """Every counter the tracer reports must equal memtis_run's for the cell."""
    if len(traced["cells"]) != len(reference):
        raise BenchError(f"{what}: {len(traced['cells'])} traced cells, "
                         f"{len(reference)} in the sink")
    for cell, job in zip(traced["cells"], reference):
        sink = flatten(job["metrics"])
        if (cell["system"], cell["benchmark"]) != (job["system"], job["benchmark"]):
            raise BenchError(f"{what}: cell order differs at {job['id']}")
        diff = {k: (v, sink.get(k)) for k, v in cell["metrics"].items() if sink.get(k) != v}
        if diff:
            raise BenchError(f"{what}: traced {cell['system']}/{cell['benchmark']} "
                             f"differs from memtis_run: {diff}")


def cell_layers(traced):
    cells = traced["cells"]
    total = lambda key: sum(c[key] for c in cells)
    metric = lambda key: sum(c["metrics"][key] for c in cells)
    run_ns = total("run_ns")
    deciles = statistics.quantiles([c["run_ns"] / 1e6 for c in cells], n=10,
                                   method="inclusive")
    out = {
        "sim.run_s": (run_ns / 1e9, "s"),
        "sim.step_self_s": (sum(c["step_ns"] - c["step_hook_ns"] for c in cells) / 1e9, "s"),
        "sim.accesses": (metric("accesses"), "count"),
        "sim.batched_frac": (total("absorbed_accesses") / metric("accesses"), "ratio"),
        "sim.cell_ms_p50": (deciles[4], "ms"),
        "sim.cell_ms_p90": (deciles[8], "ms"),
        "workloads.setup_s": (total("setup_ns") / 1e9, "s"),
        "policy.on_access_s": (total("on_access_ns") / 1e9, "s"),
        "policy.on_access_calls": (total("on_access_calls"), "count"),
        "policy.absorbed_accesses": (total("absorbed_accesses"), "count"),
        "policy.tick_s": (total("tick_ns") / 1e9, "s"),
        "policy.tick_calls": (total("tick_calls"), "count"),
        "policy.tick_us_p50": (traced["tick_p50_ns"] / 1e3, "us"),
        "policy.tick_us_p999": (traced["tick_p999_ns"] / 1e3, "us"),
        "policy.alloc_hooks_s": (total("alloc_hook_ns") / 1e9, "s"),
        "policy.share": (total("hooks_ns") / run_ns, "ratio"),
        "mem.migrated_4k": (metric("migration.promoted_4k") + metric("migration.demoted_4k"), "count"),
        "mem.splits": (metric("migration.splits"), "count"),
        "tlb.misses": (metric("tlb.base_misses") + metric("tlb.huge_misses"), "count"),
        "fault.injected": (metric("faults.faults_injected"), "count"),
    }
    for system in GRID_SYSTEMS:
        out[f"policy.{system}.hooks_s"] = (
            sum(c["hooks_ns"] for c in cells if c["system"] == system) / 1e9, "s")
    return out


def median_layers(samples):
    return {k: (statistics.median(s[k][0] for s in samples), samples[0][k][1])
            for k in samples[0]}


def probe_models(size, seed, work):
    """ns/access of every model under MEMTIS at 1:2, untraced, in-process."""
    inv = Invocation(["--systems=memtis", f"--benchmarks={','.join(MODELS)}"],
                     size["model_accesses"], "models.json", ["--threads=1"])
    lines = inv.list_cells(seed, work)
    run(inv.argv(seed, work), work)
    reference = load(work / inv.sink)["jobs"]
    per_model = {}
    for _ in range(size["probe_repeat"]):
        timed = trace_cells(lines, 1, work, plain=True)
        check_identity(timed, reference, "model probe")
        for cell in timed["cells"]:
            per_model.setdefault(cell["benchmark"], []).append(
                cell["run_ns"] / cell["metrics"]["accesses"])
    return {f"model.{m}.ns_per_access": (statistics.median(v), "ns")
            for m, v in per_model.items()}


def probe_audit(size, seed, work):
    """Observer cost of the invariant auditor over a fixed storm cell set."""
    inv = Invocation(["--systems=memtis,hemem,autotiering,tpp",
                      "--benchmarks=silo,btree", "--faults=storm"],
                     size["audit_probe_accesses"], "audit_probe.json", ["--threads=1"],
                     audit=["--audit", "--audit-json={work}/audit_probe_audit.json",
                            "--audit-epoch-ns=1000000"])
    lines = inv.list_cells(seed, work, audit=True)
    run(inv.argv(seed, work), work)
    traced = trace_cells(lines, 1, work, plain=False)
    check_identity(traced, load(work / inv.sink)["jobs"], "audit probe")
    for cell, job in zip(traced["cells"], load(inv.audit_json(work))["jobs"]):
        report = {k: job["report"][k] for k in cell["audit"]}
        if report != cell["audit"] or report["violations_total"]:
            raise BenchError(f"audit probe: traced report {cell['audit']} vs {report}")
    cells = traced["cells"]
    observer = sum(c["observer_ns"] for c in cells)
    return {
        "audit.observer_s": (observer / 1e9, "s"),
        "audit.share": (observer / sum(c["run_ns"] for c in cells), "ratio"),
        "audit.checks_run": (sum(c["audit"]["checks_run"] for c in cells), "count"),
    }


def probe_stream(size, seed, work):
    out = json.loads(run([LAYER_TRACE, "--stream-probe",
                          f"--accesses={size['stream_probe_accesses']}",
                          f"--base-seed={seed}", f"--shards={POOL}",
                          f"--repeat={size['probe_repeat']}"], work, capture=True).stdout)
    return {
        "micro.access_replay_stream_scalar_ns": (out["scalar_ns_per_access"], "ns"),
        "micro.access_replay_batched_ns": (out["batched_ns_per_access"], "ns"),
        "sim.scalar_over_batched": (out["scalar_over_batched"], "ratio"),
        "sim.shard_speedup": (out["shard_speedup"], "ratio"),
    }


def probe_runner(size, seed, work):
    """Runner and snapshot costs by ablation of a small campaign."""
    kill, rerun = campaign_invocations(size, size["ablation_seeds"], "_abl")
    base = [a for a in kill.execution if a.startswith("--threads")]
    supervised = base + ["--supervise", "--keep-going", "--backoff-ms=0"]
    checkpointed = kill.execution[:-1]  # no --resume manifest
    variants = [
        ("plain", base, {}),
        ("supervised", supervised, {}),
        ("checkpointed", [a.replace("ckpt_abl", "ckpt_abl_ref") for a in checkpointed], {}),
        ("killed", kill.execution, kill.env),
        ("rerun", rerun.execution, {}),
    ]
    # The differences are small next to one invocation, so each variant's
    # time is the median of several rounds.
    walls = {}
    sinks = {}
    for _ in range(size["probe_repeat"]):
        for stale in ("ckpt_abl", "ckpt_abl_ref"):
            shutil.rmtree(work / stale, ignore_errors=True)
        (work / "manifest_abl.jsonl").unlink(missing_ok=True)
        for name, execution, env in variants:
            inv = Invocation(kill.sweep, kill.accesses, f"abl_{name}.json", execution,
                             env=env)
            walls.setdefault(name, []).append(run(inv.argv(seed, work), work, env=env).wall)
            sinks[name] = (work / inv.sink).read_bytes()
    wall = {name: statistics.median(w) for name, w in walls.items()}
    if len({sinks[n] for n in ("supervised", "checkpointed", "killed", "rerun")}) != 1:
        raise BenchError("runner ablation: resilient sinks differ")
    plain_jobs = json.loads(sinks["plain"])["jobs"]
    killed_jobs = json.loads(sinks["killed"])["jobs"]
    if [job_digest_record(j) for j in plain_jobs] != [job_digest_record(j) for j in killed_jobs]:
        raise BenchError("runner ablation: in-process and supervised results differ")
    snapshot_bytes = sum(p.stat().st_size for p in (work / "ckpt_abl_ref").iterdir())
    return {
        "runner.inprocess_s": (wall["plain"], "s"),
        "runner.supervise_s": (wall["supervised"] - wall["plain"], "s"),
        "snapshot.save_s": (wall["checkpointed"] - wall["supervised"], "s"),
        "snapshot.restore_s": (wall["killed"] - wall["checkpointed"], "s"),
        "runner.resume_s": (wall["rerun"], "s"),
        "snapshot.bytes_per_cell": (snapshot_bytes / len(plain_jobs), "bytes"),
        "runner.sink_bytes": (len(sinks["killed"]), "bytes"),
        "runner.manifest_bytes": ((work / "manifest_abl.jsonl").stat().st_size, "bytes"),
    }


def probe_micro(size, work, smoke):
    argv = [HOTPATH_BENCH, f"--benchmarks={','.join(MICROBENCHES)}"]
    samples = {}
    for _ in range(size["micro_runs"]):
        doc = json.loads(run(argv + (["--smoke"] if smoke else []), work, capture=True).stdout)
        for bench in doc["benchmarks"]:
            samples.setdefault(bench["name"], []).append(bench["ns_per_op"])
    if set(samples) != set(MICROBENCHES):
        raise BenchError(f"hotpath_bench ran {sorted(samples)}")
    return {MICROBENCHES[n]: (statistics.median(v), "ns") for n, v in samples.items()}


def trace_pass(wl, invocations, size, seed, seconds, work, expected, smoke):
    t0 = time.perf_counter()
    unit = run_unit(invocations, seed, work, expected)
    # The traced cells are the workload's own, listed by memtis_run itself;
    # audit flags are left off so the policy can be wrapped (an audited cell's
    # metrics equal the unaudited ones).
    lines = [line for inv in invocations if inv.simulates
             for line in inv.list_cells(seed, work)]
    samples, plain_ns, traced_ns = [], [], []
    while not samples or time.perf_counter() - t0 < seconds:
        plain = trace_cells(lines, wl["threads"], work, plain=True)
        traced = trace_cells(lines, wl["threads"], work, plain=False)
        check_identity(plain, unit.jobs, "plain pass")
        check_identity(traced, unit.jobs, "traced pass")
        plain_ns.append(plain["wall_ns"])
        traced_ns.append(traced["wall_ns"])
        samples.append(cell_layers(traced))
    layers = median_layers(samples)
    layers["trace.overhead_frac"] = (
        statistics.median(traced_ns) / statistics.median(plain_ns) - 1, "ratio")
    layers.update(probe_models(size, seed, work))
    layers.update(probe_audit(size, seed, work))
    layers.update(probe_stream(size, seed, work))
    layers.update(probe_runner(size, seed, work))
    layers.update(probe_micro(size, work, smoke))
    attempted = unit.cells + len(lines) * 2 * len(samples)
    return layers, unit, attempted


# --------------------------------------------------------------------------
# Command line


def git_rev():
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def run_workload(name, seed, seconds, trace, mode):
    wl = WORKLOADS[name]
    size = SIZES[mode]
    invocations = wl["invocations"](size)
    work = BUILD / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    report = {"workload": name, "seed": seed, "trace": trace, "seconds": seconds,
              "mode": mode, "nproc": NPROC, "build_type": "Release",
              "git_rev": git_rev(), "correct": False, "attempted": 0,
              "failed": 0, "metrics": {}}
    try:
        expected = sum(len(inv.list_cells(seed, work))
                       for inv in invocations if inv.simulates)
        report["attempted"] = expected
        if trace:
            metrics, unit, report["attempted"] = trace_pass(
                wl, invocations, size, seed, seconds, work, expected, mode == "smoke")
            units = [unit]
        else:
            metrics, units = measure(invocations, seed, seconds, work, expected,
                                     1 if mode == "smoke" else SETUP_REPS)
            report["attempted"] = sum(u.cells for u in units)
        report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        report["sim_digest"] = units[0].digest
        if units[0].fidelity:
            report["fidelity"] = units[0].fidelity
        report["correct"] = True
    except BenchError as e:
        print(f"memtis_bench: {name}: {e}", file=sys.stderr)
        report["failed"] = max(1, report["attempted"])
        report["metrics"] = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report


def print_report(r):
    print(f"== {r['workload']}  seed={r['seed']} trace={r['trace']} "
          f"mode={r['mode']} nproc={r['nproc']} build={r['build_type']} "
          f"rev={r['git_rev'][:12]}")
    for name, m in r["metrics"].items():
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}")
    if "sim_digest" in r:
        print(f"  {'sim_digest':42s} {r['sim_digest']}")
    if "fidelity" in r:
        f = r["fidelity"]
        print(f"  {'fig5_best_cells':42s} {f['fig5_best_cells']:>16d} of "
              f"{f['fig5_cells']} (paper {PAPER_BEST_CELLS})")
        print(f"  {'fig5_gain_err_pct':42s} {f['fig5_gain_err_pct']:>16.2f} points "
              f"(MEMTIS {f['fig5_gain_pct']:+.1f}% vs paper +{PAPER_GAIN_PCT}%)")
    print(json.dumps({k: r[k] for k in ("correct", "attempted", "failed", "metrics")}))
    sys.stdout.flush()


def run_fidelity(seed):
    """The paper-scale Fig. 5 grid (3 M accesses per cell) on every core."""
    work = BUILD / "work" / f"fidelity-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        inv = Invocation(["--ratios=1:2,1:8,1:16", "--baseline"], 3_000_000,
                         "fig5.json", [f"--threads={NPROC}"])
        run(inv.argv(seed, work), work)
        f = fidelity(load(work / inv.sink))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"fig5_best_cells {f['fig5_best_cells']} of {f['fig5_cells']} "
          f"(paper {PAPER_BEST_CELLS})")
    print(f"fig5_gain_err_pct {f['fig5_gain_err_pct']:.2f} "
          f"(MEMTIS {f['fig5_gain_pct']:+.1f}% vs paper +{PAPER_GAIN_PCT}%)")
    return 0


# --------------------------------------------------------------------------
# Comparison of saved reports


def compare(parent_files, change_files):
    """Parent vs change per workload x end-to-end metric; exit 1 on a regression
    or a sim_digest mismatch."""
    spec = load(ROOT / "BENCHMARK.json")
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    def collect(files):
        by_workload = {}
        for path in files:
            for r in load(path):
                if r["correct"] and not r["trace"]:
                    by_workload.setdefault(r["workload"], []).append(r)
        return by_workload

    parent, change = collect(parent_files), collect(change_files)
    failed = False
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if not p_runs or not c_runs:
            print(f"{workload}: missing on one side")
            failed = True
            continue
        p_digest = {r["seed"]: r["sim_digest"] for r in p_runs}
        for r in c_runs:
            if r["seed"] in p_digest and p_digest[r["seed"]] != r["sim_digest"]:
                print(f"{workload}: sim_digest differs at seed {r['seed']}")
                failed = True
        for name, m in bounds.items():
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            sign = 1 if m["better"] == "lower" else -1
            pq, cq = quartiles(p), quartiles(c)
            worse = sign * (cq[1] - pq[1]) / pq[1]
            pairs = list(zip(p, c))
            wins = sum(sign * (b - a) < 0 for a, b in pairs)
            spread = max((pq[2] - pq[0]) / pq[1], (cq[2] - cq[0]) / cq[1])
            all_better = all(sign * (b - a) < 0 for a in p for b in c)
            if spread > m["bound"] and not all_better:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                failed = True
            elif (wins >= 0.9 * len(pairs)
                  and abs(cq[1] - pq[1]) > pq[2] - pq[0]):
                verdict = "gain"
            else:
                verdict = "same"
            print(f"{workload:15s} {name:20s} parent {pq[1]:.5g} [{pq[0]:.5g}, "
                  f"{pq[2]:.5g}]  change {cq[1]:.5g} [{cq[0]:.5g}, {cq[2]:.5g}] "
                  f"{m['unit']}  median {100 * (cq[1] - pq[1]) / pq[1]:+.1f}%  "
                  f"change wins {wins}/{len(pairs)}  {verdict}")
    return 1 if failed else 0


def quartiles(values):
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", help="also write the full reports to this file")
    ap.add_argument("--smoke", action="store_true",
                    help="every workload and the traced pass at tiny budgets")
    ap.add_argument("--fidelity", action="store_true",
                    help="paper-scale Fig. 5 grid: MEMTIS-best cells and gain")
    ap.add_argument("--compare", action="store_true",
                    help="PARENT.json... -- CHANGE.json...: reports of --report")
    argv = sys.argv[1:]
    if argv[:1] == ["--compare"]:
        if "--" not in argv or argv.index("--") == 1 or argv[-1] == "--":
            ap.error("usage: --compare PARENT.json... -- CHANGE.json...")
        split = argv.index("--")
        return compare(argv[1:split], argv[split + 1:])
    args = ap.parse_args(argv)
    if args.compare:
        ap.error("--compare must come first")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    build()
    if args.fidelity:
        return run_fidelity(args.seed)
    if args.seconds is None:
        args.seconds = load(ROOT / "BENCHMARK.json")["run_seconds"]
    mode = "smoke" if args.smoke else "full"
    names = [args.workload] if args.workload else list(WORKLOADS)
    plan = [(n, t) for n in names for t in ((0, 1) if args.smoke else (args.trace,))]
    reports = []
    for name, trace in plan:
        r = run_workload(name, args.seed, 0 if args.smoke else args.seconds, trace, mode)
        print_report(r)
        reports.append(r)
    if args.report:
        Path(args.report).write_text(json.dumps(reports, indent=1) + "\n")
    return 0 if all(r["correct"] for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
