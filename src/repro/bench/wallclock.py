"""Wall-clock performance harness: events/sec and figure-driver runtime.

Simulated time is what the figures plot; *wall-clock* time is what limits
how much workload we can push through the simulator ("as fast as the
hardware allows", ROADMAP north star).  This module measures both ends of
that pipeline:

* ``microbench`` — a pure-kernel stress: 32 processes x 400 iterations of
  the request/timeout/release/put/get/spawn-child cycle (every hot path
  the engine has: Resource and Store fast paths, Timeout scheduling,
  process spawn/finish).  Reported as iterations/sec and — each iteration
  drives :data:`EVENTS_PER_ITERATION` kernel events — nominal events/sec.
* ``fig7`` / ``fig8`` — wall-clock seconds for the end-to-end figure
  drivers, the workloads the paper's latency/bandwidth plots come from.

``BASELINE`` pins the numbers measured on this machine immediately before
the kernel/batching optimizations landed (PR "Simulation-kernel fast
paths"); the emitted ``BENCH_wallclock.json`` reports current numbers
alongside the baseline ratios so regressions are visible at a glance.
Run via ``python -m repro perf`` (see docs/performance.md).
"""

from __future__ import annotations

import gc
import json
import pathlib
import time
from typing import Callable

SCHEMA = "repro.bench.wallclock/v1"

#: Kernel events per microbench worker iteration: resource grant resume,
#: held-slot timeout, store-get resume, child bootstrap, child timeout,
#: child completion resume, plus the request/release/put bookkeeping the
#: kernel folds into those — 8 nominal events is the fixed conversion we
#: report events/sec with (the constant cancels in any before/after ratio).
EVENTS_PER_ITERATION = 8

#: Pre-optimization numbers, measured on the seed code with the exact
#: workloads below (same machine class as CI).  These are the denominators
#: for the speedup ratios in BENCH_wallclock.json.
BASELINE = {
    "microbench_iters_per_sec": 51_233.0,
    "fig7_seconds": 0.0663,
    "fig8_seconds": 14.476,
}

#: Acceptance floors: >= 1.4x events/sec on the microbench and >= 25%
#: lower combined fig7+fig8 wall-clock (ISSUE 2); >= 3x aggregate cluster
#: append throughput from 1 -> 4 devices at fixed client load (ISSUE 4).
TARGETS = {
    "microbench_speedup_min": 2.0,
    "figs_combined_reduction_min": 0.25,
    "cluster_scaling_min": 3.0,
    "runner_matrix_speedup_min": 2.0,
    "runner_sweep_speedup_min": 1.3,
    # Per-leg ratchets: the combined fig7+fig8 reduction is dominated by
    # fig8 (200x the baseline runtime), so a fig7 regression can hide
    # behind the aggregate pass.  Each leg also has to clear its own
    # floor, set just below the currently measured ratio so any further
    # slide fails the harness on that leg by name.  fig7's floor is
    # baseline x1.5 or better (ISSUE 7's fix of the recorded regression).
    "fig7_speedup_min": 0.67,
    "fig8_speedup_min": 3.0,
    # Simulated compacted-SST throughput of the die-parallel LSM
    # compaction path (deterministic, machine-independent): the batched
    # single-barrier storage writes measure ~704 MB/s vs ~479 MB/s for
    # per-table write+fsync; the floor keeps most of that win.
    "compaction_mb_per_sec_min": 650.0,
}

#: The fixed client load the cluster-scaling section applies to every
#: pool size: 8 streams x 2 closed-loop clients, RF=1 (RF>1 cannot run on
#: a one-device pool, and the scaling ratio must compare like-for-like
#: per-record work).  On one device, 8 streams exhaust the 4 BA pairs and
#: half the legs fall back to block-WAL — exactly the Table I budget
#: pressure the pool exists to relieve.
CLUSTER_LOAD = {
    "streams": 8,
    "clients_per_stream": 2,
    "records_per_client": 12,
    "payload_bytes": 512,
    "replicas": 1,
    "seed": 17,
}


def microbench_once(procs: int = 32, iters: int = 400) -> tuple[int, float]:
    """One kernel-stress run; returns (iterations, wall seconds)."""
    from repro.sim import Engine, Resource, Store

    engine = Engine()
    res = Resource(engine, capacity=4)
    store = Store(engine)

    def child():
        yield engine.timeout(1e-7)
        return 1

    def worker(_i):
        for k in range(iters):
            req = res.request()
            yield req
            yield engine.timeout(1e-6)
            res.release(req)
            store.put(k)
            yield store.get()
            yield from child()

    for i in range(procs):
        engine.process(worker(i))
    t0 = time.perf_counter()
    engine.run()
    return procs * iters, time.perf_counter() - t0


def run_microbench(repeats: int = 3) -> float:
    """Best-of-``repeats`` kernel iterations/sec (after one warmup run)."""
    microbench_once(8, 50)  # warmup: bytecode/alloc caches
    best = 0.0
    for _ in range(repeats):
        n, dt = microbench_once()
        best = max(best, n / dt)
    return best


def _timed(fn: Callable[[], object]) -> float:
    # The microbench retires ~40k processes whose cyclic frames otherwise
    # linger and tax the allocator during the figure runs; collect first
    # so each section is timed on a clean heap.
    gc.collect()
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def cluster_point(devices: int, seed: int = CLUSTER_LOAD["seed"]) -> dict:
    """One pool size of ``devices`` under :data:`CLUSTER_LOAD`."""
    from repro.cluster import DevicePool, run_replicated_logging

    load = {key: value for key, value in CLUSTER_LOAD.items() if key != "seed"}
    result = run_replicated_logging(DevicePool(devices=devices, seed=seed),
                                    **load)
    return {
        "records_per_sec": round(result.records_per_sec, 1),
        "ba_legs": result.ba_legs,
        "block_legs": result.block_legs,
        "simulated_seconds": result.sim_seconds,
    }


def run_cluster_scaling(device_counts: tuple[int, ...] = (1, 2, 4)) -> dict:
    """Simulated aggregate append throughput per pool size at fixed load.

    Unlike the sections above this one is *deterministic* (simulated
    records/sec, not wall-clock), so the reported ratio is stable across
    machines.  The scaling criterion compares 1 -> 4 devices.
    """
    per_devices = {str(devices): cluster_point(devices)
                   for devices in device_counts}
    first = per_devices[str(device_counts[0])]["records_per_sec"]
    last = per_devices[str(device_counts[-1])]["records_per_sec"]
    return {
        "load": dict(CLUSTER_LOAD),
        "devices": per_devices,
        "scaling_1_to_4": round(last / first, 3),
    }


def _runner_probe(which: str, jobs: int, reuse: bool,
                  snapshot_cache: str | pathlib.Path | None = None) -> dict:
    """One ``repro.bench.runner --bench-legs`` run in a fresh interpreter.

    A fork-based pool inherits the parent's heap, so measuring the
    executor from inside this harness — right after the figure drivers
    have churned through their workloads — would tax every worker with
    copy-on-write faults the serial baseline never pays.  Each
    measurement therefore gets its own clean parent; interpreter startup
    stays outside the child's self-timed ``wall_seconds``.
    """
    import os
    import subprocess
    import sys

    import repro

    env = dict(os.environ)
    package_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    command = [sys.executable, "-m", "repro.bench.runner",
               "--bench-legs", which, "--jobs", str(jobs)]
    if not reuse:
        command.append("--no-reuse-snapshots")
    if snapshot_cache is not None:
        command += ["--snapshot-cache", str(snapshot_cache)]
    result = subprocess.run(command, capture_output=True, text=True,
                            check=True, env=env)
    return json.loads(result.stdout)


def run_runner_section(jobs: int = 4,
                       snapshot_cache: str | pathlib.Path | None = None) -> dict:
    """Measure the run-matrix executor against its serial baseline.

    Two comparisons, both gated on byte-identical output (equal result
    digests):

    * the full evaluation matrix, serially with every warm leg
      re-simulating its warm-up (the pre-runner status quo) vs. ``jobs``
      workers sharing one cached warm snapshot;
    * a single ablation sweep at ``jobs=1`` both ways, isolating what
      snapshot reuse alone buys (no parallelism in the ratio).

    Wall-clock ratios, so absolute values vary by machine; the committed
    numbers are from the machine that generated BENCH_wallclock.json.
    """
    serial = _runner_probe("matrix", jobs=1, reuse=False)
    parallel = _runner_probe("matrix", jobs=jobs, reuse=True,
                             snapshot_cache=snapshot_cache)
    sweep_cold = _runner_probe("sweep", jobs=1, reuse=False)
    # Fresh in-memory cache: the sweep ratio includes the one warm-up
    # + capture it takes to prime the cache, not a pre-primed hit.
    sweep_warm = _runner_probe("sweep", jobs=1, reuse=True)

    deterministic = (
        serial["digest"] == parallel["digest"]
        and sweep_cold["digest"] == sweep_warm["digest"]
    )
    return {
        "jobs": jobs,
        "matrix_legs": parallel["legs"],
        "serial_seconds": serial["wall_seconds"],
        "parallel_seconds": parallel["wall_seconds"],
        "matrix_speedup": round(
            serial["wall_seconds"] / parallel["wall_seconds"], 3),
        "snapshot_cache": parallel["cache"],
        "sweep": {
            "legs": sweep_cold["legs"],
            "cold_seconds": sweep_cold["wall_seconds"],
            "warm_seconds": sweep_warm["wall_seconds"],
            "speedup": round(
                sweep_cold["wall_seconds"] / sweep_warm["wall_seconds"], 3),
        },
        "deterministic": deterministic,
    }


def run_harness(skip_figs: bool = False, jobs: int = 4,
                snapshot_cache: str | pathlib.Path | None = None) -> dict:
    """Measure everything; returns the BENCH_wallclock.json payload."""
    from repro.bench import experiments as ex

    iters_per_sec = run_microbench()
    micro_speedup = iters_per_sec / BASELINE["microbench_iters_per_sec"]
    results = {
        "microbench": {
            "iters_per_sec": round(iters_per_sec, 1),
            "events_per_sec": round(iters_per_sec * EVENTS_PER_ITERATION, 1),
            "baseline_iters_per_sec": BASELINE["microbench_iters_per_sec"],
            "baseline_events_per_sec": round(
                BASELINE["microbench_iters_per_sec"] * EVENTS_PER_ITERATION, 1),
            "speedup_vs_baseline": round(micro_speedup, 3),
        },
    }
    passed = micro_speedup >= TARGETS["microbench_speedup_min"]
    if not skip_figs:
        fig7_seconds = _timed(ex.run_fig7)
        fig8_seconds = _timed(ex.run_fig8)
        combined = fig7_seconds + fig8_seconds
        combined_baseline = BASELINE["fig7_seconds"] + BASELINE["fig8_seconds"]
        reduction = 1.0 - combined / combined_baseline
        results["fig7"] = {
            "seconds": round(fig7_seconds, 4),
            "baseline_seconds": BASELINE["fig7_seconds"],
            "speedup_vs_baseline": round(BASELINE["fig7_seconds"] / fig7_seconds, 3),
        }
        results["fig8"] = {
            "seconds": round(fig8_seconds, 4),
            "baseline_seconds": BASELINE["fig8_seconds"],
            "speedup_vs_baseline": round(BASELINE["fig8_seconds"] / fig8_seconds, 3),
        }
        results["figs_combined"] = {
            "seconds": round(combined, 4),
            "baseline_seconds": round(combined_baseline, 4),
            "reduction_fraction": round(reduction, 4),
        }
        passed = passed and reduction >= TARGETS["figs_combined_reduction_min"]
        results["leg_gates"] = [
            {
                "leg": fig,
                "observed": results[fig]["speedup_vs_baseline"],
                "min": TARGETS[f"{fig}_speedup_min"],
                "ok": (results[fig]["speedup_vs_baseline"]
                       >= TARGETS[f"{fig}_speedup_min"]),
            }
            for fig in ("fig7", "fig8")
        ]
        passed = passed and all(gate["ok"] for gate in results["leg_gates"])
        compaction = ex.run_compaction_throughput()
        results["compaction"] = compaction
        results["leg_gates"].append({
            "leg": "compaction",
            "observed": compaction["mb_per_sec"],
            "min": TARGETS["compaction_mb_per_sec_min"],
            "ok": (compaction["mb_per_sec"]
                   >= TARGETS["compaction_mb_per_sec_min"]),
        })
        passed = passed and results["leg_gates"][-1]["ok"]
        runner = run_runner_section(jobs=jobs, snapshot_cache=snapshot_cache)
        results["runner"] = runner
        passed = passed and (
            runner["matrix_speedup"] >= TARGETS["runner_matrix_speedup_min"]
            and runner["sweep"]["speedup"] >= TARGETS["runner_sweep_speedup_min"]
            and runner["deterministic"]
        )
    results["cluster"] = run_cluster_scaling()
    passed = passed and (
        results["cluster"]["scaling_1_to_4"] >= TARGETS["cluster_scaling_min"]
    )
    return {
        "schema": SCHEMA,
        "baseline": dict(BASELINE),
        "targets": dict(TARGETS),
        "results": results,
        "pass": passed,
    }


def validate_report(payload: dict) -> None:
    """Raise ``ValueError`` unless ``payload`` matches the v1 schema."""
    for key in ("schema", "baseline", "targets", "results", "pass"):
        if key not in payload:
            raise ValueError(f"BENCH_wallclock.json missing key {key!r}")
    if payload["schema"] != SCHEMA:
        raise ValueError(f"unexpected schema {payload['schema']!r}")
    micro = payload["results"].get("microbench")
    if not isinstance(micro, dict):
        raise ValueError("results.microbench missing")
    for key in ("iters_per_sec", "events_per_sec", "speedup_vs_baseline"):
        if not isinstance(micro.get(key), (int, float)):
            raise ValueError(f"results.microbench.{key} missing or non-numeric")
    for fig in ("fig7", "fig8"):
        section = payload["results"].get(fig)
        if section is not None and not isinstance(section.get("seconds"), (int, float)):
            raise ValueError(f"results.{fig}.seconds missing or non-numeric")
    cluster = payload["results"].get("cluster")
    if cluster is not None and not isinstance(
            cluster.get("scaling_1_to_4"), (int, float)):
        raise ValueError("results.cluster.scaling_1_to_4 missing or non-numeric")
    gates = payload["results"].get("leg_gates")
    if gates is not None:
        # Optional: reports predating the per-leg ratchets omit it.
        if not isinstance(gates, list):
            raise ValueError("results.leg_gates must be a list")
        for gate in gates:
            if not isinstance(gate.get("leg"), str):
                raise ValueError("leg_gates entry missing 'leg' name")
            if not isinstance(gate.get("observed"), (int, float)):
                raise ValueError(
                    f"leg_gates[{gate.get('leg')!r}].observed missing or "
                    "non-numeric")
            if not isinstance(gate.get("min"), (int, float)):
                raise ValueError(
                    f"leg_gates[{gate.get('leg')!r}].min floor missing or "
                    "non-numeric")
            if not isinstance(gate.get("ok"), bool):
                raise ValueError(
                    f"leg_gates[{gate.get('leg')!r}].ok missing or non-bool")
    runner = payload["results"].get("runner")
    if runner is not None:
        for key in ("matrix_speedup", "serial_seconds", "parallel_seconds"):
            if not isinstance(runner.get(key), (int, float)):
                raise ValueError(f"results.runner.{key} missing or non-numeric")
        if not isinstance(runner.get("deterministic"), bool):
            raise ValueError("results.runner.deterministic missing or non-bool")
        if not isinstance(runner.get("sweep", {}).get("speedup"), (int, float)):
            raise ValueError("results.runner.sweep.speedup missing or non-numeric")
    if not isinstance(payload["pass"], bool):
        raise ValueError("'pass' must be a bool")


def write_report(path: str | pathlib.Path = "BENCH_wallclock.json",
                 skip_figs: bool = False, jobs: int = 4,
                 snapshot_cache: str | pathlib.Path | None = None) -> dict:
    """Run the harness and write ``path``; returns the payload."""
    payload = run_harness(skip_figs=skip_figs, jobs=jobs,
                          snapshot_cache=snapshot_cache)
    validate_report(payload)
    pathlib.Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def format_report(payload: dict) -> str:
    """Human-readable summary of a harness payload."""
    micro = payload["results"]["microbench"]
    lines = [
        f"microbench : {micro['iters_per_sec']:>12,.0f} iters/s  "
        f"({micro['events_per_sec']:,.0f} nominal events/s, "
        f"{micro['speedup_vs_baseline']:.2f}x baseline)",
    ]
    for fig in ("fig7", "fig8"):
        section = payload["results"].get(fig)
        if section:
            lines.append(
                f"{fig:10s} : {section['seconds']:>9.3f} s wall  "
                f"({section['speedup_vs_baseline']:.2f}x baseline)")
    combined = payload["results"].get("figs_combined")
    if combined:
        lines.append(
            f"combined   : {combined['seconds']:>9.3f} s wall  "
            f"({combined['reduction_fraction'] * 100:.1f}% below baseline)")
    compaction = payload["results"].get("compaction")
    if compaction:
        lines.append(
            f"compaction : {compaction['mb_per_sec']:>9.1f} MB/s simulated  "
            f"({compaction['compactions']} compactions, "
            f"{compaction['flushes']} flushes)")
    for gate in payload["results"].get("leg_gates", ()):
        unit = " MB/s" if gate["leg"] == "compaction" else "x"
        lines.append(
            f"gate       : {gate['leg']} {gate['observed']:,.3f}{unit} vs "
            f"{gate['min']:,.2f}{unit} floor "
            f"({'ok' if gate['ok'] else 'FAIL'})")
    runner = payload["results"].get("runner")
    if runner:
        lines.append(
            f"runner     : {runner['matrix_legs']}-leg matrix "
            f"{runner['parallel_seconds']:.2f} s at jobs={runner['jobs']} vs "
            f"{runner['serial_seconds']:.2f} s serial "
            f"({runner['matrix_speedup']:.2f}x; cache {runner['snapshot_cache']})")
        sweep = runner["sweep"]
        lines.append(
            f"sweep      : {sweep['legs']} legs {sweep['warm_seconds']:.2f} s "
            f"with snapshot reuse vs {sweep['cold_seconds']:.2f} s re-warmed "
            f"({sweep['speedup']:.2f}x; "
            f"deterministic={runner['deterministic']})")
    cluster = payload["results"].get("cluster")
    if cluster:
        best = max(cluster["devices"])
        lines.append(
            f"cluster    : {cluster['devices'][best]['records_per_sec']:>12,.0f} "
            f"records/s simulated at {best} devices  "
            f"({cluster['scaling_1_to_4']:.2f}x the 1-device pool)")
    lines.append(f"targets met: {payload['pass']}")
    return "\n".join(lines)
