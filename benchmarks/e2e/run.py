#!/usr/bin/env python3
"""The end-to-end benchmark: one command, every metric, outputs verified.

    python benchmarks/e2e/run.py --seed 1            # all five workloads x 3
    python benchmarks/e2e/run.py --seed 1 --traced   # ... plus the ledger
    python benchmarks/e2e/run.py --smoke             # a < 15 s wiring check

One (workload, repeat) is one fresh process of this same script:

    python benchmarks/e2e/run.py --workload gw-mixed --seed 1 \\
        --seconds 10 --trace 0

which prints what it measured and, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``README.md`` beside this file for what every name means.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"benchmarks/e2e: no program to measure under {SRC}")
sys.path[:0] = [HERE, SRC]

from harness import gw, layers, lsm, spec, tcp  # noqa: E402
from harness.checks import HarnessAbort  # noqa: E402
from harness.clock import quiet_seconds, scaled_by_quiet_speed  # noqa: E402
from harness.schedule import sub_seed  # noqa: E402
from harness.stats import median_and_tail  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
HISTORY = os.path.join(HERE, "history.jsonl")
REPEATS = 3
SMOKE_SCALE = 0.02


class WatchdogTimeout(Exception):
    """The process ran past ``spec.WATCHDOG_SECONDS`` of wall time."""


def _on_alarm(_signum, _frame):
    raise WatchdogTimeout(
        f"watchdog: still running after {spec.WATCHDOG_SECONDS} s")


# -- one workload, one process ----------------------------------------------

def round_runner(name: str, seed: int, scale: float):
    """``run(round_index, factor)`` -> one in-engine round of ``name`` at
    ``scale * factor``.  For tcp-mixed that is the in-engine twin."""
    if name in spec.GATEWAY:
        return lambda index, factor=1.0: gw.run_round(
            spec.GATEWAY[name], seed, index, scale * factor)
    if name == "lsm-dual":
        return lambda index, factor=1.0: lsm.run_round(
            spec.LSM, seed, index, _share(spec.LSM.ops, scale * factor))

    def twin(index, factor=1.0):
        plan = tcp.plan_round(
            spec.TCP, seed, index,
            _share(spec.TCP.closed_ops, scale * factor), 1)
        return gw.run_twin(sub_seed(seed, "twin", index), plan["preload"],
                           plan["closed"], spec.TCP.connections,
                           spec.TCP.window)
    return twin


def tcp_round(seed: int, index: int, scale: float) -> dict:
    return tcp.run_round(spec.TCP, seed, index,
                         _share(spec.TCP.closed_ops, scale),
                         _share(spec.TCP.open_ops, scale))


def _share(ops_per_run: int, scale: float) -> int:
    """Per-round share of a per-run op count."""
    return max(1, round(ops_per_run * scale / spec.ROUNDS_AT_REF))


def simulated_metrics(results: list) -> tuple[dict, dict]:
    """Simulated/exact metrics over in-engine rounds: latency samples
    pooled across rounds, everything else the median round."""
    get_p50, get_tail, get_pct = median_and_tail(
        [us for result in results for us in result["get_us"]])
    set_p50, set_tail, set_pct = median_and_tail(
        [us for result in results for us in result["set_us"]])
    metrics = {
        "sim_get_p50_us": get_p50, "sim_get_p99_us": get_tail,
        "sim_set_p50_us": set_p50, "sim_set_p99_us": set_tail,
        "sim_capacity_ops_per_s": median([r["capacity"] for r in results]),
        "sim_peak_ops_per_s": median([r["peak"] for r in results]),
        "kernel_events_per_op": median([r["events_per_op"]
                                        for r in results]),
        "nand_write_amp": median([r["nand_write_amp"] for r in results]),
        "sim_recover_ms": median([r["recover_ms"] for r in results]),
    }
    detail = {
        "get_samples": sum(len(r["get_us"]) for r in results),
        "get_tail_percentile": get_pct,
        "set_samples": sum(len(r["set_us"]) for r in results),
        "set_tail_percentile": set_pct,
        "capacity_step_ops_per_s": [r["capacity_step"] for r in results],
        "curve": [r["curve"] for r in results],
    }
    return metrics, detail


def wall_metrics(results: list, two_processes: bool = False
                 ) -> tuple[dict, dict, list]:
    """Wall metrics from the rounds' clocks: every part scaled to
    reference-box seconds, then the fastest repeat of every part
    (harness/clock.py).  Also returns, per round, whatever the clock
    timed after the measured parts."""
    clocks = [result["clock"] for result in results]
    scaled = (scaled_by_quiet_speed(clocks) if two_processes
              else [clock.scaled_locally() for clock in clocks])
    first = results[0]["setup_brackets"]
    part_ops = results[0]["part_ops"]  # the same in every round
    setups = [sum(brackets[:first], []) for brackets in scaled]
    parts = [sum(brackets[first:], []) for brackets in scaled]
    walls = [repeat[:len(part_ops)] for repeat in parts]
    ops = sum(part_ops)
    costs = [min(repeat[part] for repeat in walls) * 1e6 / count
             for part, count in enumerate(part_ops) if count]
    metrics = {
        "setup_s": quiet_seconds(setups),
        "wall_ops_per_s": ops / quiet_seconds(walls),
        "wall_p50_ms": median(costs),  # ms per 1000 ops, over the parts
    }
    detail = {
        "host_speed": [clock.speed() for clock in clocks],
        "raw_wall_ops_per_s_rounds": [ops / result["raw_wall_s"]
                                      for result in results],
    }
    return metrics, detail, [repeat[len(part_ops):] for repeat in parts]


def _rounds(rounds: int, run) -> list:
    results = []
    for index in range(rounds):
        gc.collect()  # no round pays for the garbage of the one before
        results.append(run(index))
    return results


def measure_in_engine(name: str, seed: int, rounds: int,
                      scale: float) -> tuple[dict, dict, list]:
    results = _rounds(rounds, round_runner(name, seed, scale))
    metrics, detail = simulated_metrics(results)
    wall, wall_detail, _rest = wall_metrics(results)
    return {**metrics, **wall}, {**detail, **wall_detail}, results


def measure_tcp(seed: int, rounds: int,
                scale: float) -> tuple[dict, dict, list]:
    results = _rounds(rounds, lambda index: tcp_round(seed, index, scale))
    twin = round_runner("tcp-mixed", seed, scale)(0)
    metrics, detail = simulated_metrics([twin])
    wall, wall_detail, rest = wall_metrics(results, two_processes=True)
    # Phase B, like every wall number, is read off the quietest repeat:
    # the lowest per-round median reply latency (the one thing each
    # round's clock timed after phase A).
    wall["wall_p50_ms"] = min(after[0] for after in rest)
    open_ms = [ms for result in results for ms in result["open_ms"]]
    _p50_ms, tail_ms, tail_pct = median_and_tail(open_ms)
    detail.update({
        "open_samples": len(open_ms), "open_tail_ms": tail_ms,
        "open_tail_percentile": tail_pct,
        "open_max_send_lag_ms": max(r["max_send_lag_ms"] for r in results),
        "open_achieved_ops_per_s": [r["open_achieved_ops_per_s"]
                                    for r in results],
        # Same frames, same windows, no sockets: what the bridge costs.
        "bridge_slowdown_x": (twin["ops"] / twin["raw_wall_s"])
        / max(wall_detail["raw_wall_ops_per_s_rounds"]),
    })
    return ({**metrics, **wall}, {**detail, **wall_detail},
            results + [twin])


def measure(name: str, seed: int, rounds: int, scale: float) -> dict:
    """The untraced run: every end-to-end metric of one workload."""
    if name == "tcp-mixed":
        metrics, detail, results = measure_tcp(seed, rounds, scale)
    else:
        metrics, detail, results = measure_in_engine(name, seed, rounds,
                                                     scale)
    metrics["peak_rss_mb"] = sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0
    detail.update({"rounds": rounds, "scale": scale,
                   "digests": [r["digest"] for r in results
                               if "digest" in r]})
    return _result(metrics, spec.END_TO_END_NAMES, results, detail)


def ledger(name: str, seed: int, scale: float) -> dict:
    """The traced run: every per-layer metric of one workload.

    An untraced round, the same round under ``tracing.activated()``
    (spans, counters, the tracing overhead, and a hard check that no
    simulated or exact number moved), a quarter-size round under
    cProfile (the self-time ledger), then the layer probes.
    """
    metrics = dict.fromkeys(spec.PER_LAYER_NAMES, 0.0)
    results = []
    problems = []
    if name == "tcp-mixed":
        result = tcp_round(seed, 0, scale)
        _p50, tail_ms, _pct = median_and_tail(result["open_ms"])
        metrics.update({
            "gateway.tcp_rtt_p99_ms": tail_ms,
            "gateway.tcp_closed_p50_ms": median(result["closed_ms"]),
            "gateway.tcp_max_send_lag_ms": result["max_send_lag_ms"],
            "gateway.tcp_server_cpu_us_per_op":
                result["server_cpu_us_per_op"],
            "gateway.tcp_client_cpu_us_per_op":
                result["client_cpu_us_per_op"],
        })
        results.append(result)
    run = round_runner(name, seed, scale)
    gc.collect()
    start = time.perf_counter()
    plain = run(0)
    plain_wall = time.perf_counter() - start
    gc.collect()
    traced, tracer, traced_wall = layers.traced(lambda: run(0))
    difference = layers.differing(simulated_metrics([plain])[0],
                                  simulated_metrics([traced])[0])
    if difference:
        problems.append(f"tracing moved a simulated number: {difference}")
    profiled = {}

    def profiled_round() -> int:
        profiled.update(run(0, 0.25))
        return profiled["requests"]

    gc.collect()
    metrics.update(layers.profile_ledger(profiled_round))
    metrics.update(traced["counters"])
    metrics.update(layers.span_metrics(tracer, traced["user_bytes"]))
    metrics.update(layers.probes())
    metrics["obs.trace_overhead_share"] = traced_wall / plain_wall - 1.0
    results += [plain, traced, profiled]
    return _result(metrics, spec.PER_LAYER_NAMES, results,
                   {"scale": scale, "plain_wall_s": plain_wall,
                    "traced_wall_s": traced_wall}, problems)


def _result(metrics: dict, names: tuple, results: list, detail: dict,
            problems: tuple = ()) -> dict:
    """The process's answer: counts over every round run, the named
    metrics, and the first ten offenders."""
    failed = sum(result["failures"].count for result in results)
    offenders = [line for result in results
                 for line in result["failures"].first][:10]
    return {
        "correct": failed == 0 and not problems,
        "attempted": max(1, sum(result["attempted"] for result in results)),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": spec.UNIT[name]}
                    for name in names},
        "detail": {**detail, "offenders": offenders,
                   "problems": list(problems)},
    }


def run_one(args) -> int:
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(spec.WATCHDOG_SECONDS)
    rounds, scale = spec.sizing(args.seconds)
    rounds = args.rounds or rounds
    scale = args.scale or scale
    try:
        if args.trace:
            result = ledger(args.workload, args.seed, scale)
        else:
            result = measure(args.workload, args.seed, rounds, scale)
    except (HarnessAbort, WatchdogTimeout) as exc:
        # A hang or a wrapped log is a counted failure with no numbers,
        # never a stuck benchmark and never a published metric.
        print(f"{args.workload}: ABORTED: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    detail = result.pop("detail")
    share = result["failed"] / result["attempted"]
    print(f"{args.workload} seed={args.seed} rounds={rounds} scale={scale:g} "
          f"trace={args.trace}: attempted={result['attempted']} "
          f"failed={result['failed']} failed_share={share:g}")
    for name, entry in result["metrics"].items():
        clock = spec.CLOCK.get(name, "")
        print(f"  {name:<36} {entry['value']:>16.6g} {entry['unit']:<6} "
              f"{clock}")
    for line in detail["offenders"] + detail["problems"]:
        print(f"  FAILED: {line}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({**result, "detail": detail, "workload": args.workload,
                       "seed": args.seed}, handle)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- every workload, three fresh processes each -----------------------------

def _spawn(args, workload: str, trace: int, label: str) -> dict:
    """One (workload, repeat) in a fresh Python process; never two at
    once."""
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"{workload}.{label}.json")
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--out", out]
    if args.smoke:
        command += ["--rounds", "1", "--scale", str(SMOKE_SCALE)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0 or not os.path.exists(out):
        sys.stdout.write(done.stdout)
        raise SystemExit(f"{workload} ({label}) failed; see above")
    with open(out) as handle:
        return json.load(handle)


def run_all(args) -> int:
    repeats = 1 if args.smoke else REPEATS
    summary: dict = {}
    problems = []
    for workload in spec.WORKLOADS:
        runs = [_spawn(args, workload, 0, f"repeat{index}")
                for index in range(repeats)]
        rows = {}
        for name, unit, clock, _better, bound in spec.END_TO_END:
            values = [run["metrics"][name]["value"] for run in runs]
            if clock in spec.DETERMINISTIC_CLOCKS and len(set(values)) > 1:
                problems.append(f"{workload}: {name} differs between "
                                f"repeats of one seed: {values}")
            rows[name] = {"value": median(values), "min": min(values),
                          "max": max(values), "unit": unit, "clock": clock,
                          "bound": bound}
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        summary[workload] = {"metrics": rows, "attempted": attempted,
                             "failed": failed,
                             "failed_share": failed / attempted,
                             "detail": runs[0]["detail"]}
        print(f"\n{workload}: failed_share = {failed / attempted:g} "
              f"({failed} of {attempted})")
        for name, row in rows.items():
            print(f"  {name:<24} {row['value']:>14.6g} {row['unit']:<6} "
                  f"{row['clock']:<5} [{row['min']:.6g} .. {row['max']:.6g}]"
                  f"  bound {row['bound']:.0%}")
        detail = runs[0]["detail"]
        print(f"  samples: GET {detail['get_samples']} "
              f"(p{detail['get_tail_percentile']:g}), SET "
              f"{detail['set_samples']} (p{detail['set_tail_percentile']:g})")
        if failed:
            problems.append(f"{workload}: {failed} failed operations")
        if args.traced:
            traced = _spawn(args, workload, 1, "traced")
            summary[workload]["per_layer"] = traced["metrics"]
            print("  per-layer ledger (traced run):")
            for name, entry in traced["metrics"].items():
                print(f"    {name:<38} {entry['value']:>14.6g} "
                      f"{entry['unit']}")
    record = {
        "sha": _git_sha(),
        "date": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "seed": args.seed, "seconds": args.seconds,
        "scale": SMOKE_SCALE if args.smoke else spec.sizing(args.seconds)[1],
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "metrics": {workload: {name: row["value"] for name, row
                               in entry["metrics"].items()}
                    for workload, entry in summary.items()},
    }
    with open(os.path.join(OUT_DIR, "latest.json"), "w") as handle:
        json.dump({"record": record, "workloads": summary}, handle, indent=1)
    if args.record and not args.smoke and not problems:
        with open(HISTORY, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    for line in problems:
        print(f"FAILED: {line}")
    return 1 if problems else 0


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS),
                        help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="measured seconds on the reference box "
                             "(sets rounds and scale; default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, per-layer metrics only")
    parser.add_argument("--rounds", type=int, help="override the rounds")
    parser.add_argument("--scale", type=float, help="override the scale")
    parser.add_argument("--out", help="also write the full result JSON here")
    parser.add_argument("--traced", action="store_true",
                        help="all-workloads mode: add the traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="all-workloads mode: scale 0.02, one repeat")
    parser.add_argument("--record", action="store_true",
                        help="all-workloads mode: append to history.jsonl")
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
