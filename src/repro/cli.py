"""Command-line interface: run any paper experiment without writing code.

::

    python -m repro list                 # what can be run
    python -m repro table1               # device spec
    python -m repro fig7                 # latency sweeps
    python -m repro fig8                 # bandwidth sweeps
    python -m repro fig9 [--quick]       # application throughput (3 panels)
    python -m repro fig10                # heterogeneous-memory comparison
    python -m repro ablations            # all five+ ablation studies
    python -m repro trace [--json P]     # traced workload, per-span latencies
    python -m repro cluster              # replicated logging on a device pool
    python -m repro nemesis [--jobs N]   # fault-injection campaign matrix
    python -m repro lint [paths...]      # determinism/kernel/obs linter
    python -m repro scan [paths...]      # interprocedural CFG/dataflow scan
    python -m repro <cmd> --sanitize     # run with the runtime sanitizer on

Every experiment command accepts ``--sanitize`` (or ``REPRO_SANITIZE=1``)
to run under the runtime invariant sanitizer — the simulation is
bit-identical, but protocol violations raise immediately.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import ablations as ab
from repro.bench import experiments as ex
from repro.bench.tables import (
    format_gbps,
    format_series,
    format_size,
    format_table,
    format_us,
)


def _cmd_table1(_args) -> None:
    spec = ex.run_table1()
    print(format_table("Table I: 2B-SSD specification",
                       ["Item", "Description"], list(spec.items())))


def _cmd_fig7(_args) -> None:
    fig7 = ex.run_fig7()
    print(format_series("Fig. 7(a): read latency (QD1)", "size", fig7["read"],
                        x_format=format_size, y_format=format_us))
    print()
    print(format_series("Fig. 7(b): write latency (QD1)", "size", fig7["write"],
                        x_format=format_size, y_format=format_us))


def _cmd_fig8(_args) -> None:
    fig8 = ex.run_fig8()
    print(format_series("Fig. 8(a): read bandwidth", "size", fig8["read"],
                        x_format=format_size, y_format=format_gbps))
    print()
    print(format_series("Fig. 8(b): write bandwidth", "size", fig8["write"],
                        x_format=format_size, y_format=format_gbps))


def _cmd_fig9(args) -> None:
    txns = 500 if args.quick else 1500
    ops = 400 if args.quick else 1200

    postgres = ex.run_fig9_postgres(txns=txns)
    rows = [(config, f"{result.throughput:,.0f}",
             f"{result.throughput / postgres['DC-SSD'].throughput:.2f}x")
            for config, result in postgres.items()]
    print(format_table("Fig. 9(a): PostgreSQL-like + LinkBench",
                       ["config", "txn/s", "vs DC"], rows))
    print()
    for name, runner in (("9(b): RocksDB-like + YCSB-A", ex.run_fig9_rocksdb),
                         ("9(c): Redis-like + YCSB-A", ex.run_fig9_redis)):
        results = runner(ops=ops)
        rows = []
        for payload, configs in results.items():
            base = configs["DC-SSD"].throughput
            for config, result in configs.items():
                rows.append((payload, config, f"{result.throughput:,.0f}",
                             f"{result.throughput / base:.2f}x"))
        print(format_table(f"Fig. {name}",
                           ["payload B", "config", "ops/s", "vs DC"], rows))
        print()


def _cmd_fig10(args) -> None:
    results = ex.run_fig10(txns=500 if args.quick else 1500)
    base = results["2B-SSD (baseline)"].throughput
    rows = [(config, f"{result.throughput:,.0f}",
             f"{result.throughput / base:.3f}")
            for config, result in results.items()]
    print(format_table("Fig. 10: heterogeneous memory vs hybrid store",
                       ["config", "txn/s", "normalized"], rows))


def _cmd_ablations(_args) -> None:
    wc = ab.run_write_combining_ablation()
    print(format_series("Write combining vs uncombined (latency)", "size",
                        wc["latency"], x_format=format_size, y_format=format_us))
    print()
    dma = ab.run_read_dma_ablation()
    print(format_series("MMIO read vs read DMA", "size", dma["latency"],
                        x_format=format_size, y_format=format_us))
    print(f"crossover: {dma['crossover']} bytes")
    print()
    double = ab.run_double_buffering_ablation()
    print(format_table("Double buffering", ["mode", "GB/s", "stalls"], [
        (name, f"{bw / 1e9:.2f}", double["stalls"][name])
        for name, bw in double["throughput"].items()
    ]))
    print()
    sizes = ab.run_ba_buffer_size_ablation()
    print(format_series("BA-buffer size sweep", "buffer",
                        sizes["throughput"], x_format=format_size,
                        y_format=lambda v: f"{v / 1e9:.2f} GB/s"))
    print()
    waf = ab.run_waf_ablation()
    print(format_table("Write amplification", ["scheme", "programs/commit"], [
        (name, f"{value:.4f}")
        for name, value in waf["programs_per_commit"].items()
    ]))
    print()
    tail = ab.run_tail_latency_ablation()
    print(format_table("Commit tail latency",
                       ["scheme", "p50", "p99", "max"], [
                           (name, format_us(s["p50"]), format_us(s["p99"]),
                            format_us(s["max"]))
                           for name, s in tail.items()
                       ]))
    print()
    pmr = ab.run_pmr_ablation()
    print(format_table("PMR vs internal datapath (4 MiB drain)",
                       ["path", "ms"], [
                           (name, f"{seconds * 1e3:.2f}")
                           for name, seconds in pmr["drain_seconds"].items()
                       ]))


def _cmd_trace(args) -> None:
    """Run a traced YCSB-A workload and print per-span latency tables."""
    import pathlib

    from repro.obs.export import snapshot_to_csv, snapshot_to_json
    from repro.observability import tracing_stats

    ops = 500 if args.quick else args.ops
    run = ex.run_trace_workload(ops=ops, seed=args.seed)
    section = tracing_stats(run["tracer"])
    rows = [
        (name, payload["count"], format_us(payload["mean"]),
         format_us(payload["p50"]), format_us(payload["p95"]),
         format_us(payload["p99"]), format_us(payload["p999"]),
         format_us(payload["max"]))
        for name, payload in section["histograms"].items()
    ]
    print(format_table(
        f"Per-span latency: YCSB-A on BA-WAL ({ops} ops, seed {args.seed})",
        ["span", "samples", "mean", "p50", "p95", "p99", "p999", "max"], rows,
    ))
    if section["counters"]:
        print()
        print(format_table("Counters", ["counter", "value"],
                           sorted(section["counters"].items())))
    result = run["result"]
    print()
    print(f"operations: {result.operations}  "
          f"throughput: {result.throughput:,.0f} ops/s  "
          f"simulated: {result.elapsed_seconds * 1e3:.2f} ms")
    if args.json:
        pathlib.Path(args.json).write_text(snapshot_to_json(section))
        print(f"wrote {args.json}")
    if args.csv:
        pathlib.Path(args.csv).write_text(snapshot_to_csv(section))
        print(f"wrote {args.csv}")


def _cmd_cluster(args) -> None:
    """Run a traced replicated-logging demo on the device pool and print
    the merged cluster stats + per-span latency table."""
    from repro.cluster import DevicePool, run_replicated_logging
    from repro.obs import tracing

    devices = args.devices
    records = 16 if args.quick else args.records
    with tracing.activated() as tracer:
        pool = DevicePool(devices=devices, seed=args.seed)
        result = run_replicated_logging(
            pool,
            streams=args.streams,
            clients_per_stream=args.clients,
            records_per_client=records,
            payload_bytes=args.payload,
            replicas=args.replicas,
        )
        report = pool.collect_stats(tracer=tracer)
    print(format_table(
        f"Cluster run: {devices} devices, RF={args.replicas}, "
        f"{args.streams} streams x {args.clients} clients",
        ["metric", "value"],
        [
            ("records acked", f"{result.records_acked:,}"),
            ("simulated seconds", f"{result.sim_seconds * 1e3:.3f} ms"),
            ("throughput", f"{result.records_per_sec:,.0f} records/s"),
            ("BA legs / block legs", f"{result.ba_legs} / {result.block_legs}"),
            ("fabric messages", report["interconnect"]["messages"]),
            ("fabric bytes", f"{report['interconnect']['bytes_sent']:,}"),
        ],
    ))
    print()
    rows = [
        (name, payload["count"], format_us(payload["mean"]),
         format_us(payload["p50"]), format_us(payload["p99"]))
        for name, payload in report["tracing"]["histograms"].items()
        if name.startswith("cluster.") or name.startswith("wal.")
    ]
    print(format_table("Cluster and WAL spans",
                       ["span", "samples", "mean", "p50", "p99"], rows))
    print()
    synced = sorted(
        (key, stats["ba_buffer"]["pinned_entries"])
        for key, stats in report["devices"].items()
        if "ba_buffer" in stats
    )
    print(format_table("Per-device pinned entries (merged view)",
                       ["device", "pinned"], synced))


def _cmd_nemesis(args) -> int:
    """Run nemesis campaigns: one by name (replay), or the whole matrix
    fanned out on the run-matrix executor."""
    import dataclasses
    import json

    from repro.nemesis import CAMPAIGNS, run_campaign
    from repro.nemesis.legs import nemesis_matrix

    if args.list_campaigns:
        rows = [
            (name, spec.seed, spec.devices,
             ", ".join(f.kind for f in spec.faults))
            for name, spec in sorted(CAMPAIGNS.items())
        ]
        print(format_table("Registered nemesis campaigns",
                           ["campaign", "seed", "devices", "faults"], rows))
        return 0
    if args.campaign is not None:
        spec = CAMPAIGNS[args.campaign]
        if args.seed is not None:
            spec = dataclasses.replace(spec, seed=args.seed)
        result = run_campaign(spec, bundle_dir=args.bundle_dir)
        print(json.dumps(result, sort_keys=True, indent=1))
        return 0 if result["ok"] else 1
    from repro.bench.runner import run_legs

    report = run_legs(nemesis_matrix(bundle_dir=args.bundle_dir),
                      jobs=args.jobs)
    failed = 0
    rows = []
    for leg_id, result in report.results.items():
        if not result["ok"]:
            failed += 1
        rows.append((
            leg_id,
            "ok" if result["ok"] else "FAIL",
            sum(result["records_acked"].values()),
            result["quorum_losses"],
            len(result["analysis"]["violations"]),
        ))
    print(format_table(
        f"Nemesis matrix: {len(rows)} campaigns, jobs={args.jobs}",
        ["campaign", "verdict", "acked", "quorum losses", "violations"],
        rows))
    print()
    print(f"{len(rows) - failed}/{len(rows)} campaigns passed "
          f"({report.wall_seconds:.1f}s wall, jobs={report.jobs})")
    if failed and args.bundle_dir:
        print(f"replay bundles under {args.bundle_dir}/")
    return 1 if failed else 0


def _profile_leg(leg_id: str, top: int) -> int:
    """Run one matrix leg under cProfile; print the top cumulative entries.

    Warm legs re-simulate their warm-up outside the profile, so the
    printout shows only the measured leg body — the part a wall-clock
    regression lives in.
    """
    import cProfile
    import pstats

    from repro.bench.legs import full_matrix, golden_matrix
    from repro.bench.runner import prepare

    matrix = {entry.leg_id: entry for entry in full_matrix()}
    for entry in golden_matrix():
        matrix.setdefault(entry.leg_id, entry)
    selected = matrix.get(leg_id)
    if selected is None:
        print(f"unknown leg {leg_id!r}; available legs:")
        for name in sorted(matrix):
            print(f"  {name}")
        return 2
    body = prepare(selected)
    profiler = cProfile.Profile()
    profiler.enable()
    body()
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(top)
    return 0


def _cmd_perf(args) -> int:
    """Measure simulator wall-clock performance; write BENCH_wallclock.json.

    Exits non-zero when any acceptance target is missed (``pass: false``
    in the payload), so CI lanes can gate on the perf harness directly.
    With ``--profile LEG`` it instead runs that single matrix leg under
    cProfile and prints the top ``--profile-top`` cumulative entries —
    the standing replacement for the ad-hoc scripts each wall-clock
    regression hunt used to start with.
    """
    from repro.bench import wallclock

    if args.profile:
        return _profile_leg(args.profile, args.profile_top)
    payload = wallclock.write_report(args.output, skip_figs=args.skip_figs,
                                     jobs=args.jobs,
                                     snapshot_cache=args.snapshot_cache)
    print(wallclock.format_report(payload))
    print(f"wrote {args.output}")
    return 0 if payload["pass"] else 1


def _cmd_serve(args) -> int:
    """Serve the gateway protocol on a real TCP socket (asyncio bridge)."""
    from repro.gateway.tcp import serve_forever

    return serve_forever(args.host, args.port, nodes=args.nodes, rf=args.rf,
                         pipeline_depth=args.pipeline_depth,
                         max_conns=args.max_conns, seed=args.seed)


def _cmd_report(args) -> None:
    """Run every experiment and write a single markdown report."""
    import contextlib
    import io
    import pathlib

    sections = [
        ("Table I", _cmd_table1),
        ("Fig. 7", _cmd_fig7),
        ("Fig. 8", _cmd_fig8),
        ("Fig. 9", _cmd_fig9),
        ("Fig. 10", _cmd_fig10),
        ("Ablations", _cmd_ablations),
    ]
    parts = ["# 2B-SSD reproduction report",
             "",
             "Generated by `python -m repro report`.  Paper-vs-measured",
             "commentary lives in EXPERIMENTS.md; these are the raw tables.",
             ""]
    for title, runner in sections:
        print(f"running {title} ...", flush=True)
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            runner(args)
        parts.append(f"## {title}\n")
        parts.append("```")
        parts.append(buffer.getvalue().rstrip())
        parts.append("```")
        parts.append("")
    output = pathlib.Path(args.output)
    output.write_text("\n".join(parts) + "\n")
    print(f"wrote {output}")


COMMANDS = {
    "table1": (_cmd_table1, "print the Table I device specification"),
    "fig7": (_cmd_fig7, "run the Fig. 7 latency sweeps"),
    "fig8": (_cmd_fig8, "run the Fig. 8 bandwidth sweeps"),
    "fig9": (_cmd_fig9, "run the Fig. 9 application benchmarks"),
    "fig10": (_cmd_fig10, "run the Fig. 10 comparison"),
    "ablations": (_cmd_ablations, "run every ablation study"),
    "trace": (_cmd_trace, "run a traced workload; dump per-span latencies"),
    "cluster": (_cmd_cluster, "run a replicated-logging demo on a device pool"),
    "nemesis": (_cmd_nemesis, "run fault-injection campaigns with the "
                              "streaming analyzer"),
    "perf": (_cmd_perf, "measure wall-clock perf; write BENCH_wallclock.json"),
    "serve": (_cmd_serve, "serve the gateway protocol on a TCP socket"),
    "report": (_cmd_report, "run everything and write a markdown report"),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "lint":
        # The linter owns its own argument grammar (variadic paths,
        # --select, --list-rules); delegate before the experiment parser.
        from repro.analysis import lint

        return lint.main(argv[1:])
    if argv and argv[0] == "scan":
        # Likewise the whole-program analyzer (baseline/cache flags).
        from repro.analysis.scan import cli as scan_cli

        return scan_cli.main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="2B-SSD (ISCA 2018) reproduction: run paper experiments.",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")
    lint_help = "lint src/repro for determinism/kernel/observability hazards"
    sub.add_parser("lint", help=lint_help, add_help=False)
    scan_help = ("prove durability ordering, generator discipline, and "
                 "die locksets interprocedurally")
    sub.add_parser("scan", help=scan_help, add_help=False)
    for name, (_fn, help_text) in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--quick", action="store_true",
                         help="smaller run (faster, noisier)")
        cmd.add_argument("--sanitize", action="store_true",
                         help="run under the runtime invariant sanitizer "
                              "(also: REPRO_SANITIZE=1)")
        if name == "report":
            cmd.add_argument("--output", default="REPORT.md",
                             help="report file path (default REPORT.md)")
        if name == "perf":
            cmd.add_argument("--output", default="BENCH_wallclock.json",
                             help="result file path (default BENCH_wallclock.json)")
            cmd.add_argument("--skip-figs", action="store_true",
                             help="microbench only; skip the fig7/fig8 "
                                  "drivers and the run-matrix section")
            cmd.add_argument("--jobs", type=int, default=4,
                             help="worker processes for the run-matrix "
                                  "section (default 4)")
            cmd.add_argument("--snapshot-cache", metavar="DIR", default=None,
                             help="persist warm-state snapshots under DIR "
                                  "(reused across invocations)")
            cmd.add_argument("--profile", metavar="LEG", default=None,
                             help="run one matrix leg under cProfile and "
                                  "print the hottest entries instead of "
                                  "the harness")
            cmd.add_argument("--profile-top", metavar="N", type=int,
                             default=25,
                             help="rows to print with --profile "
                                  "(default 25)")
        if name == "serve":
            cmd.add_argument("--host", default="127.0.0.1",
                             help="bind address (default 127.0.0.1)")
            cmd.add_argument("--port", type=int, default=7379,
                             help="bind port (default 7379)")
            cmd.add_argument("--nodes", type=int, default=3,
                             help="device-pool size (default 3)")
            cmd.add_argument("--rf", type=int, default=2,
                             help="replicas per shard stream incl. primary "
                                  "(default 2)")
            cmd.add_argument("--pipeline-depth", type=int, default=8,
                             help="in-flight commands per connection "
                                  "(default 8)")
            cmd.add_argument("--max-conns", type=int, default=4096,
                             help="connection limit (default 4096)")
            cmd.add_argument("--seed", type=int, default=11,
                             help="pool seed (default 11)")
        if name == "cluster":
            cmd.add_argument("--devices", type=int, default=4,
                             help="pool size (default 4)")
            cmd.add_argument("--replicas", type=int, default=2,
                             help="copies per stream incl. primary (default 2)")
            cmd.add_argument("--streams", type=int, default=4,
                             help="replicated WAL streams (default 4)")
            cmd.add_argument("--clients", type=int, default=2,
                             help="clients per stream (default 2)")
            cmd.add_argument("--records", type=int, default=64,
                             help="records per client (default 64)")
            cmd.add_argument("--payload", type=int, default=512,
                             help="record payload bytes (default 512)")
            cmd.add_argument("--seed", type=int, default=11,
                             help="pool seed (default 11)")
        if name == "nemesis":
            cmd.add_argument("--campaign", metavar="NAME", default=None,
                             help="run one registered campaign instead of "
                                  "the full matrix")
            cmd.add_argument("--seed", type=int, default=None,
                             help="override the campaign's seed "
                                  "(replay; requires --campaign)")
            cmd.add_argument("--jobs", type=int, default=1,
                             help="worker processes for the matrix "
                                  "(default 1)")
            cmd.add_argument("--bundle-dir", metavar="DIR", default=None,
                             help="write replay bundles for failed "
                                  "campaigns under DIR")
            cmd.add_argument("--list", dest="list_campaigns",
                             action="store_true",
                             help="list registered campaigns and exit")
        if name == "trace":
            cmd.add_argument("--ops", type=int, default=2000,
                             help="YCSB operations to run (default 2000)")
            cmd.add_argument("--seed", type=int, default=40,
                             help="platform seed (default 40)")
            cmd.add_argument("--json", metavar="PATH",
                             help="also export the tracing snapshot as JSON")
            cmd.add_argument("--csv", metavar="PATH",
                             help="also export per-span summaries as CSV")
    args = parser.parse_args(argv)
    if args.command in (None, "list"):
        print("available experiments:")
        for name, (_fn, help_text) in COMMANDS.items():
            print(f"  {name:10s} {help_text}")
        print(f"  {'lint':10s} {lint_help}")
        print(f"  {'scan':10s} {scan_help}")
        return 0
    from repro.analysis import sanitizer as simsan

    if getattr(args, "sanitize", False) or simsan.env_requested():
        with simsan.activated() as state:
            status = COMMANDS[args.command][0](args)
        print(f"sanitizer: {state.checks} checks, "
              f"{state.violations} violations", file=sys.stderr)
    else:
        status = COMMANDS[args.command][0](args)
    return int(status or 0)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
