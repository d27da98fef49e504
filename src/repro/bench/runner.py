"""Multiprocess run-matrix executor with warm-state snapshot reuse.

The evaluation matrix (figures, ablations, cluster sweeps) is a set of
fully independent deterministic simulations, so nothing about it needs
to run serially.  This module expands a matrix into :class:`Leg` records,
fans them out over a ``ProcessPoolExecutor``, and merges results back
**in leg order** — the merge is therefore deterministic and the combined
output byte-identical to a serial run.

Legs that share a warm-up phase declare it as a :class:`WarmSpec`; the
parent process resolves each distinct warm spec *once* (building and
warming a platform, then capturing ``Platform.snapshot()``), caches the
pickled snapshot in a :class:`SnapshotCache`, and ships the blob to the
workers, which fork their platform from it instead of re-simulating the
warm-up.  Cache keys combine the warm spec with a digest of the
git-tracked ``src/repro`` sources, so any code change invalidates stale
disk snapshots automatically.

Everything that crosses a process boundary is plain data: legs name
their drivers by dotted path (``"module:function"``), snapshots are
pickled :class:`~repro.platform.PlatformSnapshot` dataclasses, and the
runner flattens every leg's result to JSON-safe data
(:func:`_jsonify`), so a driver may return ``RunResult`` objects,
dataclasses, int-keyed dicts and tuples.  See docs/performance.md for
the leg model and seeding rules.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import gc
import hashlib
import importlib
import json
import pathlib
import pickle
import subprocess
import time
from typing import Callable, Optional, Sequence


@dataclasses.dataclass(frozen=True)
class WarmSpec:
    """A shared warm-up phase: how to build and warm a platform.

    ``build(**kwargs)`` must return a :class:`~repro.platform.Platform`;
    ``warm(platform, **kwargs)`` must drive it to kernel quiescence with
    drained device caches and an empty WC buffer (the preconditions of
    ``Platform.snapshot``).  ``kwargs`` is a tuple of ``(key, value)``
    pairs so specs stay frozen/hashable; values must be JSON-safe since
    they feed the cache key.
    """

    build: str
    warm: str
    kwargs: tuple = ()

    def kwargs_dict(self) -> dict:
        return dict(self.kwargs)


@dataclasses.dataclass(frozen=True)
class Leg:
    """One independent unit of matrix work.

    ``fn`` is the dotted path of the driver itself; whatever it returns
    is flattened to JSON-safe data.  Plain legs call ``fn(**kwargs)``;
    warm legs call ``fn(platform, **kwargs)`` on a platform forked from
    the warm snapshot (or warmed from scratch when reuse is disabled —
    the results are byte-identical either way, which the determinism
    gate proves).
    Per-leg seeds ride in ``kwargs`` (plain legs) or in the warm spec's
    ``kwargs`` (warm legs), so a leg's draws never depend on which
    process runs it or in what order.
    """

    leg_id: str
    fn: str
    kwargs: tuple = ()
    warm: Optional[WarmSpec] = None


def leg(leg_id: str, fn: str, warm: Optional[WarmSpec] = None,
        **kwargs) -> Leg:
    """Convenience constructor: keyword args become the kwargs tuple."""
    return Leg(leg_id=leg_id, fn=fn, kwargs=tuple(sorted(kwargs.items())),
               warm=warm)


def resolve(dotted: str) -> Callable:
    """Resolve a ``"package.module:function"`` path to the callable."""
    module_name, sep, attr = dotted.partition(":")
    if not sep or not attr:
        raise ValueError(f"expected 'module:function', got {dotted!r}")
    return getattr(importlib.import_module(module_name), attr)


# -- snapshot cache ----------------------------------------------------------

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]
_source_digest_memo: Optional[str] = None


def source_digest() -> str:
    """SHA-256 over the git-tracked ``src/repro`` Python sources.

    Part of every cache key: a snapshot captured by old code must never
    be restored by new code.  Falls back to an rglob when git is
    unavailable (e.g. an exported tree).
    """
    global _source_digest_memo
    if _source_digest_memo is not None:
        return _source_digest_memo
    src = _REPO_ROOT / "src" / "repro"
    files: list[pathlib.Path] = []
    try:
        out = subprocess.run(
            ["git", "-C", str(_REPO_ROOT), "ls-files", "--", "src/repro"],
            capture_output=True, text=True, check=True)
        files = [_REPO_ROOT / line for line in out.stdout.splitlines()
                 if line.endswith(".py")]
    except (OSError, subprocess.CalledProcessError):
        pass
    if not files:
        files = sorted(src.rglob("*.py"))
    digest = hashlib.sha256()
    for path in sorted(files):
        digest.update(str(path.relative_to(_REPO_ROOT)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    _source_digest_memo = digest.hexdigest()
    return _source_digest_memo


class SnapshotCache:
    """Warm-state snapshots keyed by (warm spec, source digest).

    Always memoizes in memory; with a ``directory`` it also persists each
    blob as ``<key>.snapshot`` so later invocations (``repro perf
    --snapshot-cache DIR``, CI lanes) skip the warm-up entirely.
    """

    def __init__(self, directory: Optional[str | pathlib.Path] = None) -> None:
        self.directory = pathlib.Path(directory) if directory else None
        self._memo: dict[str, bytes] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def key(self, warm: WarmSpec) -> str:
        spec = json.dumps(
            {"build": warm.build, "warm": warm.warm, "kwargs": warm.kwargs},
            sort_keys=True)
        return hashlib.sha256(
            f"{spec}\0{source_digest()}".encode()).hexdigest()

    def _path(self, key: str) -> Optional[pathlib.Path]:
        if self.directory is None:
            return None
        return self.directory / f"{key}.snapshot"

    def get(self, warm: WarmSpec) -> Optional[bytes]:
        key = self.key(warm)
        blob = self._memo.get(key)
        if blob is None:
            path = self._path(key)
            if path is not None and path.exists():
                blob = path.read_bytes()
                self._memo[key] = blob
        if blob is not None:
            self.hits += 1
        else:
            self.misses += 1
        return blob

    def put(self, warm: WarmSpec, blob: bytes) -> None:
        key = self.key(warm)
        self._memo[key] = blob
        path = self._path(key)
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(blob)
        self.stores += 1

    def counters(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}


def warm_snapshot_blob(warm: WarmSpec, cache: SnapshotCache) -> bytes:
    """The pickled snapshot for ``warm``, building and warming on a miss."""
    blob = cache.get(warm)
    if blob is not None:
        return blob
    kwargs = warm.kwargs_dict()
    platform = resolve(warm.build)(**kwargs)
    resolve(warm.warm)(platform, **kwargs)
    blob = pickle.dumps(platform.snapshot())
    cache.put(warm, blob)
    return blob


# -- leg execution -----------------------------------------------------------


def _jsonify(value):
    """Flatten driver output to JSON-safe data (RunResult -> dict, keys -> str)."""
    from repro.bench.drivers import RunResult

    if isinstance(value, RunResult):
        return {
            "operations": value.operations,
            "elapsed_seconds": value.elapsed_seconds,
            "commit_latency_total": value.commit_latency_total,
            "throughput": value.throughput,
            "mean_commit_latency": value.mean_commit_latency,
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonify(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    return value


def prepare(leg: Leg, warm_blob: Optional[bytes] = None) -> Callable[[], object]:
    """Set ``leg`` up and return its zero-argument call.

    A warm leg's platform is built here, then restored from ``warm_blob``
    or, without one, warmed from scratch — so the returned call runs the
    leg body alone.  A plain leg needs no setup.
    """
    fn = resolve(leg.fn)
    kwargs = dict(leg.kwargs)
    if leg.warm is None:
        return functools.partial(fn, **kwargs)
    warm_kwargs = leg.warm.kwargs_dict()
    platform = resolve(leg.warm.build)(**warm_kwargs)
    if warm_blob is not None:
        platform.restore(pickle.loads(warm_blob))
    else:
        resolve(leg.warm.warm)(platform, **warm_kwargs)
    return functools.partial(fn, platform, **kwargs)


def _execute_leg(leg: Leg, warm_blob: Optional[bytes]) -> dict:
    """Run one leg; module-level so it pickles into pool workers."""
    # Dead platforms are reference cycles, so a worker that just ran a
    # heavy leg is holding its whole simulation graph until the cyclic
    # collector happens by.  Collecting up front keeps every leg's
    # allocation behaviour (and thus its wall time) independent of
    # whatever the worker ran before it.
    gc.collect()
    return {"leg_id": leg.leg_id, "result": _jsonify(prepare(leg, warm_blob)())}


@dataclasses.dataclass
class RunnerReport:
    """The merged output of one matrix run."""

    results: dict  # leg_id -> result, in leg order
    wall_seconds: float
    jobs: int
    cache: dict  # SnapshotCache counters for this run

    def canonical_results(self) -> str:
        """Canonical JSON of all results — the determinism-gate currency."""
        from repro.bench.golden import canonical_json

        return canonical_json(self.results)


def run_legs(legs: Sequence[Leg], jobs: int = 1,
             snapshot_cache: Optional[SnapshotCache] = None,
             reuse_snapshots: bool = True) -> RunnerReport:
    """Execute ``legs`` and merge their outputs deterministically.

    Warm snapshots are resolved in the parent *before* fan-out (each
    distinct spec exactly once, so concurrent legs never race to warm),
    then every leg runs independently: in-process for ``jobs <= 1``,
    else on a fork-based process pool.  Results are merged in leg order
    regardless of completion order, so output is byte-identical across
    ``jobs`` settings.

    ``reuse_snapshots=False`` is the pre-runner status quo — every warm
    leg re-simulates its warm-up — kept as the baseline the wallclock
    harness and the determinism gate compare against.
    """
    ids = [leg.leg_id for leg in legs]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate leg ids in matrix: {ids}")
    cache = snapshot_cache if snapshot_cache is not None else SnapshotCache()
    # Wall clock, deliberately: wall_seconds reports executor overhead to
    # the perf harness; no simulated time exists at this layer.
    t0 = time.perf_counter()  # reprolint: disable=DET001
    blobs: list[Optional[bytes]] = []
    for item in legs:
        if item.warm is not None and reuse_snapshots:
            blobs.append(warm_snapshot_blob(item.warm, cache))
        else:
            blobs.append(None)
    if jobs <= 1:
        outputs = [_execute_leg(item, blob) for item, blob in zip(legs, blobs)]
    else:
        # Forking copies the parent's heap lazily; collecting first keeps
        # simulation garbage from being COW-faulted into every worker.
        gc.collect()
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_execute_leg, item, blob)
                       for item, blob in zip(legs, blobs)]
            outputs = [future.result() for future in futures]
    return RunnerReport(
        results={output["leg_id"]: output["result"] for output in outputs},
        wall_seconds=time.perf_counter() - t0,  # reprolint: disable=DET001
        jobs=jobs,
        cache=cache.counters(),
    )


# -- determinism gate --------------------------------------------------------


def check_determinism(jobs: int = 4) -> int:
    """Prove parallel output byte-identical to serial on the goldens.

    Runs the golden-fixture legs three ways — serial without snapshot
    reuse, serial with reuse, and ``jobs``-way parallel with reuse — and
    requires all three byte-identical to each other *and* to the
    committed ``tests/golden/*.json`` fixtures.  Returns a process exit
    status (0 ok); wired into CI's parallel fast lane.
    """
    from repro.bench.golden import GOLDEN_DIR, SCENARIOS, canonical_json
    from repro.bench.legs import golden_matrix

    legs = golden_matrix()
    serial = run_legs(legs, jobs=1, reuse_snapshots=False)
    reused = run_legs(legs, jobs=1, reuse_snapshots=True)
    parallel = run_legs(legs, jobs=jobs, reuse_snapshots=True)
    status = 0
    if serial.canonical_results() != parallel.canonical_results():
        print(f"FAIL: jobs=1 and jobs={jobs} outputs differ")
        status = 1
    if serial.canonical_results() != reused.canonical_results():
        print("FAIL: snapshot reuse changed leg output")
        status = 1
    for name in SCENARIOS:
        leg_id = f"golden:{name}"
        if leg_id not in serial.results:
            continue
        expected = (GOLDEN_DIR / f"{name}.json").read_text()
        actual = canonical_json(serial.results[leg_id])
        marker = "MATCH" if actual == expected else "MISMATCH"
        if actual != expected:
            status = 1
        print(f"{leg_id}: {marker}")
    if status == 0:
        print(f"runner determinism: jobs=1 == jobs={jobs} == golden fixtures "
              f"({len(legs)} legs)")
    return status


def bench_leg_run(which: str, jobs: int = 1, reuse_snapshots: bool = True,
                  snapshot_cache: Optional[str] = None) -> dict:
    """One timed matrix run, summarized as plain JSON-safe data.

    The wallclock harness invokes this through ``--bench-legs`` in a
    *fresh interpreter* per measurement: a fork-based pool inherits the
    parent's whole heap, so forking out of a harness that just ran the
    figure drivers would tax every worker with copy-on-write faults the
    serial baseline never pays.  A clean parent per run keeps the
    serial/parallel comparison about the executor, not the heap.
    ``digest`` (SHA-256 of the canonical results) is what cross-process
    byte-identity checks compare.
    """
    from repro.bench.legs import ablation_sweep, full_matrix

    legs = full_matrix() if which == "matrix" else ablation_sweep()
    report = run_legs(legs, jobs=jobs, snapshot_cache=SnapshotCache(snapshot_cache),
                      reuse_snapshots=reuse_snapshots)
    return {
        "legs": len(legs),
        "jobs": jobs,
        "wall_seconds": round(report.wall_seconds, 3),
        "digest": hashlib.sha256(
            report.canonical_results().encode()).hexdigest(),
        "cache": report.cache,
    }


def main(argv: Optional[list[str]] = None) -> int:  # pragma: no cover
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check-determinism", action="store_true",
                        help="run the golden matrix serial and parallel; "
                             "exit non-zero unless byte-identical")
    parser.add_argument("--jobs", type=int, default=4,
                        help="pool width for the parallel run (default 4)")
    parser.add_argument("--bench-legs", choices=("matrix", "sweep"),
                        help="time one matrix run and print a JSON summary "
                             "(the wallclock harness's per-measurement probe)")
    parser.add_argument("--no-reuse-snapshots", action="store_true",
                        help="with --bench-legs: re-warm every warm leg "
                             "instead of restoring the shared snapshot")
    parser.add_argument("--snapshot-cache", metavar="DIR", default=None,
                        help="with --bench-legs: persist warm snapshots "
                             "under DIR")
    args = parser.parse_args(argv)
    if args.bench_legs:
        summary = bench_leg_run(
            args.bench_legs, jobs=args.jobs,
            reuse_snapshots=not args.no_reuse_snapshots,
            snapshot_cache=args.snapshot_cache)
        print(json.dumps(summary, sort_keys=True))
        return 0
    if args.check_determinism:
        return check_determinism(jobs=args.jobs)
    parser.print_help()
    return 2


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
