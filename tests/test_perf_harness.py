"""The wall-clock perf harness: emission smoke test and artifact schema.

The measurement itself is marked ``perf`` (wall-clock numbers are
machine-dependent and slow-ish); the schema check of the committed
``BENCH_wallclock.json`` artifact runs everywhere.
"""

import json
import pathlib

import pytest

from repro.bench import wallclock

pytestmark = pytest.mark.oracle

ARTIFACT = pathlib.Path(__file__).resolve().parents[1] / "BENCH_wallclock.json"


@pytest.mark.perf
def test_harness_emits_schema_valid_report(tmp_path):
    path = tmp_path / "BENCH_wallclock.json"
    payload = wallclock.write_report(path, skip_figs=True)
    assert path.exists()
    loaded = json.loads(path.read_text())
    assert loaded == payload
    wallclock.validate_report(loaded)
    micro = loaded["results"]["microbench"]
    assert micro["iters_per_sec"] > 0
    assert micro["events_per_sec"] == pytest.approx(
        micro["iters_per_sec"] * wallclock.EVENTS_PER_ITERATION)


def test_committed_bench_artifact_is_schema_valid():
    assert ARTIFACT.exists(), (
        "BENCH_wallclock.json missing — run: PYTHONPATH=src python -m repro perf"
    )
    payload = json.loads(ARTIFACT.read_text())
    wallclock.validate_report(payload)
    assert payload["pass"] is True


def test_committed_artifact_reports_runner_speedups():
    """The committed runner section must meet its targets with the cache
    accounting that explains *why* (warm legs hitting one stored snapshot)."""
    payload = json.loads(ARTIFACT.read_text())
    runner = payload["results"]["runner"]
    targets = payload["targets"]
    assert runner["deterministic"] is True
    assert runner["matrix_speedup"] >= targets["runner_matrix_speedup_min"]
    assert runner["sweep"]["speedup"] >= targets["runner_sweep_speedup_min"]
    cache = runner["snapshot_cache"]
    assert cache["misses"] == cache["stores"]
    assert cache["hits"] >= 1


def test_validate_report_rejects_malformed_payloads():
    good = {
        "schema": wallclock.SCHEMA,
        "baseline": dict(wallclock.BASELINE),
        "targets": dict(wallclock.TARGETS),
        "results": {"microbench": {
            "iters_per_sec": 1.0, "events_per_sec": 8.0,
            "speedup_vs_baseline": 1.0,
        }},
        "pass": True,
    }
    wallclock.validate_report(good)  # sanity: accepted
    with pytest.raises(ValueError):
        wallclock.validate_report({**good, "schema": "other/v9"})
    with pytest.raises(ValueError):
        wallclock.validate_report({k: v for k, v in good.items() if k != "results"})
    bad_micro = {**good, "results": {"microbench": {"iters_per_sec": "fast"}}}
    with pytest.raises(ValueError):
        wallclock.validate_report(bad_micro)
    bad_runner = {**good, "results": {
        **good["results"],
        "runner": {"matrix_speedup": 2.5, "serial_seconds": 1.0,
                   "parallel_seconds": 0.4, "sweep": {"speedup": 2.0}},
    }}
    with pytest.raises(ValueError, match="deterministic"):
        wallclock.validate_report(bad_runner)
