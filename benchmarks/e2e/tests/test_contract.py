"""BENCHMARK.json against the harness's own tables and the driver's
shape rules, and the result JSON against BENCHMARK.json."""

import json
import os
import re
import subprocess
import sys

from conftest import E2E, ROOT
from harness import spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_is_the_spec_tables():
    bench = declared()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["benchmarks/e2e"]
    assert bench["run_seconds"] == spec.RUN_SECONDS
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == \
        list(spec.WORKLOADS.items())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]] == \
        [(name, unit, better, bound)
         for name, unit, _clock, better, bound in spec.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == list(spec.PER_LAYER)


def test_benchmark_json_meets_the_shape_rules():
    bench = declared()
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    assert 1 <= bench["run_seconds"] <= 60
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in bench[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert len(json.dumps(bench)) <= 64 * 1024
    for part in bench["command"]:
        assert not part.startswith("/") and ".." not in part


def test_seconds_map_to_whole_rounds_then_to_a_common_scale():
    assert spec.sizing(spec.RUN_SECONDS) == (spec.ROUNDS_AT_REF, 1.0)
    assert spec.sizing(2 * spec.RUN_SECONDS) == (2 * spec.ROUNDS_AT_REF, 1.0)
    rounds, scale = spec.sizing(1)
    assert rounds == 1 and 0 < scale < 1


def run_py(*arguments):
    done = subprocess.run(
        [sys.executable, os.path.join(E2E, "run.py"), *arguments],
        stdout=subprocess.PIPE, text=True, timeout=120)
    return done.returncode, done.stdout.strip().splitlines()


def test_one_workload_prints_exactly_the_declared_metrics():
    bench = declared()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, lines = run_py("--workload", "gw-set", "--seed", "3",
                             "--rounds", "1", "--scale", "0.02",
                             "--trace", str(trace))
        assert code == 0
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == \
            [metric["name"] for metric in bench[section]]
        units = {metric["name"]: metric["unit"] for metric in bench[section]}
        for name, entry in result["metrics"].items():
            assert set(entry) == {"value", "unit"}
            assert entry["unit"] == units[name]
            assert isinstance(entry["value"], (int, float))


def test_smoke_mode_covers_every_workload_and_metric():
    code, lines = run_py("--smoke", "--seed", "2")
    assert code == 0, "\n".join(lines)
    with open(os.path.join(E2E, "out", "latest.json")) as handle:
        latest = json.load(handle)
    bench = declared()
    assert list(latest["workloads"]) == \
        [workload["name"] for workload in bench["workloads"]]
    for name, entry in latest["workloads"].items():
        assert entry["failed_share"] == 0, name
        assert list(entry["metrics"]) == \
            [metric["name"] for metric in bench["end_to_end"]]
        for metric, row in entry["metrics"].items():
            assert row["value"] > 0, (name, metric)
            assert row["clock"] in ("wall", "sim", "exact")
    assert set(latest["record"]) >= {"sha", "date", "seed", "scale", "nproc",
                                     "python", "metrics"}
