"""Run-matrix executor: determinism, cache accounting, leg plumbing.

The executor's contract is that *how* a matrix runs — pool width,
snapshot reuse, completion order — never shows in its output: results
merge in leg order, flattened to JSON-safe data, and are byte-identical
across ``jobs`` settings.  These tests pin that, plus the snapshot
cache's hit/miss/store accounting and the dotted-path leg model's edges.
"""

import dataclasses
import inspect
import json

import pytest

from repro.bench.drivers import RunResult
from repro.bench.golden import canonical_json
from repro.bench.legs import ablation_sweep, full_matrix, golden_matrix
from repro.bench.runner import (
    Leg,
    SnapshotCache,
    WarmSpec,
    leg,
    prepare,
    resolve,
    run_legs,
    source_digest,
    warm_snapshot_blob,
)
from repro.nemesis.legs import nemesis_matrix

_HERE = "tests.test_runner"


def double(value: int = 0) -> dict:
    return {"value": value * 2}


@dataclasses.dataclass
class _Point:
    x: int
    tags: tuple


def mixed_output() -> dict:
    """Every shape a driver returns that JSON cannot carry as is."""
    return {
        "run": RunResult(operations=4, elapsed_seconds=2.0,
                         commit_latency_total=1.0),
        "point": _Point(x=1, tags=(2, 3)),
        128: {"Ba": RunResult(operations=2, elapsed_seconds=0.0,
                              commit_latency_total=0.0)},
        "series": (1.5, (2, 3)),
    }


class TestLegModel:
    def test_leg_constructor_sorts_kwargs(self):
        built = leg("a", "m:f", b=1, a=2)
        assert built.kwargs == (("a", 2), ("b", 1))

    def test_resolve_roundtrip(self):
        assert resolve(f"{_HERE}:double") is double

    def test_resolve_rejects_bare_module_path(self):
        with pytest.raises(ValueError, match="module:function"):
            resolve("repro.bench.legs")

    def test_duplicate_leg_ids_rejected(self):
        legs = [leg("same", f"{_HERE}:double"), leg("same", f"{_HERE}:double")]
        with pytest.raises(ValueError, match="duplicate"):
            run_legs(legs)

    def test_results_merge_in_leg_order(self):
        legs = [leg(f"leg{i}", f"{_HERE}:double", value=i) for i in (3, 1, 2)]
        report = run_legs(legs, jobs=2)
        assert list(report.results) == ["leg3", "leg1", "leg2"]
        assert report.results["leg3"] == {"value": 6}


class TestDeterminism:
    def test_parallel_output_byte_identical_to_serial(self):
        legs = golden_matrix()
        serial = run_legs(legs, jobs=1, reuse_snapshots=False)
        parallel = run_legs(legs, jobs=2, reuse_snapshots=True)
        assert serial.canonical_results() == parallel.canonical_results()

    def test_snapshot_reuse_does_not_change_sweep_output(self):
        legs = ablation_sweep()[:2]
        cold = run_legs(legs, jobs=1, reuse_snapshots=False)
        warm = run_legs(legs, jobs=1, reuse_snapshots=True)
        assert cold.canonical_results() == warm.canonical_results()


class TestSnapshotCache:
    def test_legs_sharing_a_warm_spec_hit_once_per_extra_leg(self):
        legs = ablation_sweep()[:3]
        cache = SnapshotCache()
        run_legs(legs, jobs=1, snapshot_cache=cache)
        assert cache.counters() == {"hits": 2, "misses": 1, "stores": 1}

    def test_disk_cache_survives_a_new_instance(self, tmp_path):
        legs = ablation_sweep()[:1]
        first = SnapshotCache(tmp_path)
        run_legs(legs, jobs=1, snapshot_cache=first)
        assert first.counters() == {"hits": 0, "misses": 1, "stores": 1}
        assert list(tmp_path.glob("*.snapshot"))

        second = SnapshotCache(tmp_path)
        report = run_legs(legs, jobs=1, snapshot_cache=second)
        assert second.counters() == {"hits": 1, "misses": 0, "stores": 0}
        assert report.cache == {"hits": 1, "misses": 0, "stores": 0}

    def test_key_depends_on_warm_kwargs_and_source_digest(self):
        cache = SnapshotCache()
        warm_a = WarmSpec(build="m:b", warm="m:w", kwargs=(("seed", 1),))
        warm_b = WarmSpec(build="m:b", warm="m:w", kwargs=(("seed", 2),))
        assert cache.key(warm_a) != cache.key(warm_b)
        assert cache.key(warm_a) == cache.key(warm_a)
        assert source_digest() in {source_digest()}  # memoized, stable

    def test_report_carries_wall_seconds_and_jobs(self):
        report = run_legs([leg("one", f"{_HERE}:double", value=4)], jobs=1)
        assert report.jobs == 1
        assert report.wall_seconds >= 0.0
        assert isinstance(report.results["one"], dict)


class TestWarmLegs(object):
    def test_plain_and_warm_legs_mix_in_one_matrix(self):
        legs = [leg("plain", f"{_HERE}:double", value=5)] + ablation_sweep()[:1]
        report = run_legs(legs, jobs=1)
        assert report.results["plain"] == {"value": 10}
        sweep_id = legs[1].leg_id
        assert report.results[sweep_id]["stats"]

    def test_warm_spec_is_frozen_and_hashable(self):
        warm = WarmSpec(build="m:b", warm="m:w", kwargs=(("k", 1),))
        assert {warm: "ok"}[warm] == "ok"
        with pytest.raises(AttributeError):
            warm.build = "other"  # type: ignore[misc]

    def test_leg_is_frozen(self):
        built = Leg(leg_id="x", fn="m:f")
        with pytest.raises(AttributeError):
            built.fn = "m:g"  # type: ignore[misc]


class TestJsonContract:
    def test_driver_output_comes_back_json_safe(self):
        expected = {
            "run": {"operations": 4, "elapsed_seconds": 2.0,
                    "commit_latency_total": 1.0, "throughput": 2.0,
                    "mean_commit_latency": 0.25},
            "point": {"x": 1, "tags": [2, 3]},
            "128": {"Ba": {"operations": 2, "elapsed_seconds": 0.0,
                           "commit_latency_total": 0.0, "throughput": 0.0,
                           "mean_commit_latency": 0.0}},
            "series": [1.5, [2, 3]],
        }
        for jobs in (1, 2):
            result = run_legs([leg("mixed", f"{_HERE}:mixed_output")],
                              jobs=jobs).results["mixed"]
            assert result == expected
            assert json.loads(json.dumps(result)) == result

    def test_prepare_restores_a_warm_leg_as_it_warms_one(self):
        warm_leg = next(item for item in golden_matrix()
                        if item.warm is not None)
        blob = warm_snapshot_blob(warm_leg.warm, SnapshotCache())
        warmed = canonical_json(prepare(warm_leg)())
        restored = canonical_json(prepare(warm_leg, blob)())
        assert restored == warmed


class TestDottedPaths:
    def test_every_matrix_leg_binds_to_its_driver(self):
        """A renamed driver or kwarg fails here, not at ``repro perf`` time.

        Nothing runs: each dotted path resolves to a callable whose
        signature accepts the leg's kwargs (after the platform, for a
        warm leg), and each warm spec's build and warm steps accept its
        kwargs.
        """
        legs = (full_matrix() + golden_matrix() + ablation_sweep()
                + nemesis_matrix())
        unbound = []
        for item in legs:
            platform = ("platform",) if item.warm is not None else ()
            calls = [(item.fn, platform, dict(item.kwargs))]
            if item.warm is not None:
                warm_kwargs = item.warm.kwargs_dict()
                calls += [(item.warm.build, (), warm_kwargs),
                          (item.warm.warm, platform, warm_kwargs)]
            for dotted, args, kwargs in calls:
                try:
                    inspect.signature(resolve(dotted)).bind(*args, **kwargs)
                except (AttributeError, ImportError, TypeError) as error:
                    unbound.append(f"{item.leg_id}: {dotted}: {error}")
        assert not unbound
