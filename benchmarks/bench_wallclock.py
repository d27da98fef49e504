"""Wall-clock performance of the simulator itself (not a paper figure).

Measures kernel events/sec and the fig7/fig8 driver runtimes against the
pre-optimization baselines pinned in :mod:`repro.bench.wallclock`, and
writes the one ``BENCH_wallclock.json`` at the repository root (the
artifact ``repro perf`` writes and ``tests/test_perf_harness.py``
validates), whichever way it is run.  Run directly::

    PYTHONPATH=src python benchmarks/bench_wallclock.py        # or
    PYTHONPATH=src python -m repro perf

or through pytest (the ``perf`` marker keeps it out of ``-m "not perf"``
runs)::

    PYTHONPATH=src python -m pytest benchmarks/bench_wallclock.py
"""

import pathlib

import pytest

from repro.bench import wallclock

pytestmark = pytest.mark.perf

ARTIFACT = pathlib.Path(__file__).resolve().parents[1] / "BENCH_wallclock.json"


def bench_wallclock(report):
    payload = wallclock.write_report(ARTIFACT)
    report("wallclock", wallclock.format_report(payload))
    assert payload["pass"], (
        "wall-clock perf targets missed: " + wallclock.format_report(payload))


if __name__ == "__main__":
    payload = wallclock.write_report(ARTIFACT)
    print(wallclock.format_report(payload))
    print(f"wrote {ARTIFACT}")
