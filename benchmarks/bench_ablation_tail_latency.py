"""Ablation: commit tail latency, conventional sync WAL vs BA-WAL (§IV-A).

The percentiles reported (and asserted on) here are produced by the
observability layer's bucketed latency histograms
(:class:`repro.obs.LatencyHistogram`), not an exact sample
reservoir — the assertions' margins comfortably cover the ~7.5% bucket
width.
"""

import pytest

from repro.bench.ablations import run_tail_latency_ablation
from repro.bench.tables import format_table


@pytest.fixture(scope="module")
def ablation():
    return run_tail_latency_ablation()


def bench_ablation_tail_latency(benchmark, report, ablation):
    benchmark.pedantic(lambda: run_tail_latency_ablation(commits=100),
                       rounds=1, iterations=1)
    metrics = ["mean", "p50", "p90", "p99", "p999", "max"]
    rows = [
        (name, *[f"{summary[m] * 1e6:.2f}us" for m in metrics])
        for name, summary in ablation.items()
    ]
    report("ablation_tail_latency", format_table(
        "Ablation: commit latency distribution (100 B records)",
        ["scheme", *metrics], rows,
    ))


class TestTailLatency:
    def test_ba_commits_are_order_of_magnitude_faster(self, ablation):
        assert (ablation["conventional WAL"]["p50"]
                > 5 * ablation["BA-WAL"]["p50"])

    def test_ba_p99_still_sub_block_write(self, ablation):
        # Even the BA tail (which includes segment-switch syncs) stays
        # under a single conventional commit's median.
        assert ablation["BA-WAL"]["p99"] < ablation["conventional WAL"]["p50"]

    def test_ba_tail_is_flat(self, ablation):
        ba = ablation["BA-WAL"]
        assert ba["p99"] < 5 * ba["p50"]

    def test_summaries_are_histogram_sourced(self, ablation):
        # The histogram recorder also reports p95; the exact reservoir
        # recorder never did — its presence proves the sourcing.
        for summary in ablation.values():
            assert "p95" in summary
            assert summary["p50"] <= summary["p95"] <= summary["p99"]
