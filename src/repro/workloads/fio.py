"""FIO-like microbenchmark helpers (QD1 latency and bandwidth sweeps).

The paper measures Figs. 7 and 8 with Linux FIO at queue depth one; these
helpers run the equivalent sweeps against any operation factory — a block
device, the MMIO path, the read-DMA path, or the 2B internal datapath —
and report per-size mean latencies.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim import Engine


def latency_sweep(
    engine: Engine,
    make_op: Callable[[int, int], "Iterator"],
    sizes: list[int],
    iterations: int = 8,
    histogram: Optional[object] = None,
) -> dict[int, float]:
    """Run ``make_op(size, iteration)`` sequentially (QD1) and return the
    mean latency per request size, in seconds.

    ``histogram`` may be anything with a ``record(seconds)`` method (a
    :class:`repro.obs.LatencyHistogram`, say); every individual
    operation's latency is recorded into it, giving the sweep's full
    distribution alongside the per-size means."""
    results: dict[int, float] = {}

    def runner():
        for size in sizes:
            start = engine.now
            for iteration in range(iterations):
                op_start = engine.now
                yield from make_op(size, iteration)
                if histogram is not None:
                    histogram.record(engine.now - op_start)
            results[size] = (engine.now - start) / iterations
        return results

    engine.run(until=engine.process(runner(), name="fio-sweep"))
    return results


def bandwidth_of(latencies: dict[int, float]) -> dict[int, float]:
    """Convert a latency sweep into bandwidth (bytes/second) per size."""
    return {size: size / latency for size, latency in latencies.items() if latency > 0}
