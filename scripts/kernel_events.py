#!/usr/bin/env python3
"""Where do a workload's kernel events come from?

    python scripts/kernel_events.py gw-set [--seed 1] [--scale 0.05] [--top 8]
    (~1 s at the default scale, on a 2-core box)

Runs one round of a ``benchmarks/e2e`` workload (read-only use of its
harness; ``tcp-mixed`` is its in-engine twin) with every increment of
``engine._sequence`` attributed to a bucket and a model call site, over
exactly the windows the benchmark's ``kernel_events_per_op`` counts:

* ``bootstrap``          — ``engine.process(...)``: the first resume of a new process
* ``completion-wake``    — a finished process waking whoever awaited it
* ``handoff-wake``       — a resource grant / store hand-off / all_of waking its waiter
* ``yield-of-processed`` — a process yielding an event that had already fired
* ``timeout``            — ``engine.timeout(...)`` and ``engine.timeout_at(...)``
* ``schedule``           — ``Event.succeed/fail``, ``call_at``, PCIe burst wake-ups

A ``bootstrap`` + ``completion-wake`` pair at one site is a spawn; when
the site is a ``yield engine.process(callee())`` it is the pair that
``yield from callee()`` does not pay (docs/performance.md, "Delegated
calls").  The instrumentation patches the kernel from outside and walks
Python frames on every event, so it is slow: keep ``--scale`` small.

The script exits non-zero when its attributed count disagrees with the
benchmark's ``kernel_events_per_op``.  ``gw-set --scale 0.5`` (~1 s)
reaches log segment recycles, so the absolute-time wake-ups of
``BA_PIN`` / ``BA_FLUSH`` (``engine.timeout_at``, in the ``timeout``
bucket) are counted too; tier-1 runs it (``tests/test_meters.py``).
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
E2E = os.path.join(ROOT, "benchmarks", "e2e")
sys.path[:0] = [E2E, SRC]

import run as e2e  # noqa: E402  (benchmarks/e2e/run.py)
from harness import gw  # noqa: E402
from repro.sim import engine as kernel  # noqa: E402

KERNEL_DIR = os.path.dirname(os.path.abspath(kernel.__file__))
MEASURED_STEPS = {"ladder", "overload", "closed"}
BUCKETS = ("bootstrap", "completion-wake", "handoff-wake",
           "yield-of-processed", "timeout", "schedule")


class Ledger:
    """Counts sequence increments while a measured window is open."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()  # (bucket, site) -> increments
        self.open = False
        self.step_label = None  # None outside GatewaySystem.step

    def add(self, bucket: str, site: str) -> None:
        if self.open:
            self.counts[bucket, site] += 1


def _where(code, lineno) -> str:
    path = os.path.relpath(code.co_filename, ROOT)
    return f"{path}:{lineno} {code.co_name}"


def _stack_site(frame) -> str:
    """The nearest frame that is neither the kernel nor this script."""
    while frame is not None:
        filename = frame.f_code.co_filename
        if (not filename.startswith(KERNEL_DIR)
                and filename != os.path.abspath(__file__)):
            return _where(frame.f_code, frame.f_lineno)
        frame = frame.f_back
    return "<kernel loop>"


def _innermost(generator):
    while getattr(generator, "gi_yieldfrom", None) is not None:
        generator = generator.gi_yieldfrom
    return generator


def instrument(ledger: Ledger) -> None:
    timeout_init = kernel.Timeout.__init__
    # An absolute-time wake-up builds its Timeout without __init__; older
    # kernels have none.
    timeout_at = getattr(kernel.Engine, "timeout_at", None)
    schedule = kernel.Engine._schedule
    defer = kernel.Engine._defer
    capture_state = kernel.Engine.capture_state
    step = gw.GatewaySystem.step

    def counted_timeout(self, engine, delay, value=None):
        timeout_init(self, engine, delay, value)
        ledger.add("timeout", _stack_site(sys._getframe(1)))

    def counted_timeout_at(self, when, value=None):
        event = timeout_at(self, when, value)
        ledger.add("timeout", _stack_site(sys._getframe(1)))
        return event

    def counted_schedule(self, event, delay):
        schedule(self, event, delay)
        ledger.add("schedule", _stack_site(sys._getframe(1)))

    def counted_defer(self, callback, event):
        defer(self, callback, event)
        if not ledger.open:
            return
        caller = sys._getframe(1)
        name = caller.f_code.co_name
        if name == "__init__":
            ledger.add("bootstrap", _stack_site(caller))
        elif name == "_resume":
            waiter = _innermost(caller.f_locals["self"]._generator)
            ledger.add("yield-of-processed",
                       f"{_where(waiter.gi_code, waiter.gi_frame.f_lineno)}"
                       f" <- {type(event).__name__}")
        elif isinstance(event, kernel.Process):
            code = event._generator.gi_code
            ledger.add("completion-wake",
                       f"{_where(code, code.co_firstlineno)} (returned)")
        else:
            ledger.add("handoff-wake",
                       f"{_stack_site(caller)} <- {type(event).__name__}")

    def marking_capture_state(self):
        # The harness brackets each measured window with two calls.
        if ledger.step_label is None or ledger.step_label in MEASURED_STEPS:
            ledger.open = not ledger.open
        return capture_state(self)

    def labelled_step(self, label, *args, **kwargs):
        ledger.step_label = label
        try:
            return step(self, label, *args, **kwargs)
        finally:
            ledger.step_label = None
            ledger.open = False

    kernel.Timeout.__init__ = counted_timeout
    if timeout_at is not None:
        kernel.Engine.timeout_at = counted_timeout_at
    kernel.Engine._schedule = counted_schedule
    kernel.Engine._defer = counted_defer
    kernel.Engine.capture_state = marking_capture_state
    gw.GatewaySystem.step = labelled_step


def report(name: str, seed: int, scale: float, top: int) -> int:
    ledger = Ledger()
    instrument(ledger)
    result = e2e.round_runner(name, seed, scale)(0)
    ops = result["ops"]
    total = sum(ledger.counts.values())
    print(f"{name}  seed {seed}  scale {scale}  ops {ops}  "
          f"kernel events/op {total / ops:.3f}  "
          f"(harness: {result['events_per_op']:.3f})")
    by_bucket: Counter = Counter()
    for (bucket, _site), count in ledger.counts.items():
        by_bucket[bucket] += count
    for bucket in BUCKETS:
        print(f"\n{bucket:20s} {by_bucket[bucket] / ops:8.3f} /op  "
              f"{by_bucket[bucket] / max(total, 1):6.1%}")
        sites = [(count, site) for (b, site), count in ledger.counts.items()
                 if b == bucket]
        for count, site in sorted(sites, reverse=True)[:top]:
            print(f"    {count / ops:8.3f}  {site}")
    if abs(total / ops - result["events_per_op"]) > 1e-9:
        print("\nattributed count disagrees with the harness's "
              "kernel_events_per_op", file=sys.stderr)
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Attribute kernel sequence increments per operation.")
    parser.add_argument("workload", choices=sorted(e2e.spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=0.05,
                        help="share of a reference round (default 0.05)")
    parser.add_argument("--top", type=int, default=8,
                        help="call sites listed per bucket")
    args = parser.parse_args()
    return report(args.workload, args.seed, args.scale, args.top)


if __name__ == "__main__":
    sys.exit(main())
