"""Spans and counters over simulated time, keyed by layer.

Usage at an instrumented call site (the pattern every hot path follows)::

    from repro.obs import tracing
    ...
    if tracing.enabled:                       # one flag check, zero cost off
        _t0 = self.engine.now
    ... do the timed work ...
    if tracing.enabled:
        tracing.observe("ssd.nvme.submit", self.engine.now - _t0)

``enabled`` is a plain module-level bool: when tracing is off the only
overhead per call is that check, which keeps benches and tier-1 tests at
their calibrated timing.  Span durations are *simulated* seconds
(``engine.now`` deltas), the same clock every figure in the paper is
plotted against.

Spans land in per-name :class:`~repro.obs.histogram.LatencyHistogram`
instances inside the active :class:`Tracer`; counters are plain named
integers.  ``activated(tracer)`` scopes enablement for tests and the
``repro trace`` CLI.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

from repro.obs.histogram import HistogramSnapshot, LatencyHistogram

# The module-level enable flag every call site checks. Mutated only via
# enable()/disable()/activated(); call sites read `tracing.enabled`.
enabled: bool = False


class Tracer:
    """A named collection of latency histograms and counters."""

    def __init__(self) -> None:
        self.histograms: dict[str, LatencyHistogram] = {}
        self.counters: dict[str, int] = {}

    def observe(self, name: str, seconds: float) -> None:
        """Record one span duration under ``name``."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = LatencyHistogram()
        histogram.record(seconds)

    def count(self, name: str, delta: int = 1) -> None:
        """Bump the named counter."""
        self.counters[name] = self.counters.get(name, 0) + delta

    def reset(self) -> None:
        self.histograms.clear()
        self.counters.clear()

    def snapshot(self) -> dict:
        """JSON-serializable view: histogram summaries + buckets + counters."""
        return {
            "histograms": {
                name: histogram.snapshot().to_dict()
                for name, histogram in sorted(self.histograms.items())
            },
            "counters": dict(sorted(self.counters.items())),
        }

    def absorb(self, payload: dict) -> None:
        """Fold a :meth:`snapshot` payload (possibly from another process)
        into this tracer.

        The run-matrix executor ships each leg's tracer across the
        process boundary as its snapshot dict and absorbs them in leg
        order; histogram merging is bucket-count addition, so absorbing
        partitions of a workload in a fixed order reproduces the
        serial-run tracer exactly.
        """
        for name, data in payload.get("histograms", {}).items():
            incoming = HistogramSnapshot.from_dict(data)
            histogram = self.histograms.get(name)
            if histogram is None:
                self.histograms[name] = LatencyHistogram.from_snapshot(incoming)
            else:
                merged = histogram.snapshot().merge(incoming)
                self.histograms[name] = LatencyHistogram.from_snapshot(merged)
        for name, delta in payload.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + delta

    def merged_snapshot(self, name_prefix: str = "") -> HistogramSnapshot:
        """One histogram folding every span whose name starts with the prefix
        (e.g. ``"wal."`` merges all WAL backends' commit distributions)."""
        merged: Optional[HistogramSnapshot] = None
        for name, histogram in self.histograms.items():
            if not name.startswith(name_prefix):
                continue
            snap = histogram.snapshot()
            merged = snap if merged is None else merged.merge(snap)
        if merged is None:
            raise KeyError(f"no histograms under prefix {name_prefix!r}")
        return merged


_tracer = Tracer()


def get_tracer() -> Tracer:
    """The tracer instrumented call sites currently write to."""
    return _tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the active tracer; returns the previous one."""
    global _tracer
    previous, _tracer = _tracer, tracer
    return previous


def enable(tracer: Optional[Tracer] = None) -> Tracer:
    """Turn instrumentation on (optionally onto a fresh tracer)."""
    global enabled
    if tracer is not None:
        set_tracer(tracer)
    enabled = True
    return _tracer


def disable() -> None:
    global enabled
    enabled = False


def observe(name: str, seconds: float) -> None:
    _tracer.observe(name, seconds)


def count(name: str, delta: int = 1) -> None:
    _tracer.count(name, delta)


@contextlib.contextmanager
def activated(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Scope: enable tracing (onto ``tracer`` or a fresh one), restore the
    previous flag and tracer on exit.  The way tests and the CLI opt in."""
    global enabled
    previous_flag = enabled
    previous_tracer = set_tracer(tracer if tracer is not None else Tracer())
    enabled = True
    try:
        yield _tracer
    finally:
        enabled = previous_flag
        set_tracer(previous_tracer)


class _Span:
    """Context manager measuring one engine-clock interval."""

    __slots__ = ("name", "engine", "_start")

    def __init__(self, name: str, engine) -> None:
        self.name = name
        self.engine = engine
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = self.engine.now
        return self

    def __exit__(self, exc_type, *_exc) -> None:
        # A killed process (cancelled by a kernel purge, or an abandoned
        # generator closed when it is dropped) unwinds through the span
        # via GeneratorExit: the interval never completed, and by then
        # the recording scope may be gone — observing would write a
        # garbage sample into whoever owns the tracer *now*.  Record only
        # completed spans, and only while tracing is still on.
        if exc_type is not GeneratorExit and enabled:
            _tracer.observe(self.name, self.engine.now - self._start)


class _NoopSpan:
    """Shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *_exc) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


def span(name: str, engine):
    """A span over simulated time: ``with tracing.span("core.api.ba_pin",
    engine): ...``.  Returns a shared no-op when tracing is disabled, so
    disabled-mode spans allocate nothing and record nothing."""
    if not enabled:
        return _NOOP_SPAN
    return _Span(name, engine)
