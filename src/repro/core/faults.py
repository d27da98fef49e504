"""Crash-point fault injection: power failures at arbitrary moments.

:class:`CrashHarness` runs a workload process and cuts the power at a
chosen simulated time — mid-transaction, mid-flush, mid-DMA, wherever the
clock lands.  Crash semantics:

* the host CPU's write-combining buffer and all in-flight PCIe posted
  writes are lost;
* every in-flight process dies (the event queue is purged);
* devices take their power-loss path (PLP destage guarantee, BA-buffer
  emergency dump), then reboot with firmware state rebuilt.

After :meth:`crash_at`, the platform is back up and recovery code can run
on the surviving state.  The property tests in
``tests/test_crash_points.py`` sweep crash times across whole workloads
and assert the durability contract at every single point.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from repro.core.power import PowerLossReport
from repro.sim.engine import Event, Process

if TYPE_CHECKING:
    from repro.platform import Platform


@dataclass
class CrashOutcome:
    """What happened around one injected crash."""

    crash_time: float
    workload_finished: bool
    report: PowerLossReport
    restored: dict
    events_discarded: int


class CrashHarness:
    """Drives workload + crash + reboot on one platform."""

    def __init__(self, platform: "Platform") -> None:
        self.platform = platform
        self.engine = platform.engine

    def crash_at(self, crash_time: float,
                 workload: Optional[Iterator[Event]] = None) -> CrashOutcome:
        """Run ``workload`` (a process generator) until ``crash_time``,
        then cut power, purge in-flight work, and reboot."""
        engine = self.engine
        process: Optional[Process] = None
        if workload is not None:
            process = engine.process(workload, name="crash-workload")
        target = engine.now + crash_time
        engine.run(until=target)
        finished = process is None or process.processed
        report = self.platform.power.power_loss()
        # Fence devices BEFORE purging: dropping the queue's references
        # finalizes in-flight generators immediately, and their cleanup
        # must see the post-crash epoch.
        for device in self.platform.power._devices:
            halt = getattr(device, "halt", None)
            if halt is not None:
                halt()
        discarded = engine.purge()
        # A purged process whose generator sits in a reference cycle is
        # finalized whenever the garbage collector gets to it; its finally
        # blocks release host-side locks, handing them to other dead
        # processes, which would then run on in the rebooted world.
        # Finalize the dead now, while the devices are fenced, and drop
        # whatever their cleanup scheduled.
        gc.collect()
        while not engine.quiescent():
            engine.purge()
            gc.collect()
        for device in self.platform.power._devices:
            reboot = getattr(device, "reboot", None)
            if reboot is not None:
                reboot()
        restored = self.platform.power.power_on()
        return CrashOutcome(
            crash_time=target,
            workload_finished=finished,
            report=report,
            restored=restored,
            events_discarded=discarded,
        )

    def run_to_completion(self, workload: Iterator[Event]):
        """Convenience: run a process to completion (no crash)."""
        return self.engine.run_process(workload)
