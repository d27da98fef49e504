"""NVMe queue pairs: submission/completion queues over the block device.

The paper's devices are NVMe SSDs ("registers to control and operate an
NVMe SSD are defined on the BAR0 address range", §II-B); FIO's queue
depth is a queue-pair property.  This layer models the host-visible
command lifecycle:

1. the host writes a submission-queue entry and rings the doorbell (a
   posted MMIO write to BAR0);
2. the controller fetches and executes the command (the calibrated block
   datapath of :class:`~repro.ssd.device.BlockSSD`);
3. completion is either signalled by an **interrupt** (MSI-X cost) or
   observed by **polling** the completion queue (cheaper per I/O, burns a
   core) — the trade-off of Yang et al. [9] cited in §II-A.

Queue depth emerges naturally: up to ``depth`` commands are in flight per
queue pair, and the sweep benchmark shows small-request bandwidth scaling
with QD exactly as NVMe devices do.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.obs import tracing
from repro.sim import Engine, Resource
from repro.sim.engine import Event
from repro.sim.units import NSEC, USEC
from repro.ssd.device import BlockSSD


class NvmeOpcode(enum.Enum):
    READ = "read"
    WRITE = "write"
    FLUSH = "flush"


class CompletionMode(enum.Enum):
    INTERRUPT = "interrupt"
    POLLING = "polling"


@dataclass(frozen=True)
class NvmeCommand:
    """One submission-queue entry."""

    opcode: NvmeOpcode
    lpn: int = 0
    nbytes: int = 0
    data: Optional[bytes] = None

    def __post_init__(self) -> None:
        if self.opcode is NvmeOpcode.WRITE and self.data is None:
            raise ValueError("WRITE commands carry data")
        if self.opcode is NvmeOpcode.READ and self.nbytes <= 0:
            raise ValueError("READ commands need a positive size")


@dataclass
class NvmeQueueStats:
    submitted: int = 0
    completed: int = 0
    doorbell_writes: int = 0
    interrupts: int = 0
    poll_spins: int = 0


class NvmeQueuePair:
    """One submission/completion queue pair bound to a device."""

    DOORBELL_LATENCY = 100 * NSEC      # posted MMIO write to BAR0
    SQ_ENTRY_LATENCY = 150 * NSEC      # build + copy the 64-byte SQE
    INTERRUPT_LATENCY = 2 * USEC       # MSI-X + ISR + context switch
    POLL_INTERVAL = 1 * USEC           # CQ polling granularity

    def __init__(
        self,
        engine: Engine,
        device: BlockSSD,
        depth: int = 32,
        completion_mode: CompletionMode = CompletionMode.INTERRUPT,
    ) -> None:
        if depth < 1:
            raise ValueError(f"queue depth must be >= 1, got {depth}")
        self.engine = engine
        self.device = device
        self.depth = depth
        self.completion_mode = completion_mode
        self._slots = Resource(engine, capacity=depth)
        self.stats = NvmeQueueStats()

    def submit(self, command: NvmeCommand) -> Iterator[Event]:
        """Process: full command lifecycle; returns READ data (or None).

        Blocks while the submission queue is full (depth commands in
        flight), exactly like a host driver waiting for a free SQE.
        """
        if tracing.enabled:
            _t0 = self.engine.now
        slot = self._slots.request()
        yield slot
        try:
            yield self.engine.timeout(self.SQ_ENTRY_LATENCY + self.DOORBELL_LATENCY)
            self.stats.submitted += 1
            self.stats.doorbell_writes += 1
            result = yield from self._execute(command)
            yield from self._complete()
        finally:
            self._slots.release(slot)
        self.stats.completed += 1
        if tracing.enabled:
            tracing.observe("ssd.nvme.submit", self.engine.now - _t0)
            tracing.count(f"ssd.nvme.{command.opcode.value}")
        return result

    def _execute(self, command: NvmeCommand) -> Iterator[Event]:
        if command.opcode is NvmeOpcode.READ:
            data = yield from self.device.read(command.lpn, command.nbytes)
            return data
        if command.opcode is NvmeOpcode.WRITE:
            yield from self.device.write(command.lpn, command.data)
            return None
        yield from self.device.flush()
        return None

    def _complete(self) -> Iterator[Event]:
        if self.completion_mode is CompletionMode.INTERRUPT:
            yield self.engine.timeout(self.INTERRUPT_LATENCY)
            self.stats.interrupts += 1
        else:
            # Polling observes the CQ entry within one poll interval on
            # average; charge half an interval.
            yield self.engine.timeout(self.POLL_INTERVAL / 2)
            self.stats.poll_spins += 1
        return None

    # -- convenience wrappers ---------------------------------------------------

    def read(self, lpn: int, nbytes: int) -> Iterator[Event]:
        """Process: submit one READ through the queue pair."""
        data = yield from self.submit(NvmeCommand(NvmeOpcode.READ, lpn, nbytes))
        return data

    def write(self, lpn: int, data: bytes) -> Iterator[Event]:
        """Process: submit one WRITE through the queue pair."""
        yield from self.submit(NvmeCommand(NvmeOpcode.WRITE, lpn, data=data))
        return None

    def flush(self) -> Iterator[Event]:
        """Process: submit a FLUSH through the queue pair."""
        yield from self.submit(NvmeCommand(NvmeOpcode.FLUSH))
        return None
