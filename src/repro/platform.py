"""One-call platform assembly: host + PCIe + devices + power rails.

The examples, benchmarks, and integration tests all need the same wiring:
a simulation engine, a host CPU behind a PCIe link, a 2B-SSD with its API
client, optional plain block SSDs for comparison, and a power controller
for fault injection.  :class:`Platform` packages that.

A platform normally owns its engine, but multi-host topologies (the
``repro.cluster`` device pool) pass a shared ``engine`` so every node's
events interleave on one simulated clock, plus a pre-forked ``rng`` so
node seeds stay independent of node count.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.core import BaParams, PowerController, TwoBApiClient, TwoBSSD
from repro.host import HostCPU
from repro.pcie import PcieLink
from repro.sim import Engine, RngStreams
from repro.ssd import BlockSSD, DeviceProfile, ULL_SSD


@dataclasses.dataclass
class PlatformSnapshot:
    """A platform's full post-warm-up state as plain, picklable data.

    Produced by :meth:`Platform.snapshot` at kernel quiescence and
    consumed by :meth:`Platform.restore` on a *freshly constructed*
    platform of identical configuration (``fingerprint`` guards that).
    Carrying only plain data — no generators, events, or resources — is
    what lets warm state cross process boundaries in the run-matrix
    executor's snapshot cache.
    """

    fingerprint: dict
    engine: dict
    rng: dict
    link: dict
    wc_stats: dict
    api_lines: dict
    outages: int
    devices: list


class Platform:
    """A simulated server with one 2B-SSD and any number of block SSDs."""

    def __init__(self, ba_params: Optional[BaParams] = None, seed: int = 0,
                 engine: Optional[Engine] = None,
                 rng: Optional[RngStreams] = None) -> None:
        self.engine = engine if engine is not None else Engine()
        self.rng = rng if rng is not None else RngStreams(seed)
        self.link = PcieLink(self.engine)
        self.cpu = HostCPU(self.engine, self.link)
        self.device = TwoBSSD(self.engine, ba_params=ba_params,
                              rng=self.rng.fork("2b-ssd"))
        self.api = TwoBApiClient(self.engine, self.cpu, self.device)
        self.power = PowerController(self.engine)
        self.power.attach_cpu(self.cpu)
        self.power.attach_link(self.link)
        self.power.attach_device(self.device)

    def add_block_ssd(self, profile: DeviceProfile = ULL_SSD,
                      name: str = "") -> BlockSSD:
        """Attach another NVMe SSD (e.g. the DC-SSD or ULL-SSD comparator)."""
        device = BlockSSD(self.engine, profile,
                          self.rng.fork(name or f"ssd-{profile.name}"))
        self.power.attach_device(device)
        return device

    # -- warm-state snapshots ------------------------------------------------

    def _fingerprint(self) -> dict:
        """Configuration identity a snapshot is only valid against."""
        return {
            "root_seed": self.rng.root_seed,
            "ba_params": repr(self.device.ba_params),
            "devices": [d.profile.name for d in self.power._devices],
        }

    def snapshot(self) -> PlatformSnapshot:
        """Capture the platform's state at kernel quiescence.

        Legal only once every in-flight operation has completed: run the
        engine dry (and ``drain()`` the devices) first.  The WC buffer
        must be empty too — its lines are keyed by live region objects
        and cannot be serialized; issue a ``wc_flush`` before capturing —
        and so must the link: a posted write still on the wire is in
        neither the CPU nor device memory.
        """
        in_flight = self.link.in_flight
        if in_flight:
            raise RuntimeError(
                f"platform snapshot with {in_flight} posted writes "
                "in flight; issue a write-verify read or run the engine to "
                "quiescence before capturing")
        if not self.engine.quiescent():
            raise RuntimeError(
                "platform snapshot requires a quiescent engine; "
                "run it dry first")
        if len(self.cpu.wc):
            raise RuntimeError(
                f"platform snapshot with {len(self.cpu.wc)} staged WC lines; "
                "wc_flush before capturing")
        wc_stats = self.cpu.wc.stats
        return PlatformSnapshot(
            fingerprint=self._fingerprint(),
            engine=self.engine.capture_state(),
            rng=self.rng.capture_state(),
            link={
                "down_free_at": self.link._down_free_at,
                "last_posted_landing": self.link._last_posted_landing,
                "posted_writes_issued": self.link.posted_writes_issued,
                "read_tlps_issued": self.link.read_tlps_issued,
                "posted_writes_lost": self.link.posted_writes_lost,
            },
            wc_stats={
                "lines_staged": wc_stats.lines_staged,
                "lines_evicted": wc_stats.lines_evicted,
                "lines_flushed": wc_stats.lines_flushed,
                "lines_lost_to_power_failure": wc_stats.lines_lost_to_power_failure,
            },
            api_lines=dict(self.api._lines_since_sync),
            outages=self.power.outages,
            devices=[d.capture_state() for d in self.power._devices],
        )

    def restore(self, snap: PlatformSnapshot) -> None:
        """Adopt ``snap`` on a freshly constructed, identical platform.

        The ordering here is load-bearing:

        1. run the engine at time 0 so every service process (destage
           workers, the FTL background-GC loop) consumes its bootstrap
           and parks;
        2. restore component state, which also primes the NAND batch
           workers that existed at capture;
        3. run the engine again to park those primed workers;
        4. only then advance the kernel clock and sequence counter —
           doing it earlier would strand the time-0 bootstraps behind
           ``now`` and trip the past-continuation invariant.
        """
        self.engine.run()
        if self.engine.now > 0.0:
            raise RuntimeError(
                "snapshot restore requires a freshly constructed platform")
        self.restore_components(snap)
        self.engine.run()
        self.engine.restore_state(snap.engine)

    def restore_components(self, snap: PlatformSnapshot) -> None:
        """Step 2 of :meth:`restore`: adopt component state only, leaving
        the engine dance (run / run / ``restore_state``) to the caller.

        Exists for multi-platform topologies — ``DevicePool.restore``
        restores every node's components between one pair of engine runs
        on the *shared* kernel, then advances the clock exactly once.
        """
        fingerprint = self._fingerprint()
        if fingerprint != snap.fingerprint:
            raise RuntimeError(
                f"snapshot fingerprint mismatch: captured {snap.fingerprint}, "
                f"restoring onto {fingerprint}")
        self.rng.restore_state(snap.rng)
        self.link._down_free_at = snap.link["down_free_at"]
        self.link._last_posted_landing = snap.link["last_posted_landing"]
        self.link.posted_writes_issued = snap.link["posted_writes_issued"]
        self.link.read_tlps_issued = snap.link["read_tlps_issued"]
        self.link.posted_writes_lost = snap.link["posted_writes_lost"]
        wc_stats = self.cpu.wc.stats
        wc_stats.lines_staged = snap.wc_stats["lines_staged"]
        wc_stats.lines_evicted = snap.wc_stats["lines_evicted"]
        wc_stats.lines_flushed = snap.wc_stats["lines_flushed"]
        wc_stats.lines_lost_to_power_failure = (
            snap.wc_stats["lines_lost_to_power_failure"])
        self.api._lines_since_sync = dict(snap.api_lines)
        self.power.outages = snap.outages
        for device, state in zip(self.power._devices, snap.devices):
            device.restore_state(state)
