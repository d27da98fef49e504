"""The 2B-SSD device: an ULL-class block SSD plus the byte path.

Composes every §III component over the block device of
:mod:`repro.ssd.device`:

* BAR manager — a second BAR (BAR1) whose window the ATU redirects into
  the BA-buffer region of the internal DRAM;
* BA-buffer manager — mapping table + internal DRAM<->NAND datapath;
* LBA checker — installed as the block path's ``lba_gate``;
* read DMA engine;
* recovery manager — capacitor-backed persistence of the BA-buffer.
"""

from __future__ import annotations

from typing import Optional

from repro.core.ba_buffer import BaBufferManager
from repro.core.lba_checker import LbaChecker
from repro.core.mapping_table import BaMappingTable
from repro.core.params import BaParams
from repro.core.read_dma import ReadDmaEngine
from repro.core.recovery import RecoveryManager
from repro.host.memory import ByteRegion
from repro.pcie.bar import BarWindow
from repro.sim import Engine, Resource, RngStreams
from repro.ssd.device import BlockSSD
from repro.ssd.profiles import DeviceProfile, TWOB_BASE

# Host physical address the BIOS assigns to BAR1 in our memory map.
BAR1_HOST_BASE = 0x9000_0000


class TwoBSSD(BlockSSD):
    """Dual byte- and block-addressable SSD (the paper's contribution)."""

    def __init__(
        self,
        engine: Engine,
        profile: DeviceProfile = TWOB_BASE,
        ba_params: Optional[BaParams] = None,
        rng: Optional[RngStreams] = None,
    ) -> None:
        super().__init__(engine, profile, rng)
        self.ba_params = ba_params or BaParams(page_size=profile.geometry.page_size)
        if self.ba_params.page_size != profile.geometry.page_size:
            raise ValueError(
                f"BA page size {self.ba_params.page_size} must match device "
                f"page size {profile.geometry.page_size}"
            )
        # BAR manager: BAR1 window, write-combining, ATU into the BA-buffer.
        self.bar1 = BarWindow(
            index=1,
            host_base=BAR1_HOST_BASE,
            size=self.ba_params.buffer_bytes,
            device_base=0,
            write_combining=True,
        )
        # The BA-buffer: the DRAM capacity reserved for the byte path.
        self.ba_dram = ByteRegion("ba-buffer", self.ba_params.buffer_bytes)
        self.mapping_table = BaMappingTable(
            self.ba_params.buffer_bytes, self.ba_params.max_entries,
            self.ba_params.page_size,
        )
        self.ba_manager = BaBufferManager(
            engine, self, self.ba_dram, self.ba_params, self.mapping_table
        )
        self.read_dma = ReadDmaEngine(engine, self.ba_dram, self.ba_params)
        self.recovery = RecoveryManager(self.ba_dram, self.mapping_table, self.ba_params)
        self.lba_gate = LbaChecker(self.mapping_table)

    # -- state capture ---------------------------------------------------------

    def capture_state(self) -> dict:
        """Snapshot the block half plus every byte-path component."""
        if self.recovery.has_saved_image:
            raise RuntimeError(
                "capture with a pending recovery image is unsupported")
        state = super().capture_state()
        state["ba_dram"] = self.ba_dram.page_image()
        state["mapping_table"] = self.mapping_table.to_snapshot()
        state["ba_stats"] = {
            "pins": self.ba_manager.stats.pins,
            "flushes": self.ba_manager.stats.flushes,
            "pages_pinned": self.ba_manager.stats.pages_pinned,
            "pages_flushed": self.ba_manager.stats.pages_flushed,
        }
        state["lba_gate_stats"] = {
            "checks": self.lba_gate.stats.checks,
            "gated": self.lba_gate.stats.gated,
        }
        state["read_dma_stats"] = {
            "transfers": self.read_dma.stats.transfers,
            "bytes_copied": self.read_dma.stats.bytes_copied,
        }
        state["recovery_stats"] = {
            "emergency_dumps": self.recovery.stats.emergency_dumps,
            "restores": self.recovery.stats.restores,
            "dumps_failed": self.recovery.stats.dumps_failed,
        }
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self.ba_dram.restore(state["ba_dram"])
        self.mapping_table.restore_snapshot(state["mapping_table"])
        for section, stats in (
            ("ba_stats", self.ba_manager.stats),
            ("lba_gate_stats", self.lba_gate.stats),
            ("read_dma_stats", self.read_dma.stats),
            ("recovery_stats", self.recovery.stats),
        ):
            for name, value in state[section].items():
                setattr(stats, name, value)

    # -- power behaviour -------------------------------------------------------

    def power_loss(self) -> bool:
        """Power failure: PLP destages the block cache (inherited) and the
        recovery manager dumps the BA-buffer.  Returns dump success."""
        super().power_loss()
        saved = self.recovery.emergency_save()
        # Whatever happens, DRAM itself is volatile: model the loss.
        self.ba_dram.clear()
        self.mapping_table.restore_snapshot([])
        return saved

    def power_on(self) -> bool:
        """Power-up: restore the BA-buffer and mapping table if an
        emergency image exists.  Returns True when an image was restored."""
        return self.recovery.restore()

    def reboot(self) -> None:
        """Restart firmware: block-path state plus the byte-path engines
        (firmware core / DMA channel whose holders died with the crash)."""
        super().reboot()
        self.ba_manager._firmware_core = Resource(self.engine)
        self.read_dma._channel = Resource(self.engine)
