"""The recovery manager (§III-A4): BA-buffer persistence across power loss.

On power-loss detection the firmware has one job: dump the BA-buffer and
the mapping table into a reserved NAND area before the capacitors drain.
Whether it succeeds is an energy question — the emergency window bought by
the capacitance versus the bytes to save at the internal dump rate.  With
Table I's 3 x 270 uF the window comfortably covers 8 MiB + metadata; tests
shrink the capacitance to exercise the data-loss path.

On power-up, a saved image is restored into the BA-buffer and the mapping
table, and the image is cleared (it was consumed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.mapping_table import BaMappingTable
from repro.core.params import BaParams
from repro.host.memory import ByteRegion


@dataclass
class _SavedImage:
    """Contents of the reserved NAND area after an emergency dump.  The
    firmware dumps the whole buffer; the model keeps only its pages that
    hold data (``ByteRegion.page_image``), the rest reading as zeros."""

    buffer_image: dict[int, bytes]
    table_snapshot: list[tuple[int, int, int, int]]


@dataclass
class RecoveryStats:
    emergency_dumps: int = 0
    restores: int = 0
    dumps_failed: int = 0

    @property
    def clean_record(self) -> bool:
        return self.dumps_failed == 0


class RecoveryManager:
    """Backs up and restores the BA-buffer across power cycles."""

    def __init__(self, dram: ByteRegion, table: BaMappingTable, params: BaParams) -> None:
        self.dram = dram
        self.table = table
        self.params = params
        self._saved: Optional[_SavedImage] = None
        self.stats = RecoveryStats()

    @property
    def has_saved_image(self) -> bool:
        return self._saved is not None

    def bytes_to_save(self) -> int:
        """Emergency dump size: the whole buffer plus mapping metadata."""
        return self.dram.size + self.params.metadata_bytes

    def emergency_save(self) -> bool:
        """Power-loss path: dump to reserved NAND if the capacitors allow.

        Returns True when the dump completed within the energy budget.
        Runs at power-failure time, so it takes no simulated time from any
        other actor's perspective.
        """
        if self.bytes_to_save() > self.params.emergency_budget_bytes:
            self._saved = None
            self.stats.dumps_failed += 1
            return False
        self._saved = _SavedImage(
            buffer_image=self.dram.page_image(),
            table_snapshot=self.table.to_snapshot(),
        )
        self.stats.emergency_dumps += 1
        return True

    def restore(self) -> bool:
        """Power-up path: restore buffer + table from the reserved area.

        Returns True if an image was restored; with no image (clean
        shutdown or failed dump) the buffer comes up zeroed and the table
        empty.
        """
        if self._saved is None:
            self.dram.clear()
            self.table.restore_snapshot([])
            return False
        self.dram.restore(self._saved.buffer_image)
        self.table.restore_snapshot(self._saved.table_snapshot)
        self._saved = None
        self.stats.restores += 1
        return True
