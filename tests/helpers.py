"""Shared test fixtures: assembled platforms (engine + host + devices)."""

from repro.core import BaParams
from repro.db.lsm import DeviceTableStorage, LSMTree
from repro.platform import Platform as _LibraryPlatform
from repro.ssd import ULL_SSD
from repro.wal import BaWAL


class Platform(_LibraryPlatform):
    """Library platform with the seed defaults the tests were written for."""

    def __init__(self, ba_params=None, seed=5):
        super().__init__(ba_params=ba_params, seed=seed)

    def add_block_ssd(self, profile=ULL_SSD, seed=7):
        return super().add_block_ssd(profile, name=f"test-ssd-{seed}")


def small_ba_params(buffer_kib=64, max_entries=8):
    """A small BA-buffer so segment-recycling paths trigger quickly."""
    return BaParams(buffer_bytes=buffer_kib * 1024, max_entries=max_entries)


def dual_path_lsm(platform, rng, start_wal=True, area_pages=4096, **tree_kwargs):
    """An ``LSMTree`` on the platform's one 2B-SSD: WAL on the byte path,
    SSTables on the block path right after the log area.  ``start_wal=False``
    is the reopen after a power loss: ``tree.recover()`` brings the log up."""
    engine = platform.engine
    wal = BaWAL(engine, platform.api, area_pages=area_pages)
    if start_wal:
        engine.run_process(wal.start())
    storage = DeviceTableStorage(engine, platform.device, base_lpn=area_pages)
    return LSMTree(engine, wal, storage, rng=rng, **tree_kwargs)


def read_page(array, ppn):
    """Process: read one page of a ``FlashArray`` as a single op: reserve
    its die slot now, then run the timed body; returns its contents."""
    return (yield from array._read(array._reserve_read(ppn)))


def program_page(array, ppn, data):
    """Process: program one page of a ``FlashArray`` as a single op:
    reserve its die slot now, then run the timed body."""
    yield from array._program(array._reserve_program(ppn, data))
