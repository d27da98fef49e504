"""The opposite workload (§VI): bulk block writes + tiny byte-path reads.

The paper: "we saw a chance to apply 2B-SSD to the workload of bulk write
as well as small size of read ... The powerful bandwidth of block I/O is
the most perfect way to write bulk data and, with preloading (pinning)
from NAND flash memory to the NVRAM of 2B-SSD, the read latency can be
superb.  Applications need not read the whole page to get only several
bytes."

Scenario: a sensor archive ingests large batches through the block path,
then an interactive dashboard repeatedly samples a few bytes per record.
We compare sampling via block reads (a full 13 us page read per sample)
against MMIO reads from a pinned, preloaded region (~0.3 us per 8-byte
sample).

Run:  python examples/bulk_ingest_read.py
"""

import struct

from repro.platform import Platform
from repro.sim.units import MiB, USEC

PAGE = 4096
RECORD = struct.Struct("<qd")  # (timestamp, reading) = 16 bytes
BATCH_BYTES = 2 * MiB
SAMPLES = 200


def main() -> None:
    platform = Platform(seed=77)
    engine, api, device = platform.engine, platform.api, platform.device

    def scenario():
        # 1. Bulk ingest through the block path at full interface speed.
        batch = b"".join(
            RECORD.pack(1_700_000_000 + i, 20.0 + (i % 50) / 10.0)
            for i in range(BATCH_BYTES // RECORD.size)
        )
        start = engine.now
        yield from device.write(0, batch)
        ingest_time = engine.now - start
        print(f"ingest: {BATCH_BYTES >> 20} MiB via block I/O in "
              f"{ingest_time * 1e3:.2f} ms "
              f"({BATCH_BYTES / ingest_time / 1e9:.2f} GB/s)")

        # 2a. Interactive sampling via block reads: one page per sample.
        start = engine.now
        for i in range(SAMPLES):
            record_offset = (i * 9973 * RECORD.size) % BATCH_BYTES
            page = record_offset // PAGE
            raw = yield from device.read(page, PAGE)
            RECORD.unpack_from(raw, record_offset % PAGE)
        block_time = (engine.now - start) / SAMPLES

        # 2b. Preload (pin) a hot region once, then sample via MMIO.
        hot_bytes = 4 * MiB  # half the BA-buffer holds the hot region
        start = engine.now
        entry = yield from api.ba_pin(0, 0, 0, hot_bytes)
        preload_time = engine.now - start
        start = engine.now
        for i in range(SAMPLES):
            record_offset = (i * 9973 * RECORD.size) % hot_bytes
            raw = yield from api.mmio_read(entry, record_offset, RECORD.size)
            RECORD.unpack(raw)
        mmio_time = (engine.now - start) / SAMPLES
        return block_time, mmio_time, preload_time

    block_time, mmio_time, preload_time = engine.run_process(scenario())
    print(f"sample via block read:  {block_time / USEC:8.2f} us "
          f"(reads a whole 4 KiB page for 16 bytes)")
    print(f"preload (BA_PIN 4 MiB): {preload_time * 1e3:8.2f} ms, once")
    print(f"sample via MMIO read:   {mmio_time / USEC:8.2f} us "
          f"({block_time / mmio_time:.0f}x faster per sample)")
    breakeven = preload_time / (block_time - mmio_time)
    print(f"preload pays for itself after ~{breakeven:,.0f} samples")
    assert mmio_time < block_time / 5
    print("bulk-ingest example OK")


if __name__ == "__main__":
    main()
