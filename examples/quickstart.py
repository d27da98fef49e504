"""Quickstart: the dual byte-/block-addressable view of one file.

Walks the 2B-SSD's core trick end to end:

1. write a "file" through the conventional block path;
2. BA_PIN it into the BA-buffer and read it through MMIO;
3. update it through MMIO with byte granularity and make the update
   durable with BA_SYNC (sub-microsecond!);
4. BA_FLUSH it back to NAND and observe the update via block reads;
5. pull the power and watch the capacitor-backed recovery path restore
   everything the durability protocol promised.

Run:  python examples/quickstart.py
"""

from repro.platform import Platform
from repro.sim.units import USEC

PAGE = 4096


def main() -> None:
    platform = Platform(seed=42)
    engine, api, device = platform.engine, platform.api, platform.device

    def scenario():
        print("== 1. block path: write a file at LBA 100")
        yield from device.write(100, b"hello from the block world".ljust(64))

        print("== 2. byte path: BA_PIN the page and read it via MMIO")
        entry = yield from api.ba_pin(0, 0, 100, PAGE)
        data = yield from api.mmio_read(entry, 0, 27)
        print(f"   MMIO read -> {bytes(data)!r}")

        print("== 3. byte-granular durable update (no 4 KiB page write!)")
        start = engine.now
        yield from api.mmio_write(entry, 11, b"the byte  ")
        yield from api.ba_sync(0)
        commit_latency = engine.now - start
        print(f"   8..10-byte update durable in {commit_latency / USEC:.2f} us "
              f"(a DC-SSD block write takes ~17 us)")

        print("== 4. BA_FLUSH: push the buffer contents to NAND")
        yield from api.ba_flush(0)
        data = yield from device.read(100, 27)
        print(f"   block read -> {bytes(data)!r}")

        print("== 5. durability across power loss")
        entry = yield from api.ba_pin(1, 0, 200, PAGE)
        yield from api.mmio_write(entry, 0, b"committed transaction")
        yield from api.ba_sync(1)
        yield from api.mmio_write(entry, 32, b"UNCOMMITTED tail")
        # no BA_SYNC for the tail: it only exists in the CPU's WC buffer.

    engine.run_process(scenario())

    report = platform.power.power_loss()
    restored = platform.power.power_on()
    print(f"   power lost: {report.wc_lines_lost} un-synced WC line(s) destroyed, "
          f"emergency dump ok={report.device_dumps['2B-SSD']}")
    print(f"   power back: BA-buffer image restored={restored['2B-SSD']}")
    committed = device.ba_dram.read(0, 21)
    tail = device.ba_dram.read(32, 16)
    print(f"   committed bytes survived: {committed!r}")
    print(f"   un-synced tail (expected zeros): {tail!r}")
    assert committed == b"committed transaction"
    assert tail == bytes(16)
    print("quickstart OK")


if __name__ == "__main__":
    main()
