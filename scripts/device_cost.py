#!/usr/bin/env python3
"""What does one firmware job of the 2B-SSD cost the simulator?

    python scripts/device_cost.py [--repeats 7] [--smoke]
    (~2 s; ``--smoke`` < 2 s, on a 2-core box)

The BA-buffer firmware (``BA_PIN`` / ``BA_FLUSH``, §III-A2) and the block
path's TRIM run under every log segment recycle, every ``BaWAL.start()``
and every gateway start-up.  For one operation on a fresh bare
``Platform`` (seed 1) this prints

* wall ms (``perf_counter`` brackets around the operation alone, the
  platform built outside them; best of ``--repeats``),
* kernel events (``engine._sequence`` increments, the driving process
  included), simulated µs, and Python opcodes (``_meter.opcodes``: exact,
  but a call into C counts as one opcode however much it does),

for five operations:

* ``BA_PIN`` of 1 MiB that was never written — no data moves, only
  firmware bookkeeping (the path segment recycling relies on);
* ``BA_PIN`` of 1 MiB written through the block path and destaged, so
  the pin reads NAND;
* ``BA_FLUSH`` of a pinned 1 MiB entry;
* ``TRIM`` of 8 MiB never written (``BlockSSD.trim``, no simulated time);
* ``BaWAL.start()`` on a 2 048-page log area — two 4 MiB never-written pins.

Read-only use of ``src/``: the same script runs on any commit
(docs/performance.md, "Firmware pacing on a clock", has the before and
after).  The landed bytes are checked, and a never-written 1 MiB pin
above 4 kernel events, a 1 MiB flush above 1 733 or a ``BaWAL.start()``
above 8 breaks a ceiling: the script then exits non-zero.  ``--smoke``
times one pass (< 2 s); tier-1 runs it (``tests/test_meters.py``).  Copy
it with ``scripts/_meter.py`` into a parent checkout for a before/after:
on a tree older than "Firmware pacing on a clock" it prints 514 / 1988 /
1988 / 0 / 4099 events and reports those ceilings as broken.

Rows on this tree, kernel events / simulated µs: 4 / 59.2, 1733 /
500.114, 1733 / 596.058, 0 / 0, 7 / 425.6 (2-core box wall: ~0.11, ~5.5,
~4.4, ~0.004, ~0.5 ms).
"""

from __future__ import annotations

import argparse
import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from _meter import best_of, exit_status, opcodes  # noqa: E402  (scripts/_meter.py)
from repro.platform import Platform  # noqa: E402
from repro.wal import BaWAL  # noqa: E402

MiB = 1 << 20
PAGE = 4096
LBA = 4096                      # clear of BaWAL's area at LBA 0
PATTERN = bytes(range(256)) * (MiB // 256)


def pin_never_written():
    platform = Platform(seed=1)
    api = platform.api

    def op():
        platform.engine.run_process(api.ba_pin(0, 0, LBA, MiB))

    return platform.engine, op, (
        lambda: platform.device.ba_dram.read(0, MiB) == bytes(MiB))


def pin_written():
    platform = Platform(seed=1)
    engine, api, device = platform.engine, platform.api, platform.device
    engine.run_process(device.write(LBA, PATTERN))
    engine.run()                # destaged: the pin reads NAND

    def op():
        engine.run_process(api.ba_pin(0, 0, LBA, MiB))

    return engine, op, lambda: device.ba_dram.read(0, MiB) == PATTERN


def flush():
    platform = Platform(seed=1)
    engine, api, device = platform.engine, platform.api, platform.device
    engine.run_process(api.ba_pin(0, 0, LBA, MiB))
    device.ba_dram.write(0, PATTERN)

    def op():
        engine.run_process(api.ba_flush(0))
        engine.run()

    return engine, op, lambda: all(
        device.ftl.peek(LBA + index) == PATTERN[index * PAGE:(index + 1) * PAGE]
        for index in range(MiB // PAGE))


def trim_never_written():
    platform = Platform(seed=1)
    device = platform.device

    def op():
        device.trim(LBA, 8 * MiB // PAGE)

    return platform.engine, op, lambda: device.ftl.map.lookup(LBA) is None


def bawal_start():
    platform = Platform(seed=1)
    engine = platform.engine
    wal = BaWAL(engine, platform.api, area_pages=2048)

    def op():
        engine.run_process(wal.start())

    return engine, op, lambda: len(platform.device.mapping_table) == 2


ROWS = {
    "BA_PIN 1 MiB, never written": pin_never_written,
    "BA_PIN 1 MiB, written": pin_written,
    "BA_FLUSH 1 MiB": flush,
    "TRIM 8 MiB, never written": trim_never_written,
    "BaWAL.start(), 2 048-page area": bawal_start,
}
CEILINGS = {                    # kernel events
    "BA_PIN 1 MiB, never written": 4,
    "BA_FLUSH 1 MiB": 1733,
    "BaWAL.start(), 2 048-page area": 8,
}


def wall_ms(build) -> float:
    _engine, op, _landed = build()
    started = perf_counter()
    op()
    return (perf_counter() - started) * 1e3


def measure(build, repeats: int) -> dict:
    engine, op, landed = build()
    sequence, now = engine._sequence, engine.now
    op()
    events, sim_us = engine._sequence - sequence, (engine.now - now) * 1e6
    _engine, op, _landed = build()
    _result, count = opcodes(op)
    return {"wall": best_of(repeats, lambda: wall_ms(build)),
            "events": events, "sim_us": sim_us, "opcodes": count,
            "landed": landed()}


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Wall time, kernel events, simulated time and Python "
                    "opcodes of one BA_PIN / BA_FLUSH / TRIM / BaWAL.start().")
    parser.add_argument("--repeats", type=int, default=7,
                        help="wall-clock passes per row, best kept (default 7)")
    parser.add_argument("--smoke", action="store_true",
                        help="one wall-clock pass per row")
    args = parser.parse_args()
    repeats = 1 if args.smoke else args.repeats

    print(f"One operation on a bare Platform (seed 1); wall: best of "
          f"{repeats}; opcodes: a call into C counts as one.")
    print(f"  {'':<32}{'wall ms':>9}{'events':>9}{'sim us':>10}{'opcodes':>10}")
    broken = []
    for name, build in ROWS.items():
        row = measure(build, repeats)
        print(f"  {name:<32}{row['wall']:>9.3f}{row['events']:>9}"
              f"{row['sim_us']:>10.3f}{row['opcodes']:>10}")
        if not row["landed"]:
            broken.append(f"{name}: the bytes did not land")
        ceiling = CEILINGS.get(name)
        if ceiling is not None and row["events"] > ceiling:
            broken.append(f"{name}: {row['events']} kernel events, "
                          f"ceiling {ceiling}")
    return exit_status(broken)


if __name__ == "__main__":
    sys.exit(main())
