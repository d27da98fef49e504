#!/usr/bin/env python3
"""What does one firmware job of the 2B-SSD cost the simulator?

    python scripts/device_cost.py [--repeats 7] [--smoke]
    (~4 s; ``--smoke`` < 2 s, on a 2-core box)

The BA-buffer firmware (``BA_PIN`` / ``BA_FLUSH``, §III-A2) and the block
path's TRIM run under every log segment recycle, every ``BaWAL.start()``
and every gateway start-up.  For one operation on a fresh bare
``Platform`` (seed 1) this prints

* wall ms (``perf_counter`` brackets around the operation alone, the
  platform built outside them; best of ``--repeats``),
* kernel events (``engine._sequence`` increments, the driving process
  included), simulated µs, and Python opcodes (``_meter.opcodes``: exact,
  but a call into C counts as one opcode however much it does),

for six operations:

* ``BA_PIN`` of 1 MiB that was never written — no data moves, only
  firmware bookkeeping (the path segment recycling relies on);
* ``BA_PIN`` of 1 MiB written through the block path and destaged, so
  the pin reads NAND;
* ``BA_FLUSH`` of a pinned 1 MiB entry;
* ``TRIM`` of 8 MiB never written (``BlockSSD.trim``, no simulated time);
* ``BaWAL.start()`` on a 2 048-page log area — two 4 MiB never-written pins;
* GC of one full victim: after 4 097 pages written through the block
  path and destaged (a block's worth on each of the 64 dies, plus one
  that closes die 0's first block), ``_pick_victim()`` and
  ``_relocate_block`` move its 64 valid pages and erase it.

Read-only use of ``src/``: the same script runs on any commit
(docs/performance.md, "Firmware pacing on a clock", has the before and
after).  The landed bytes are checked, and a never-written 1 MiB pin
above 4 kernel events, a written one above 1 669, a 1 MiB flush above
1 561 or a ``BaWAL.start()`` above 8 breaks a ceiling, as does a GC of one full victim above 698
events or 1 626.710 simulated µs, a written 1 MiB pin above 513 015
opcodes or a 1 MiB flush above 536 443 (the NAND page path's cost,
CPython 3.11): the script then exits non-zero.  The GC's landed check is
that every written page peeks its bytes and ``check_consistency()``
passes.  ``--smoke``
times one pass (< 2 s); tier-1 runs it (``tests/test_meters.py``).  Copy
it with ``scripts/_meter.py`` into a parent checkout for a before/after:
on a tree older than "Firmware pacing on a clock" it prints 514 / 1988 /
1988 / 0 / 4099 events and reports those ceilings as broken.

Rows on this tree, kernel events / simulated µs / opcodes: 4 / 59.2 /
28 302, 1669 / 500.114 / 504 058, 1561 / 596.058 / 516 420, 0 / 0 / 164,
7 / 425.6 / 156 800, 698 / 1 626.710 / 231 690 (2-core box wall: ~0.2,
~8, ~8, ~0.01, ~1, ~3 ms; ``--smoke`` ~1.2 s, the GC row's set-up
~0.4 s of it).  Before GC relocated through one read batch and one
program batch, the GC row ran page by page: 515 events and 8 245.559
simulated µs (relocation 7 257.1 µs, now 638.2; the erase is 988.5 µs
on both), and breaks the GC ceilings.
Before the NAND page path had one timed body per operation the two
NAND-heavy rows ran 508 043 and 529 615 opcodes; before a purge became
the one crash rule (no ``Resource`` retire check on every release, one
registry insert and delete per process) they ran 513 015 and 536 443.
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


def gc_full_victim():
    platform = Platform(seed=1)
    engine, device = platform.engine, platform.device
    ftl = device.ftl
    geometry = ftl.flash.geometry
    # One page per die more than a block's worth on every die: the last
    # page closes die 0's first block, full of 64 valid pages.
    npages = geometry.channels * geometry.dies_per_channel * geometry.pages_per_block + 1
    pages = [bytes([lpn % 251]) * PAGE for lpn in range(npages)]
    engine.run_process(device.write(0, b"".join(pages)))
    engine.run()                # destaged

    def op():
        _valid, key = ftl._pick_victim()
        engine.run_process(ftl._relocate_block(key))

    def landed():
        ftl.check_consistency()
        return all(ftl.peek(lpn) == page for lpn, page in enumerate(pages))

    return engine, op, landed


ROWS = {
    "BA_PIN 1 MiB, never written": pin_never_written,
    "BA_PIN 1 MiB, written": pin_written,
    "BA_FLUSH 1 MiB": flush,
    "TRIM 8 MiB, never written": trim_never_written,
    "BaWAL.start(), 2 048-page area": bawal_start,
    "GC of one full victim": gc_full_victim,
}
CEILINGS = {                    # kernel events
    "BA_PIN 1 MiB, never written": 4,
    "BA_PIN 1 MiB, written": 1669,
    "BA_FLUSH 1 MiB": 1561,
    "BaWAL.start(), 2 048-page area": 8,
    "GC of one full victim": 698,
}
SIM_CEILINGS = {                # simulated µs
    "GC of one full victim": 1626.710,
}
OPCODE_CEILINGS = {             # Python opcodes, CPython 3.11
    "BA_PIN 1 MiB, written": 513015,
    "BA_FLUSH 1 MiB": 536443,
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
                    "opcodes of one BA_PIN / BA_FLUSH / TRIM / BaWAL.start() / GC.")
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
        ceiling = SIM_CEILINGS.get(name)
        if ceiling is not None and row["sim_us"] > ceiling:
            broken.append(f"{name}: {row['sim_us']:.3f} simulated us, "
                          f"ceiling {ceiling}")
        ceiling = OPCODE_CEILINGS.get(name)
        if ceiling is not None and row["opcodes"] > ceiling:
            broken.append(f"{name}: {row['opcodes']} opcodes, "
                          f"ceiling {ceiling}")
    return exit_status(broken)


if __name__ == "__main__":
    sys.exit(main())
