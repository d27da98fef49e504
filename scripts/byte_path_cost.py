#!/usr/bin/env python3
"""What does one logged record cost the simulator on the byte path?

    python scripts/byte_path_cost.py [--records 1600] [--repeats 5] [--smoke]
    (~25 s; ``--smoke`` < 1 s, on a 2-core box)

Stores records of one size back to back through a bare ``Engine`` +
``PcieLink`` + ``WriteCombiningBuffer`` (no platform, no WAL, no gateway)
the way ``BaWAL`` does: ``wc.store`` the record, ``wc.flush`` its range,
then run the kernel dry (the burst wake-up and its ``settle``).  Per
record size, unaligned (back to back from offset 0, so the start walks
every alignment the size allows) and aligned (every record starts a
line), it prints

* wall µs per record of ``store`` / ``flush`` / ``wake+settle``
  (``perf_counter`` brackets; best of ``--repeats`` passes), and
* three exact counts per record, taken on a separate pass so the
  wrappers that count them are not inside the timed region: entries
  handed to ``posted_burst``, ``region.write`` deposits, and posted TLPs.
  The same pass counts two things that must never happen on this shape:
  a settle asking a ``PostedRun`` for its per-TLP ``keys``/``flights``
  (every run is wholly landed or wholly in flight, so its first and last
  keys decide), and a ``bytearray`` built in ``repro.host.wc`` (a log
  append dirties one contiguous range, so no line needs a dirty mask).

A second table puts what is *above* the byte path next to it: one record
of the same size on the wire (20-byte header + payload) through a bare
``Platform`` as ``BaWAL.append_batch([payload])`` + ``commit`` — wall µs
and kernel events per record (9 at 100 B, 10 at 2 100 B), the unaligned
WC + link row beside them.
A third goes one layer up again: a 64 B and a 2 KiB payload logged one
record at a time on a ``ReplicatedBaWAL`` stream of a default
``DevicePool(devices=3)`` (RF 2), as ``append_batch([payload])`` +
``commit`` and as ``append(payload)`` + ``commit`` — wall µs per record,
so the one write path's wrapper cost is metered on any commit.

Read-only use of ``src/``: everything is observed from outside, so the
same script runs on any commit (docs/performance.md, "Ranges, not lines",
has the before/after).  Entries and deposits have ceilings: one of each
per record, two when the record overflows the WC buffer (the store's
evictions, then the flush) — a per-line loop costs more: the per-line
tree 2.50 / 12.88 / 12.88 per 100 / 1060 / 2100 B record, whole-line
runs with masked partial lines 2.50 / 4.82 / 4.82.  Replays and masks
have a ceiling of zero.  TLPs are the model's — one per line a record
touches — and must not move at all.  Lowering a ceiling after a real
cut is the point; raising one needs the reason in the commit that does
it.  The script exits non-zero when one is broken or when landed bytes or
TLP counts are wrong; ``--smoke`` is the small fixed-size pass that
tier-1 runs (``tests/test_meters.py``).

For a before/after, copy it with ``scripts/_meter.py`` into a parent
checkout; on a tree older than "Ranges, not lines" it prints its rows and
then reports the ceilings as broken.  The third table's run-to-run
spread is 5-10 us on a 2-core box (~70-85 us and ~115-145 us per record,
both columns within a few us of each other), so compare medians of
several alternating runs, not one; ``MISMATCH`` there means the quorum
horizon did not reach the tail.

Rows on this tree, burst entries / deposits per record: 1.00 / 1.00 at
100 B, 2.00 / 2.00 at 1 060, 2 048 and 2 100 B (the store's evictions,
then the flush); TLPs unaligned 2.50 / 17.50 / 32.00 / 33.75.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from _meter import best_of, exit_status, wrapped  # noqa: E402  (scripts/_meter.py)
from repro.cluster import DevicePool  # noqa: E402
from repro.host.memory import ByteRegion  # noqa: E402
from repro.host import wc as wc_module  # noqa: E402
from repro.host.wc import WriteCombiningBuffer  # noqa: E402
from repro.pcie.link import PcieLink, PcieParams, PostedRun  # noqa: E402
from repro.platform import Platform  # noqa: E402
from repro.sim import Engine  # noqa: E402
from repro.wal.ba_wal import BaWAL  # noqa: E402
from repro.wal.record import RECORD_HEADER_BYTES  # noqa: E402

SIZES = (100, 1060, 2048, 2100)
WAL_SIZES = (100, 2100)  # logged record sizes of the second table
REPLICATED_SIZES = (64, 2048)  # payload sizes of the third table
WC_LINES = 10  # HostParams.wc_buffer_lines default
LINE = PcieParams().wc_line_bytes


class BytePath:
    """One WC buffer in front of one link and one BAR-target region."""

    def __init__(self, size: int, aligned: bool, records: int) -> None:
        self.engine = Engine()
        self.link = PcieLink(self.engine)
        self.wc = WriteCombiningBuffer(self.link, WC_LINES)
        line = self.wc.line_size
        self.size = size
        self.stride = -(-size // line) * line if aligned else size
        self.records = records
        self.region = ByteRegion("bar1", self.stride * records + line)
        self.payloads = [bytes([index % 251 + 1]) * size for index in range(16)]

    def expected_tlps(self) -> int:
        """Lines the records touch, each counted once per record."""
        line = self.wc.line_size
        return sum((index * self.stride + self.size - 1) // line
                   - index * self.stride // line + 1
                   for index in range(self.records))

    def timed(self) -> tuple[float, float, float]:
        """Seconds spent in store, flush and wake+settle over all records."""
        store, flush, run = self.wc.store, self.wc.flush, self.engine.run
        region, size, payloads = self.region, self.size, self.payloads
        in_store = in_flush = in_settle = 0.0
        offset = 0
        for index in range(self.records):
            data = payloads[index % 16]
            start = perf_counter()
            store(region, offset, data)
            stored = perf_counter()
            flush(region, offset, size)
            flushed = perf_counter()
            run()
            in_settle += perf_counter() - flushed
            in_flush += flushed - stored
            in_store += stored - start
            offset += self.stride
        return in_store, in_flush, in_settle

    def counted(self) -> Counter:
        """Burst entries, ``region.write`` deposits, TLPs, per-TLP replays
        of a posted run and WC-buffer ``bytearray``s over all records."""
        counts = Counter()
        with (wrapped(self.link, "posted_burst",
                      lambda tlps: counts.update(entries=len(tlps))),
              wrapped(self.region, "write",
                      lambda _offset, _data: counts.update(deposits=1)),
              wrapped(PostedRun, "keys",
                      lambda _run: counts.update(replays=1)),
              wrapped(PostedRun, "flights",
                      lambda _run: counts.update(replays=1)),
              wrapped(wc_module, "bytearray",
                      lambda *_args: counts.update(masks=1))):
            self.timed()
        counts["tlps"] = self.link.posted_writes_issued
        return counts

    def landed_image_ok(self) -> bool:
        """Every record landed, and nothing is left buffered or in flight."""
        if len(self.wc) or self.link.in_flight:
            return False
        image = self.region.snapshot()
        return all(
            image[index * self.stride:index * self.stride + self.size]
            == self.payloads[index % 16]
            for index in range(self.records))


def run_ceiling(size: int) -> int:
    """Burst entries (and deposits) one record may cost: the flush posts
    its extent, and a record of more lines than the buffer holds has had
    its head evicted by the store first."""
    return 1 if (size - 2) // LINE + 2 <= WC_LINES else 2


def wal_commit(size: int, records: int) -> tuple[float, float, bool]:
    """Seconds and kernel events per record over ``records`` calls of
    ``append_batch([payload])`` + ``commit`` on a fresh platform, and
    whether all of it ended up durable."""
    platform = Platform(seed=1)
    engine = platform.engine
    wal = BaWAL(engine, platform.api)
    engine.run_process(wal.start())
    engine.run()
    payload = bytes(size - RECORD_HEADER_BYTES)
    sequence = engine.capture_state()["sequence"]
    start = perf_counter()
    for _ in range(records):
        lsns = engine.run_process(wal.append_batch([payload]))
        engine.run_process(wal.commit(lsns[-1]))
    engine.run()
    elapsed = perf_counter() - start
    events = engine.capture_state()["sequence"] - sequence
    return (elapsed / records, events / records,
            wal.durable_lsn == wal.tail_lsn == records * size)


def replicated_commit(size: int, records: int,
                      batch: bool) -> tuple[float, bool]:
    """Seconds per record over ``records`` rounds of
    ``append_batch([payload])`` (``batch``) or ``append(payload)``, each
    followed by ``commit``, on a fresh stream of a default 3-device pool,
    and whether the quorum horizon reached the tail."""
    pool = DevicePool(devices=3, seed=1)
    engine = pool.engine
    stream = engine.run_process(pool.open_stream("wal0", replicas=2))
    engine.run()
    payload = bytes(size)

    def client():
        for _ in range(records):
            if batch:
                lsns = yield from stream.append_batch([payload])
                lsn = lsns[0]
            else:
                lsn = yield from stream.append(payload)
            yield from stream.commit(lsn)

    start = perf_counter()
    engine.run_process(client())
    engine.run()
    elapsed = perf_counter() - start
    return elapsed / records, stream.durable_lsn == stream.tail_lsn > 0


def measure(size: int, aligned: bool, records: int, repeats: int) -> dict:
    best = best_of(repeats, lambda: BytePath(size, aligned, records).timed(),
                   key=sum)
    path = BytePath(size, aligned, records)
    counts = path.counted()
    return {
        "store_us": best[0] / records * 1e6,
        "flush_us": best[1] / records * 1e6,
        "settle_us": best[2] / records * 1e6,
        "entries": counts["entries"] / records,
        "deposits": counts["deposits"] / records,
        "tlps": counts["tlps"] / records,
        "replays": counts["replays"],
        "masks": counts["masks"],
        "ok": counts["tlps"] == path.expected_tlps() and path.landed_image_ok(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Wall-clock and bookkeeping cost of one record on the "
                    "byte path, per record size.")
    parser.add_argument("--records", type=int, default=1600,
                        help="records per pass (default 1600; a multiple of "
                             "16 covers every alignment equally)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed passes per row, best kept (default 5)")
    parser.add_argument("--smoke", action="store_true",
                        help="small fixed pass; checks bytes and TLP counts")
    args = parser.parse_args()
    if args.records < 1 or args.repeats < 1:
        parser.error("--records and --repeats must be >= 1")
    records, repeats = (64, 1) if args.smoke else (args.records, args.repeats)
    print(f"{records} records per pass, best of {repeats}, "
          f"{WC_LINES}-line WC buffer; per record:")
    print(f"{'size':>6} {'':9} {'store':>8} {'flush':>8} {'settle':>8} "
          f"{'total':>8}   {'entries':>8} {'deposits':>8} {'TLPs':>7}")
    failed = 0
    broken = []
    byte_path_us = {}  # unaligned (or line-multiple) row totals, by size
    for size in SIZES:
        # Back to back, a whole number of lines is aligned already.
        for aligned in (False, True) if size % LINE else (True,):
            row = measure(size, aligned, records, repeats)
            total = row["store_us"] + row["flush_us"] + row["settle_us"]
            print(f"{size:>6} {'aligned' if aligned else 'unaligned':9} "
                  f"{row['store_us']:>6.2f}us {row['flush_us']:>6.2f}us "
                  f"{row['settle_us']:>6.2f}us {total:>6.2f}us   "
                  f"{row['entries']:>8.2f} {row['deposits']:>8.2f} "
                  f"{row['tlps']:>7.2f}{'' if row['ok'] else '  MISMATCH'}")
            failed += not row["ok"]
            byte_path_us.setdefault(size, total)
            if max(row["entries"], row["deposits"]) > run_ceiling(size):
                broken.append(
                    f"{size} B {'aligned' if aligned else 'unaligned'}: "
                    f"{row['entries']:.2f} burst entries and "
                    f"{row['deposits']:.2f} deposits per record, ceiling "
                    f"{run_ceiling(size)}")
            if row["replays"] or row["masks"]:
                broken.append(
                    f"{size} B {'aligned' if aligned else 'unaligned'}: "
                    f"{row['replays']} per-TLP replays of a posted run and "
                    f"{row['masks']} bytearrays built in repro.host.wc, "
                    "ceiling 0")
    print("\nabove the byte path: BaWAL.append_batch([payload]) + commit of "
          "one record\nof that size through a bare Platform; per record:")
    print(f"{'size':>6} {'wal':>10} {'byte path':>10} {'above it':>10} "
          f"{'kernel events':>14}")
    for size in WAL_SIZES:
        seconds, events, durable = best_of(
            repeats, lambda: wal_commit(size, records))
        print(f"{size:>6} {seconds * 1e6:>8.2f}us {byte_path_us[size]:>8.2f}us "
              f"{seconds * 1e6 - byte_path_us[size]:>8.2f}us {events:>14.2f}"
              f"{'' if durable else '  MISMATCH'}")
        failed += not durable
    print("\nreplicated stream: one record per append + commit on a "
          "DevicePool(devices=3)\nstream, RF 2; payload size, per record:")
    print(f"{'size':>6} {'append_batch([p])':>18} {'append(p)':>10}")
    for size in REPLICATED_SIZES:
        row = [best_of(repeats, lambda: replicated_commit(size, records, batch))
               for batch in (True, False)]
        print(f"{size:>6} {row[0][0] * 1e6:>16.2f}us {row[1][0] * 1e6:>8.2f}us"
              f"{'' if row[0][1] and row[1][1] else '  MISMATCH'}")
        failed += not (row[0][1] and row[1][1])
    if failed:
        broken.append(f"{failed} row(s): landed bytes, TLP count or durable "
                      "LSN differ from the records stored")
    return exit_status(broken)


if __name__ == "__main__":
    sys.exit(main())
