#!/usr/bin/env python3
"""What does one ``BaWAL.recover`` ask of the device?

    python scripts/recover_cost.py [--smoke] [--seed 1]
    (~3 s; ``--smoke`` ~1 s, on a 2-core box)

Recovery is off the serving path, so its cost shows in one number only —
``sim_recover_ms`` — and in time-to-repair (failover and degrade run the
same scan).  This prints where that number comes from, as block reads
counted from outside (a wrapper on ``BlockSSD.read``; a read of one page
is a *probe* of a slot's first record header, anything longer a segment
*body*) with the simulated milliseconds beside them:

* fixed device states at one shape (64 KiB BA-buffer, 32 KiB segments,
  16-slot area, 1 000-byte records, power-cycled before recovery): the
  live log in the two restored halves; the power cut while segment 0 is
  still flushing (both halves live, the slot after them never written);
  ``k`` = 1, 3 and 6 sealed NAND segments + the halves; ``start_lsn``
  inside the last sealed segment; a wrapped log asked for LSN 0
  (the every-slot fallback) and for its oldest surviving segment;
* a default 3-node ``GatewayServer`` after ~1 000 4 KiB SETs: each shard's
  log scan alone, one after the other, then ``server.recover()`` — which
  issues the three scans together;
* without ``--smoke``, one ``lsm-dual`` round of the end-to-end benchmark
  (``benchmarks/e2e/harness``, ``--seed``, the ``--rounds 1`` shape):
  reads, bytes and records replayed between ``LSMTree.recover`` starting
  and the first ``get`` after it — manifest and SSTable reads included,
  the reads that fall inside the log area counted apart.

Read-only use of ``src/`` and ``benchmarks/e2e``: the same script runs on
any commit (docs/performance.md, "Recovery reads the log, not the area",
has the before/after).  Every row returns exactly the records it logged
from ``start_lsn`` on.  Ceilings: no read at all for a log that sits in
the halves, one one-page probe after a cut mid-flush; one probe (of the
segment's first page) and one body (the rest of it) per sealed segment
read — ``k`` of each for ``k`` sealed segments, one of each from inside
the last; the fallback at most one read per slot plus one lap of probes,
and no fallback from the oldest surviving segment; ``server.recover()``
within 1 us of its slowest shard; the ``lsm-dual`` recovery — its live
log sits in the halves — at most one page of its log area.  Lowering a
ceiling after a real cut is the point; raising one needs the reason in
the commit that does it.  The script exits non-zero when one is broken:
on a tree older than "Recovery reads the log, not the area" it prints 14
bodies on every row, 6.1136 ms for both gateway figures and 30 log-area
reads, and says so.  ``--smoke`` skips the ``lsm-dual`` round (~1 s);
tier-1 runs it (``tests/test_meters.py``).  Copy it with
``scripts/_meter.py`` into a parent checkout for a before/after.

Rows on this tree (records / probes / bodies / bytes / sim ms): halves
16 / 0 / 0 / 0 / 0.0004; cut mid-flush 33 / 1 / 0 / 4096 / 0.0136;
1, 3 and 6 sealed 37 / 1 / 1 / 32768 / 0.0344, 101 / 3 / 3 / 98304 /
0.1025 and 197 / 6 / 6 / 196608 / 0.2046; start in the last sealed
33 / 1 / 1 / 32768 / 0.0344; wrapped fallback 453 / 1 / 14 / 462848 /
0.3235, from the oldest surviving 453 / 14 / 14 / 458752 / 0.4770.
Gateway: 0.3519 ms per shard one by one, 1.0556 ms in all, and 0.3519 ms
for ``server.recover()``.
``lsm-dual`` at seed 1: 20 device reads, 4 648 960 bytes (none in the
log area), 30 records replayed, 0.2669 ms.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from _meter import exit_status, wrapped  # noqa: E402  (scripts/_meter.py)
from repro.cluster import DevicePool  # noqa: E402
from repro.core import BaParams, CrashHarness  # noqa: E402
from repro.db.lsm import LSMTree  # noqa: E402
from repro.db.lsm import tree as tree_module  # noqa: E402
from repro.db.memkv.commands import Command  # noqa: E402
from repro.gateway import GatewayConfig, GatewayServer  # noqa: E402
from repro.gateway.protocol import FrameDecoder, encode_request  # noqa: E402
from repro.platform import Platform  # noqa: E402
from repro.ssd.device import BlockSSD  # noqa: E402
from repro.wal.ba_wal import BaWAL  # noqa: E402
from repro.wal.record import RECORD_HEADER_BYTES  # noqa: E402

PAGE = 4096
BUFFER_BYTES = 64 * 1024
AREA_PAGES = 128
PAYLOAD = 1000
RECORD = RECORD_HEADER_BYTES + PAYLOAD
PER_SEGMENT = (BUFFER_BYTES // 2) // RECORD
SLOTS = AREA_PAGES * PAGE // (BUFFER_BYTES // 2)

GATEWAY_CLIENTS = 8
GATEWAY_SETS = 125        # per client, closed loop
GATEWAY_VALUE = bytes(4096)


@contextmanager
def counted():
    """Tally every ``BlockSSD.read`` issued while ``tally["on"]`` is set."""
    tally = Counter()

    def before(device, lpn, nbytes):
        if tally["on"]:
            tally["probes" if nbytes == device.page_size else "bodies"] += 1
            tally["bytes"] += nbytes
            if lpn < tally["log_pages"]:
                tally["log_reads"] += 1
                tally["log_bytes"] += nbytes

    with wrapped(BlockSSD, "read", before):
        yield tally


def started():
    platform = Platform(ba_params=BaParams(buffer_bytes=BUFFER_BYTES), seed=1)
    wal = BaWAL(platform.engine, platform.api, area_pages=AREA_PAGES)
    platform.engine.run_process(wal.start())
    return platform, wal


def logged(records: int):
    """A power-cycled platform whose log holds ``records`` records."""
    platform, wal = started()
    engine = platform.engine

    def load():
        for index in range(records):
            end = yield from wal.append(bytes([index % 251]) * PAYLOAD)
            yield from wal.commit(end)
            # A consumer that truncates each committed record: the
            # wrapped row needs the area to recycle.
            wal.low_water_lsn = end

    engine.run_process(load())
    engine.run()
    platform.power.power_cycle()
    return platform


def cut_mid_flush():
    """A platform whose power was cut while segment 0 was still flushing:
    both restored halves hold live records (``PER_SEGMENT + 1`` of them
    durable), the slot after them was never written."""
    platform, wal = started()
    engine = platform.engine

    def load():
        for index in range(2 * PER_SEGMENT):
            end = yield from wal.append(bytes([index % 251]) * PAYLOAD)
            yield from wal.commit(end)

    engine.process(load())
    while wal.durable_lsn <= wal.segment_bytes:
        engine.step()
    CrashHarness(platform).crash_at(0.0)
    return platform


def scan(platform, start_lsn: int = 0) -> dict:
    engine = platform.engine
    fresh = BaWAL(engine, platform.api, area_pages=AREA_PAGES)
    with counted() as tally:
        tally["on"] = 1
        started = engine.now
        records = engine.run_process(fresh.recover(start_lsn))
    return {"records": len(records), "probes": tally["probes"],
            "bodies": tally["bodies"], "bytes": tally["bytes"],
            "ms": (engine.now - started) * 1e3}


def gateway_row() -> dict:
    pool = DevicePool(devices=3, seed=1)
    engine = pool.engine
    server = GatewayServer(pool, GatewayConfig())
    engine.run_process(server.start())

    def client(client_id: int):
        conn = yield from server.accept()
        decoder = FrameDecoder()
        for index in range(GATEWAY_SETS):
            conn.c2s.send(encode_request(
                Command.SET, f"c{client_id}-k{index % 64}", GATEWAY_VALUE))
            while not decoder.feed((yield conn.s2c.recv(4096))):
                pass

    engine.run(until=engine.all_of(
        [engine.process(client(index)) for index in range(GATEWAY_CLIENTS)]))
    engine.run()
    serial = []
    for shard in server.shards:
        started = engine.now
        engine.run_process(shard.stream.recover())
        serial.append((engine.now - started) * 1e3)
    keys = [len(shard.data) for shard in server.shards]
    started = engine.now
    server.recover()
    return {"serial": serial, "parallel": (engine.now - started) * 1e3,
            "same_keys": keys == [len(shard.data) for shard in server.shards]}


def lsm_dual_row(seed: int) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "benchmarks", "e2e"))
    from harness import lsm, spec  # the benchmark's own round, read-only

    _rounds, scale = spec.sizing(spec.RUN_SECONDS)
    ops = max(1, round(spec.LSM.ops * scale / spec.ROUNDS_AT_REF))
    window = {}

    def recover_starts(tree):
        tally["on"] = 1
        window["start"] = tree.engine.now

    def first_get(tree, _key):
        if tally["on"]:
            tally["on"] = 0
            window["ms"] = (tree.engine.now - window["start"]) * 1e3

    def replayed(_payload):
        tally["records"] += tally["on"]

    with counted() as tally, \
            wrapped(LSMTree, "recover", recover_starts), \
            wrapped(LSMTree, "get", first_get), \
            wrapped(tree_module, "decode_kv", replayed):
        tally["log_pages"] = spec.LSM.area_pages
        result = lsm.run_round(spec.LSM, seed, 0, ops)
    return {"reads": tally["probes"] + tally["bodies"],
            "bytes": tally["bytes"], "records": tally["records"],
            "log_reads": tally["log_reads"], "log_bytes": tally["log_bytes"],
            "ms": window["ms"], "failed": result["failures"].count}


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Device reads and simulated time of BaWAL.recover, and "
                    "of a 3-shard GatewayServer.recover().")
    parser.add_argument("--smoke", action="store_true",
                        help="skip the lsm-dual benchmark round (~1 s)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the lsm-dual round (default 1)")
    args = parser.parse_args()

    segment = BUFFER_BYTES // 2
    # name -> (row, records it must return, and at most: probes, bodies,
    # bytes read)
    rows = {
        "log in the two halves": (
            scan(logged(PER_SEGMENT // 2)), PER_SEGMENT // 2, 0, 0, 0),
        "power cut mid-flush": (
            scan(cut_mid_flush()), PER_SEGMENT + 1, 1, 0, PAGE),
    }
    for k in (1, 3, 6):
        sealed = logged(k * PER_SEGMENT + 5)
        rows[f"{k} sealed segments + halves"] = (
            scan(sealed), k * PER_SEGMENT + 5, k, k, k * segment)
    # Four records into the last of the six sealed segments.
    rows["start_lsn in the last sealed"] = (
        scan(sealed, 5 * segment + 4 * RECORD), PER_SEGMENT + 1, 1, 1,
        segment)
    # Tail in segment 19, segment 20's empty half pinned over slot 4:
    # segments 5..18 survive on NAND, and slot 0 holds segment 16.
    wrapped_log = logged((SLOTS + 3) * PER_SEGMENT + 5)
    surviving = SLOTS - 2
    rows["wrapped, start_lsn 0 (fallback)"] = (
        scan(wrapped_log), surviving * PER_SEGMENT + 5, SLOTS, SLOTS,
        SLOTS * segment)
    rows["wrapped, from the oldest surviving"] = (
        scan(wrapped_log, 5 * segment), surviving * PER_SEGMENT + 5,
        surviving, surviving, surviving * segment)
    print(f"BaWAL.recover, {SLOTS} slots of {segment} bytes:")
    print(f"  {'':<36}{'records':>8}{'probes':>8}{'bodies':>8}"
          f"{'bytes':>10}{'sim ms':>10}")
    broken = []
    for name, (row, records, probes, bodies, nbytes) in rows.items():
        print(f"  {name:<36}{row['records']:>8}{row['probes']:>8}"
              f"{row['bodies']:>8}{row['bytes']:>10}{row['ms']:>10.4f}")
        if row["records"] != records:
            broken.append(f"{name}: {row['records']} records recovered, "
                          f"{records} logged")
        if (row["probes"] > probes or row["bodies"] > bodies
                or row["bytes"] > nbytes):
            broken.append(f"{name}: more than {probes} probes, {bodies} "
                          f"bodies or {nbytes} bytes read")

    gateway = gateway_row()
    shards = " + ".join(f"{ms:.4f}" for ms in gateway["serial"])
    print(f"GatewayServer, 3 shards: one by one {shards} = "
          f"{sum(gateway['serial']):.4f} ms; server.recover() "
          f"{gateway['parallel']:.4f} ms")

    if gateway["parallel"] > max(gateway["serial"]) + 1e-3:
        broken.append("server.recover() cost more than its slowest shard")
    if not gateway["same_keys"]:
        broken.append("server.recover() rebuilt different shard key counts")

    if not args.smoke:
        dual = lsm_dual_row(args.seed)
        print(f"lsm-dual round (seed {args.seed}): LSMTree.recover "
              f"{dual['reads']} device reads, {dual['bytes']} bytes "
              f"({dual['log_reads']} / {dual['log_bytes']} in the log "
              f"area), {dual['records']} records replayed, "
              f"{dual['ms']:.4f} ms, failed {dual['failed']}")
        if dual["log_reads"] > 1 or dual["log_bytes"] > PAGE:
            broken.append("lsm-dual's recovery read more than one page of "
                          "its log area")
        if dual["failed"]:
            broken.append("the lsm-dual round failed its state check")
    return exit_status(broken)


if __name__ == "__main__":
    sys.exit(main())
