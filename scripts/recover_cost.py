#!/usr/bin/env python3
"""What does one ``BaWAL.recover`` ask of the device?

    python scripts/recover_cost.py [--smoke] [--seed 1]

Recovery is off the serving path, so its cost shows in one number only —
``sim_recover_ms`` — and in time-to-repair (failover and degrade run the
same scan).  This prints where that number comes from, as block reads
counted from outside (a wrapper on ``BlockSSD.read``; a read of one page
is a *probe* of a slot's first record header, anything longer a segment
*body*) with the simulated milliseconds beside them:

* four fixed device states at the ``tests/test_recover_budget.py`` shape
  (64 KiB BA-buffer, 32 KiB segments, 16-slot area, 1 000-byte records,
  power-cycled before recovery): the live log in the two restored halves;
  three sealed NAND segments + the halves; ``start_lsn`` inside the last
  sealed segment; a wrapped log asked for LSN 0 (the every-slot fallback);
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
has the before/after).  Ceilings: no body read for a log that sits in the
halves; ``k`` bodies and ``k + 1`` probes at most for ``k`` sealed
segments; one body from inside the last sealed segment; the fallback at
most one read per slot plus one lap of probes; ``server.recover()`` within
1 us of its slowest shard; the ``lsm-dual`` recovery — its live log sits
in the halves — at most one page of its log area.  The script exits
non-zero when one is broken: on a tree that scans the whole area it
prints its rows and then says so.  ``--smoke`` is what
``scripts/check.sh`` and CI run (~1 s).
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
from repro.core import BaParams  # noqa: E402
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


def logged(records: int):
    """A power-cycled platform whose log holds ``records`` records."""
    platform = Platform(ba_params=BaParams(buffer_bytes=BUFFER_BYTES), seed=1)
    engine = platform.engine
    wal = BaWAL(engine, platform.api, area_pages=AREA_PAGES)
    engine.run_process(wal.start())

    def load():
        for index in range(records):
            end = yield from wal.append(bytes([index % 251]) * PAYLOAD)
            yield from wal.commit(end)

    engine.run_process(load())
    engine.run()
    platform.power.power_cycle()
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

    k = 3
    some = logged(k * PER_SEGMENT + 5)
    segment = BUFFER_BYTES // 2
    rows = {
        "log in the two halves": scan(logged(PER_SEGMENT // 2)),
        f"{k} sealed segments + halves": scan(some),
        "start_lsn in the last sealed": scan(
            some, (k - 1) * segment + 4 * RECORD),
        "wrapped, start_lsn 0 (fallback)": scan(
            logged((SLOTS + 3) * PER_SEGMENT + 5)),
    }
    print(f"BaWAL.recover, {SLOTS} slots of {segment} bytes:")
    print(f"  {'':<32}{'records':>8}{'probes':>8}{'bodies':>8}"
          f"{'bytes':>10}{'sim ms':>10}")
    for name, row in rows.items():
        print(f"  {name:<32}{row['records']:>8}{row['probes']:>8}"
              f"{row['bodies']:>8}{row['bytes']:>10}{row['ms']:>10.4f}")

    gateway = gateway_row()
    shards = " + ".join(f"{ms:.4f}" for ms in gateway["serial"])
    print(f"GatewayServer, 3 shards: one by one {shards} = "
          f"{sum(gateway['serial']):.4f} ms; server.recover() "
          f"{gateway['parallel']:.4f} ms")

    halves, sealed, last, wrapped_row = rows.values()
    broken = []
    if halves["bodies"] or halves["probes"] > 1:
        broken.append("a log that sits in the restored halves cost a body "
                      "read or more than one probe")
    if (sealed["bodies"] > k or sealed["probes"] > k + 1
            or sealed["bytes"] > k * segment + PAGE):
        broken.append(f"{k} sealed segments cost more than {k} bodies and "
                      f"{k + 1} probes")
    if last["bodies"] > 1 or last["probes"] > 2:
        broken.append("a start_lsn in the last sealed segment read more "
                      "than that one body")
    if wrapped_row["bodies"] > SLOTS or wrapped_row["probes"] > SLOTS:
        broken.append("the fallback cost more than one read per slot plus "
                      "one lap of probes")
    if sealed["records"] != k * PER_SEGMENT + 5 or not wrapped_row["records"]:
        broken.append("a recovery lost records")
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
