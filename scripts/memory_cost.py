#!/usr/bin/env python3
"""How much host memory does the simulator hold for what it modelled?

    python scripts/memory_cost.py [--smoke]

The 2B-SSD's BA-buffer is 8 MiB of device DRAM per drive (Table I), and
``peak_rss_mb`` should follow the bytes a run wrote, not drives x buffer
size.  Each row below runs in a fresh child process and prints, from just
before the row builds its system to just after it ran:

* the growth of the child's ``VmRSS`` (resident now) and ``VmHWM`` (peak
  resident), MiB, from ``/proc/self/status``;
* the BA-DRAM resident per node, KiB: the pages of each device's
  BA-buffer backing that own a frame of RAM (``_meter.resident_kib``).

Rows:

1. a default 3-node ``DevicePool``, ``GatewayServer.start()`` and 64
   open connections;
2. row 1 plus 4 096 SETs of 64 B (64 per connection, closed loop);
3. row 2 plus ``server.stop()`` — every half ``BA_FLUSH``ed to NAND —
   and a drain;
4. a bare ``Platform`` and a default ``BaWAL`` (two 4 MiB halves)
   logging 4 000-byte records until four halves were sealed, flushed and
   recycled;
5. an LSM tree on one 2B-SSD (WAL on the byte path, SSTables on the
   block path, as ``tests/helpers.py::dual_path_lsm`` builds it) through
   at least three compactions: the NAND page images the flash model
   holds, the pages the FTL maps, and the images' MiB;
6. row 4, then ``power.power_cycle()``: the BA-DRAM resident against the
   pages of the saved image that hold data;
7. row 5, then ``power.power_cycle()`` and a fresh tree's ``recover()``,
   as ``lsm-dual`` recovers: how far ``VmHWM`` rose above ``VmRSS``
   across the power cycle and across recovery (the peak is reset
   before each, ``/proc/self/clear_refs``), the KiB the dump held against
   the buffer's pages that hold data, and ``tracemalloc``'s peak inside
   the tree's log read (``BaWAL.replay``; ``BaWAL.recover`` on a tree
   older than "One replay contract") against the payload bytes it read;
8. a default 3-node gateway after 1 500 unique 2 KiB SETs, then
   ``server.recover()`` as ``gw-set`` runs it: ``tracemalloc``'s peak
   inside it against the bytes of the values it rebuilt.

Read-only use of ``src/``: the same script runs on any commit (on a tree
whose BA-DRAM is a ``bytearray``, the resident column reports the pages
of that ``bytearray``).  docs/performance.md, "Memory follows the bytes
written", "Device memory follows the live data" and "Recovery holds only
what it returns", has the before and after.  Ceilings: row 2's BA-DRAM
at most ``ROW2_CEILING_KIB`` resident on any node; row 5's images exactly
the mapped pages; row 6's resident at most the written pages; row 7's
recovery peak at most the bytes it read plus ``ROW7_SLACK_KIB``; row 8's
at most the values plus three segments (one per shard in flight) plus
``ROW8_SLACK_KIB``.  The script exits non-zero when one is broken or a
row fails (on a tree older than "Device memory follows the live data",
row 5 prints the stale images and row 6 a whole resident buffer; on one
older than "Recovery holds only what it returns", row 7 prints an 8 MiB
dump and a recovery peak of two copied halves; on one older than "One
replay contract", row 8 prints every shard's payload list on top of the
values; each ceiling is reported broken).  ``--smoke`` runs rows 1, 2, 8
and smaller rows 5 and 7 (~4 s); ``scripts/check.sh`` and CI run it.
Without Linux's ``/proc`` the resident and growth columns read ``n/a``
and their ceilings are not checked.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import subprocess
import sys
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from _meter import exit_status, resident_kib  # noqa: E402  (scripts/_meter.py)
from repro.cluster import DevicePool  # noqa: E402
from repro.db.lsm import DeviceTableStorage, LSMTree  # noqa: E402
from repro.db.memkv.commands import Command  # noqa: E402
from repro.gateway import GatewayConfig, GatewayServer  # noqa: E402
from repro.gateway.protocol import FrameDecoder, encode_request  # noqa: E402
from repro.platform import Platform  # noqa: E402
from repro.wal import BaWAL  # noqa: E402

CONNECTIONS = 64
SETS = 4096
VALUE = b"v" * 64
RECORD = b"r" * 4000
ROW2_CEILING_KIB = 512    # measured 372 / 120 / 252; a bytearray backing is 8 196
LSM_AREA_PAGES = 4096     # the WAL's log area; SSTables follow it
LSM_PUTS = 6000           # of 256 B over 1 000 keys, 8 KiB memtables
SMOKE_LSM_PUTS = 1500
ROW7_SLACK_KIB = 256      # recovery's peak above the payloads it returned
GATEWAY_SETS = 1500       # unique keys, 2 KiB values, over 10 connections
ROW8_SLACK_KIB = 256      # recover()'s peak above the values and 3 segments
PAGE = 4096


def residency(regions) -> dict:
    return {"ba_dram_kib": [resident_kib(region._data) for region in regions]}


def gateway(sets: int, stop: bool):
    """Rows 1-3: the BA-DRAM residency of a default pool behind a started
    gateway, and what keeps the system alive while it is measured."""
    pool = DevicePool(devices=3, seed=1)
    engine = pool.engine
    server = GatewayServer(pool, GatewayConfig())
    engine.run_process(server.start())

    def client(index: int):
        conn = yield from server.accept()
        decoder = FrameDecoder()
        for seq in range(sets // CONNECTIONS):
            conn.c2s.send(encode_request(Command.SET, f"c{index}-k{seq}", VALUE))
            while not decoder.feed((yield conn.s2c.recv(4096))):
                pass

    engine.run(until=engine.all_of(
        [engine.process(client(index)) for index in range(CONNECTIONS)]))
    engine.run()
    if stop:
        engine.run_process(server.stop())
        engine.run()
    return residency(node.platform.device.ba_dram
                     for node in pool.nodes.values()), server


def bawal_recycles(power_cycle: bool):
    """Row 4: a bare platform's BA-DRAM after four half recycles; row 6:
    the same after a power cycle, against the saved image's data pages."""
    platform = Platform(seed=1)
    engine = platform.engine
    wal = BaWAL(engine, platform.api)
    engine.run_process(wal.start())

    def load():
        while wal.stats.device_writes < 4:
            end = yield from wal.append(RECORD)
            yield from wal.commit(end)

    engine.run_process(load())
    engine.run()
    dram = platform.device.ba_dram
    if not power_cycle:
        return residency([dram]), wal
    image = dram.snapshot()
    written = sum(1 for offset in range(0, len(image), PAGE)
                  if image[offset:offset + PAGE] != bytes(PAGE))
    platform.power.power_cycle()
    return {**residency([dram]), "written_kib": written * PAGE // 1024}, wal


def lsm_tree(puts: int):
    """Row 5's LSM tree on one 2B-SSD, ``puts`` puts in."""
    platform = Platform(seed=1)
    engine = platform.engine
    wal = BaWAL(engine, platform.api, area_pages=LSM_AREA_PAGES)
    engine.run_process(wal.start())
    storage = DeviceTableStorage(engine, platform.device,
                                 base_lpn=LSM_AREA_PAGES)
    tree = LSMTree(engine, wal, storage, memtable_bytes=8 * 1024,
                   rng=platform.rng.fork("lsm"))
    keys = random.Random(1)

    def load():
        for index in range(puts):
            yield from tree.put(f"key{keys.randrange(1000):04d}",
                                bytes([index % 251]) * 256)

    engine.run_process(load())
    engine.run()
    return platform, tree


def lsm_compactions(puts: int):
    """Row 5: the NAND page images behind an LSM tree on one 2B-SSD."""
    platform, tree = lsm_tree(puts)
    images = len(platform.device.flash._data)
    return {"images": images, "mapped": len(platform.device.ftl.map),
            "image_mib": images * PAGE / (1 << 20),
            "compactions": tree.compaction_count}, tree


def peak_above_resident(work):
    """``work()`` and how far ``VmHWM`` rose above the ``VmRSS`` it began
    at, MiB (None without a resettable peak)."""
    gc.collect()
    try:
        with open("/proc/self/clear_refs", "w") as clear_refs:
            clear_refs.write("5")  # VmHWM := VmRSS
    except OSError:
        return work(), None
    before = status_kib()
    result = work()
    return result, (status_kib()["VmHWM"] - before["VmRSS"]) / 1024


def lsm_power_cycle_and_recover(puts: int):
    """Row 7: row 5, a power cycle and a fresh tree's recovery, as
    ``lsm-dual`` runs them."""
    platform, tree = lsm_tree(puts)
    engine, device = platform.engine, platform.device
    dram = device.ba_dram
    nonzero = sum(1 for offset in range(0, dram.size, PAGE)
                  if dram.read(offset, PAGE) != bytes(PAGE))
    held = []

    def power_cycle():
        platform.power.power_loss()
        image = device.recovery._saved.buffer_image  # what the dump keeps
        held.append(sum(map(len, image.values())) if isinstance(image, dict)
                    else len(image))
        del image
        platform.power.power_on()

    def fresh_tree():
        return LSMTree(engine, BaWAL(engine, platform.api,
                                     area_pages=LSM_AREA_PAGES),
                       DeviceTableStorage(engine, device,
                                          base_lpn=LSM_AREA_PAGES),
                       memtable_bytes=8 * 1024, rng=platform.rng.fork("again"))

    _none, cycle_mib = peak_above_resident(power_cycle)
    replayed, recover_mib = peak_above_resident(
        lambda: engine.run_process(fresh_tree().recover()))
    # Once more on another fresh tree (recovery only reads the device),
    # tracing allocations inside the log read alone: ``BaWAL.replay``
    # against the payload bytes it handed over (on a tree older than "One
    # replay contract", ``BaWAL.recover`` against those it returned).
    traced = fresh_tree()
    name = "replay" if hasattr(traced.wal, "replay") else "recover"
    read = getattr(traced.wal, name)
    inside = {}

    def measured(*args):
        tracemalloc.start()
        try:
            result = yield from read(*args)
            inside["peak"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result

    setattr(traced.wal, name, measured)
    engine.run_process(traced.recover())
    records = engine.run_process(fresh_tree().wal.recover(traced._wal_start))
    inside["returned"] = sum(len(payload) for _lsn, payload in records)
    inside["records"] = len(records)
    return {"cycle_mib": cycle_mib, "recover_mib": recover_mib,
            "dump_kib": held[0] // 1024, "nonzero_kib": nonzero * PAGE // 1024,
            "replayed": replayed, "peak_kib": inside["peak"] / 1024,
            "returned_kib": inside["returned"] / 1024,
            "records": inside["records"]}, tree


def gateway_recover(_smoke: bool):
    """Row 8: a default 3-node gateway after ``GATEWAY_SETS`` unique 2 KiB
    SETs, then ``server.recover()`` as ``gw-set`` runs it:
    ``tracemalloc``'s peak inside it against the bytes of the values it
    rebuilt, and the pool's segment size (a shard reads at most one
    segment at a time)."""
    pool = DevicePool(devices=3, seed=1)
    engine = pool.engine
    server = GatewayServer(pool, GatewayConfig())
    engine.run_process(server.start())

    def client(index: int):
        conn = yield from server.accept()
        decoder = FrameDecoder()
        for seq in range(GATEWAY_SETS // 10):
            conn.c2s.send(encode_request(Command.SET, f"c{index}-k{seq}",
                                         bytes([seq % 251]) * 2048))
            while not decoder.feed((yield conn.s2c.recv(4096))):
                pass

    engine.run(until=engine.all_of(
        [engine.process(client(index)) for index in range(10)]))
    engine.run()
    gc.collect()
    tracemalloc.start()
    try:
        server.recover()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    values = sum(len(value) for shard in server.shards
                 for value in shard.data.values())
    return {"gw_peak_kib": peak / 1024, "values_kib": values / 1024,
            "segment_kib": pool.segment_bytes // 1024,
            "keys": sum(len(shard.data) for shard in server.shards)}, server


ROWS = {
    "1": ("pool + start + 64 connections", lambda smoke: gateway(0, False)),
    "2": ("+ 4 096 SETs of 64 B", lambda smoke: gateway(SETS, False)),
    "3": ("+ server.stop() and drain", lambda smoke: gateway(SETS, True)),
    "4": ("bare BaWAL, 4 halves recycled",
          lambda smoke: bawal_recycles(False)),
    "5": ("LSM on one 2B-SSD, compacted",
          lambda smoke: lsm_compactions(SMOKE_LSM_PUTS if smoke else LSM_PUTS)),
    "6": ("row 4 + power_cycle()", lambda smoke: bawal_recycles(True)),
    "7": ("row 5 + power_cycle() + recover()",
          lambda smoke: lsm_power_cycle_and_recover(
              SMOKE_LSM_PUTS if smoke else LSM_PUTS)),
    "8": ("gateway + 1 500 SETs of 2 KiB", gateway_recover),
}


def status_kib() -> dict:
    """``VmRSS`` and ``VmHWM`` of this process, KiB (empty without /proc)."""
    try:
        with open("/proc/self/status") as status:
            lines = status.read().splitlines()
    except OSError:
        return {}
    fields = (line.split(":", 1) for line in lines if ":" in line)
    return {key: int(value.split()[0]) for key, value in fields
            if key in ("VmRSS", "VmHWM")}


def run_row(key: str, smoke: bool) -> dict:
    """In the child: build and run one row, measure it, return the row."""
    gc.collect()
    before = status_kib()
    row, _keep_alive = ROWS[key][1](smoke)
    gc.collect()
    after = status_kib()
    for name in ("VmRSS", "VmHWM"):
        row[name] = ((after[name] - before[name]) / 1024
                     if name in before and name in after else None)
    return row


def child(key: str, smoke: bool) -> dict:
    done = subprocess.run([sys.executable, os.path.abspath(__file__),
                           "--row", key] + (["--smoke"] if smoke else []),
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def mib(value) -> str:
    return "n/a" if value is None else f"{value:+.1f}"


def kib(value) -> str:
    return "n/a" if value is None else str(value)


def ceilings(key: str, row: dict) -> list:
    """What the row breaks, if anything."""
    resident = row.get("ba_dram_kib", [])
    measured = None not in resident
    if key == "2" and measured and max(resident) > ROW2_CEILING_KIB:
        return [f"row 2: {max(resident)} KiB of BA-DRAM resident on a node, "
                f"ceiling {ROW2_CEILING_KIB}"]
    if key == "5" and row["compactions"] < 3:
        return [f"row 5: {row['compactions']} compactions, needs 3"]
    if key == "5" and row["images"] != row["mapped"]:
        return [f"row 5: {row['images']} NAND page images for "
                f"{row['mapped']} mapped pages"]
    if key == "7" and row["peak_kib"] > row["returned_kib"] + ROW7_SLACK_KIB:
        return [f"row 7: the BaWAL log read peaked at {row['peak_kib']:.0f} "
                f"KiB for {row['returned_kib']:.0f} KiB of payloads, ceiling "
                f"+{ROW7_SLACK_KIB}"]
    if key == "8" and row["gw_peak_kib"] > (
            row["values_kib"] + 3 * row["segment_kib"] + ROW8_SLACK_KIB):
        return [f"row 8: server.recover() peaked at {row['gw_peak_kib']:.0f} "
                f"KiB rebuilding {row['values_kib']:.0f} KiB of values, "
                f"ceiling + 3 x {row['segment_kib']} + {ROW8_SLACK_KIB}"]
    if key == "6" and measured and resident[0] > row["written_kib"]:
        return [f"row 6: {resident[0]} KiB of BA-DRAM resident after a power "
                f"cycle, {row['written_kib']} KiB of it written"]
    return []


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Host memory growth, BA-DRAM residency and NAND page "
                    "images of a gateway pool, a bare BaWAL and an LSM "
                    "tree, and what recovery holds, one child per row.")
    parser.add_argument("--smoke", action="store_true",
                        help="rows 1, 2, 8 and smaller rows 5 and 7")
    parser.add_argument("--row", choices=sorted(ROWS), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.row:
        print(json.dumps(run_row(args.row, args.smoke)))
        return 0

    print("One fresh child per row; growth from just before the row builds "
          "its system.")
    print(f"  {'':<34}{'VmRSS MiB':>10}{'VmHWM MiB':>10}"
          f"   BA-DRAM resident KiB per node / NAND images")
    broken = []
    for key in ("1", "2", "5", "7", "8") if args.smoke else sorted(ROWS):
        try:
            row = child(key, args.smoke)
        except subprocess.CalledProcessError as exc:
            broken.append(f"row {key} failed: {exc.stderr.strip()[-300:]}")
            continue
        if "gw_peak_kib" in row:
            print(f"  {key} {ROWS[key][0]:<32}{mib(row['VmRSS']):>10}"
                  f"{mib(row['VmHWM']):>10}   server.recover() peak "
                  f"{row['gw_peak_kib']:.0f} KiB for {row['values_kib']:.0f} "
                  f"KiB of values ({row['keys']} keys, "
                  f"{row['segment_kib']} KiB segments)")
            broken += ceilings(key, row)
            continue
        if "peak_kib" in row:
            print(f"  {key} {ROWS[key][0]:<32}{'':>10}{'':>10}   "
                  f"{row['replayed']} records replayed")
            print(f"      VmHWM above VmRSS: power cycle "
                  f"{mib(row['cycle_mib'])} MiB, recover() "
                  f"{mib(row['recover_mib'])} MiB")
            print(f"      dump holds {row['dump_kib']} KiB for "
                  f"{row['nonzero_kib']} KiB of pages holding data")
            print(f"      BaWAL log read peak {row['peak_kib']:.0f} KiB for "
                  f"{row['returned_kib']:.0f} KiB of payloads "
                  f"({row['records']} records)")
            broken += ceilings(key, row)
            continue
        if "images" in row:
            detail = (f"{row['images']} images / {row['mapped']} mapped "
                      f"pages, {row['image_mib']:.1f} MiB "
                      f"({row['compactions']} compactions)")
        else:
            detail = " / ".join(kib(value) for value in row["ba_dram_kib"])
            if "written_kib" in row:
                detail += f" ({row['written_kib']} KiB written)"
        print(f"  {key} {ROWS[key][0]:<32}{mib(row['VmRSS']):>10}"
              f"{mib(row['VmHWM']):>10}   {detail}")
        broken += ceilings(key, row)
    return exit_status(broken)


if __name__ == "__main__":
    sys.exit(main())
