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
   recycled.

Read-only use of ``src/``: the same script runs on any commit (on a tree
whose BA-DRAM is a ``bytearray``, the resident column reports the pages
of that ``bytearray``).  docs/performance.md, "Memory follows the bytes
written", has the before and after.  Ceiling: row 2's BA-DRAM at most
``ROW2_CEILING_KIB`` resident on any node; the script exits non-zero
when it is broken or a row fails.  ``--smoke`` runs rows 1 and 2 only
(~1 s); ``scripts/check.sh`` and CI run it.  Without Linux's ``/proc``
the columns read ``n/a`` and no ceiling is checked.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from _meter import exit_status, resident_kib  # noqa: E402  (scripts/_meter.py)
from repro.cluster import DevicePool  # noqa: E402
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


def gateway(sets: int, stop: bool):
    """Rows 1-3: the BA-DRAM regions of a default pool behind a started
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
    return [node.platform.device.ba_dram for node in pool.nodes.values()], server


def bawal_recycles():
    """Row 4: a bare platform's BA-DRAM after four half recycles."""
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
    return [platform.device.ba_dram], wal


ROWS = {
    "1": ("pool + start + 64 connections", lambda: gateway(0, False)),
    "2": ("+ 4 096 SETs of 64 B", lambda: gateway(SETS, False)),
    "3": ("+ server.stop() and drain", lambda: gateway(SETS, True)),
    "4": ("bare BaWAL, 4 halves recycled", bawal_recycles),
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


def run_row(key: str) -> dict:
    """In the child: build and run one row, measure it, return the row."""
    gc.collect()
    before = status_kib()
    regions, _keep_alive = ROWS[key][1]()
    gc.collect()
    after = status_kib()
    row = {"ba_dram_kib": [resident_kib(region._data) for region in regions]}
    for name in ("VmRSS", "VmHWM"):
        row[name] = ((after[name] - before[name]) / 1024
                     if name in before and name in after else None)
    return row


def child(key: str) -> dict:
    done = subprocess.run([sys.executable, os.path.abspath(__file__),
                           "--row", key],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def mib(value) -> str:
    return "n/a" if value is None else f"{value:+.1f}"


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Host memory growth and per-node BA-DRAM residency of "
                    "a gateway pool and a bare BaWAL, one child per row.")
    parser.add_argument("--smoke", action="store_true",
                        help="rows 1 and 2 only")
    parser.add_argument("--row", choices=sorted(ROWS), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.row:
        print(json.dumps(run_row(args.row)))
        return 0

    print("One fresh child per row; growth from just before the row builds "
          "its system.")
    print(f"  {'':<34}{'VmRSS MiB':>10}{'VmHWM MiB':>10}"
          f"   BA-DRAM resident KiB per node")
    broken = []
    for key in ("1", "2") if args.smoke else sorted(ROWS):
        try:
            row = child(key)
        except subprocess.CalledProcessError as exc:
            broken.append(f"row {key} failed: {exc.stderr.strip()[-300:]}")
            continue
        resident = row["ba_dram_kib"]
        print(f"  {key} {ROWS[key][0]:<32}{mib(row['VmRSS']):>10}"
              f"{mib(row['VmHWM']):>10}   "
              + " / ".join("n/a" if kib is None else str(kib)
                           for kib in resident))
        if key == "2" and None not in resident \
                and max(resident) > ROW2_CEILING_KIB:
            broken.append(f"row 2: {max(resident)} KiB of BA-DRAM resident "
                          f"on a node, ceiling {ROW2_CEILING_KIB}")
    return exit_status(broken)


if __name__ == "__main__":
    sys.exit(main())
