"""``lsm-dual``: the paper's own use of the device.

An ``LSMTree`` logs to a ``BaWAL`` on the byte path and keeps its
SSTables in a ``DeviceTableStorage`` on the block path of the *same*
``TwoBSSD`` (tables start where the log area ends, so the LBA checker
sits between the two datapaths).  YCSB-A from ``YcsbWorkload``, four
closed-loop clients — the load shape of the paper's Fig. 9.
"""

from __future__ import annotations

import hashlib
import random
import time
from typing import Iterator

from repro.db.lsm import DeviceTableStorage, LSMTree
from repro.db.lsm.sst import SSTable
from repro.observability import collect_stats
from repro.platform import Platform
from repro.wal.ba_wal import BaWAL
from repro.workloads.ycsb import YcsbConfig, YcsbOp, YcsbWorkload

from harness import layers, schedule, spec
from harness.checks import Failures
from harness.clock import PartClock
from harness.layers import PAGE

# The run phase is timed in this many equal parts.  Each must span
# several flush/compaction cycles, or taking the fastest repeat of a part
# would prefer the repeats whose compactions happened to fall elsewhere.
PARTS = 4


class _Model:
    """What a correct store may hold for each key.

    Four clients can have writes to one key in flight at once, and the
    tree orders them by memtable insert, not by completion; so a key's
    acceptable final values are those of every acknowledged write that
    no later-started write strictly followed.
    """

    def __init__(self) -> None:
        self.written: dict[str, set] = {}   # every value ever put
        self.final: dict[str, list] = {}    # [(value, acked_at), ...]

    def started(self, key: str, value: bytes) -> None:
        self.written.setdefault(key, set()).add(value)

    def acked(self, key: str, value: bytes, start: float, end: float) -> None:
        survivors = [entry for entry in self.final.get(key, ())
                     if entry[1] > start]
        survivors.append((value, end))
        self.final[key] = survivors


def _build(config: spec.LsmSpec, seed: int):
    platform = Platform(seed=seed)
    engine = platform.engine
    wal = BaWAL(engine, platform.api, area_pages=config.area_pages)
    engine.run_process(wal.start())
    storage = DeviceTableStorage(engine, platform.device,
                                 base_lpn=config.area_pages)
    tree = LSMTree(engine, wal, storage,
                   memtable_bytes=config.memtable_bytes,
                   rng=platform.rng.fork("lsm"))
    return platform, tree


def plan_round(config: spec.LsmSpec, seed: int, round_index: int,
               ops: int) -> dict:
    rng = random.Random(schedule.sub_seed(seed, "lsm-dual", round_index))
    workload = YcsbWorkload(
        YcsbConfig.workload_a(payload_bytes=config.value_bytes,
                              record_count=config.records), rng)
    return {"load": list(workload.load_requests()),
            "run": [workload.next_request() for _ in range(ops)]}


def plan_digest(plan: dict) -> str:
    state = hashlib.blake2b(digest_size=16)
    for request in plan["load"] + plan["run"]:
        state.update(request.op.value.encode() + request.key.encode()
                     + (request.value or b""))
    return state.hexdigest()


def run_round(config: spec.LsmSpec, seed: int, round_index: int,
              ops: int) -> dict:
    plan = plan_round(config, seed, round_index, ops)
    # SST file ids come from a process-global counter and land in the
    # manifest JSON, whose length shapes device write timing; every
    # round starts it from zero so that a round's simulated numbers do
    # not depend on what ran before it in this process (the repo's own
    # compaction bench pins it the same way).
    SSTable._COUNTER = 0
    model = _Model()
    failures = Failures()
    clock = PartClock()
    start = time.perf_counter()
    platform, tree = _build(config, schedule.sub_seed(seed, "platform",
                                                      round_index))
    engine = platform.engine
    clock.close(time.perf_counter() - start)

    def put(request) -> Iterator:
        start = engine.now
        model.started(request.key, request.value)
        yield engine.process(tree.put(request.key, request.value))
        model.acked(request.key, request.value, start, engine.now)
        return engine.now - start

    def load() -> Iterator:
        for request in plan["load"]:
            yield engine.process(put(request))

    start = time.perf_counter()
    engine.run_process(load())
    engine.run()
    clock.close(time.perf_counter() - start)

    programs_before = _page_programs(platform)
    read_us: list = []
    update_us: list = []
    part_start = [0.0]
    queue = iter(plan["run"])
    done = [0]
    part_ops = max(1, ops // PARTS)

    def client() -> Iterator:
        for request in queue:
            if request.op is YcsbOp.READ:
                start = engine.now
                value = yield engine.process(tree.get(request.key))
                read_us.append((engine.now - start) * 1e6)
                if value not in model.written[request.key]:
                    failures.add(f"READ {request.key}: "
                                 f"{(value or b'')[:16]!r} was never put")
            else:
                update_us.append((yield engine.process(put(request))) * 1e6)
            done[0] += 1
            if done[0] % part_ops == 0:
                end_part()

    def end_part() -> None:
        # Calibration runs between parts, on the wall clock only: the
        # simulated clock does not move while a client holds the CPU.
        clock.close(time.perf_counter() - part_start[0])
        part_start[0] = time.perf_counter()

    events_before = engine.capture_state()["sequence"]
    sim_start = engine.now
    part_start[0] = time.perf_counter()
    engine.run(until=engine.all_of(
        [engine.process(client()) for _ in range(config.clients)]))
    sim_seconds = engine.now - sim_start
    engine.run()  # let flush and compaction finish
    end_part()  # the tail: leftover ops and the background work's end
    events = engine.capture_state()["sequence"] - events_before

    updates = len(update_us)
    user_bytes = (updates + len(plan["load"])) * config.value_bytes
    total_ops = ops + len(plan["load"])
    engine.run_process(platform.device.drain())
    engine.run()
    report = collect_stats(platform)
    devices = list(report["devices"].values())
    counters = {
        **layers.wal_counters([tree.wal.stats], user_bytes),
        **layers.device_counters([report["host"]], [report["pcie"]],
                                 devices, total_ops, user_bytes),
        "db.lsm_flushes": tree.flush_count,
        "db.lsm_compactions": tree.compaction_count,
        "db.lsm_write_stalls": tree.write_stalls,
        "db.lsm_compaction_mb_per_sim_s": (
            tree.compaction_bytes / tree.compaction_seconds / 1e6
            if tree.compaction_seconds else 0.0),
    }
    write_amp = ((_page_programs(platform) - programs_before) * PAGE
                 / (updates * config.value_bytes))

    # Power loss, then a fresh tree over a fresh log and table-store
    # handle: everything acknowledged must come back from the device.
    platform.power.power_cycle()
    fresh = LSMTree(
        engine, BaWAL(engine, platform.api, area_pages=config.area_pages),
        DeviceTableStorage(engine, platform.device,
                           base_lpn=config.area_pages),
        memtable_bytes=config.memtable_bytes,
        rng=platform.rng.fork("lsm-recovered"))
    recover_start = engine.now
    engine.run_process(fresh.recover())
    recover_ms = (engine.now - recover_start) * 1e3

    def reread() -> Iterator:
        for key in sorted(model.final):
            value = yield engine.process(fresh.get(key))
            if value not in [entry[0] for entry in model.final[key]]:
                failures.add(f"{key} after power cycle: "
                             f"{(value or b'')[:16]!r} is not its last value")

    engine.run_process(reread())
    return {
        "clock": clock, "setup_brackets": 2, "ops": ops,
        "part_ops": [part_ops] * (len(clock.brackets) - 3) + [0],
        "raw_wall_s": sum(walls[0] for walls in clock.brackets[2:]),
        "get_us": read_us, "set_us": update_us,
        # Closed loop: no ladder, so capacity is the throughput the four
        # clients reach, the same number as the peak.
        "capacity": ops / sim_seconds, "capacity_step": ops / sim_seconds,
        "peak": ops / sim_seconds,
        "events_per_op": events / ops,
        "nand_write_amp": write_amp, "recover_ms": recover_ms,
        "requests": total_ops, "user_bytes": user_bytes,
        "attempted": total_ops + len(model.final),
        "failures": failures,
        "curve": [{"step": "closed", "clients": config.clients,
                   "achieved_ops_per_s": ops / sim_seconds,
                   "samples": ops}],
        "counters": counters,
        "digest": plan_digest(plan),
    }


def _page_programs(platform) -> int:
    return platform.device.flash.stats.page_programs
