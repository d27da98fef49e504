"""The in-engine gateway workloads: open-loop (or windowed) load on a
default ``GatewayServer`` over a default 3-node ``DevicePool``.

One :class:`GatewaySystem` is one round's freshly built server with its
connections opened once and reused across steps.  :meth:`step` sends one
dealt request list and returns per-request simulated latencies, timed
from each request's *scheduled* send instant; the calls into the engine
are timed on the wall clock from here, outside the program.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.cluster import DevicePool
from repro.gateway import FrameDecoder, GatewayConfig, GatewayServer

from harness import layers, schedule, spec
from harness.checks import HarnessAbort, ReplyChecker
from harness.clock import PartClock
from harness.layers import PAGE
from harness.stats import StepSummary, capacity, capacity_step, median_and_tail

RECV_CHUNK = 4096
# Building the pool and server takes ~25 ms, too short to time once on a
# noisy host and all of gw-set's set-up; so each round builds it this
# many times, keeps the last, and counts the fastest.
BUILD_REPEATS = 3


@dataclass
class Step:
    """One dealt request list, sent and fully answered."""

    label: str
    rate: Optional[float]        # offered ops/s; None for a closed loop
    requests: list
    latency: list                # simulated seconds, by request index
    span: float                  # step start -> last reply, simulated s
    drain_lag: float             # last reply after the last due send
    max_send_lag: float          # how late the generator itself ran
    wall: float                  # host seconds inside engine.run
    events: int                  # kernel sequence delta (at quiescence)
    failed: int

    def measured(self) -> range:
        """Request indices after the warm-up share."""
        return range(int(len(self.requests) * spec.WARMUP_SHARE),
                     len(self.requests))

    def latencies_us(self, want_get: Optional[bool] = None) -> list:
        return [self.latency[index] * 1e6 for index in self.measured()
                if want_get is None
                or self.requests[index].is_get == want_get]

    def summary(self) -> StepSummary:
        _p50, tail, _pct = median_and_tail(self.latencies_us())
        lag_limit = spec.GENERATOR_LAG_SHARE * spec.LATENCY_LIMIT_US
        return StepSummary(rate=self.rate or 0.0, tail_us=tail,
                           drain_lag_us=self.drain_lag * 1e6,
                           failures=self.failed,
                           valid=self.max_send_lag * 1e6 <= lag_limit)

    def curve_point(self) -> dict:
        p50, tail, pct = median_and_tail(self.latencies_us())
        summary = self.summary()
        return {
            "step": self.label, "offered_ops_per_s": self.rate,
            "achieved_ops_per_s": len(self.requests) / self.span,
            "samples": len(self.measured()), "p50_us": p50,
            "tail_us": tail, "tail_percentile": pct,
            "drain_lag_us": summary.drain_lag_us,
            "max_send_lag_us": self.max_send_lag * 1e6,
            "invalid": not summary.valid, "failed": self.failed,
            "passes": summary.passes(spec.LATENCY_LIMIT_US),
        }


class GatewaySystem:
    """A started default gateway with ``connections`` open connections."""

    def __init__(self, seed: int, connections: int) -> None:
        self.pool = DevicePool(devices=3, seed=seed)
        self.engine = self.pool.engine
        self.server = GatewayServer(self.pool, GatewayConfig())
        self.engine.run_process(self.server.start())
        self.conns = [self.engine.run_process(self.server.accept())
                      for _ in range(connections)]
        self.engine.run()
        self.checker = ReplyChecker()
        self.requests = 0

    def step(self, label: str, requests: list, rate: Optional[float],
             window: Optional[int] = None) -> Step:
        """Send ``requests`` and run the engine until every reply is in
        and the kernel is quiescent.  Open loop unless ``window`` bounds
        the outstanding requests per connection (then latency runs from
        the actual send)."""
        engine = self.engine
        checker = self.checker
        base = engine.now
        events_before = engine.capture_state()["sequence"]
        latency = [0.0] * len(requests)
        max_lag = [0.0]
        failed_before = checker.failures.count
        per_conn: list[list] = [[] for _ in self.conns]
        for index, request in enumerate(requests):
            per_conn[request.conn].append(index)

        def sender(conn, indices, pending, gate) -> Iterator:
            for index in indices:
                request = requests[index]
                if window is None:
                    start = base + request.due
                    if start > engine.now:
                        yield engine.timeout(start - engine.now)
                    max_lag[0] = max(max_lag[0], engine.now - start)
                else:
                    while gate[0] >= window:
                        gate[1] = engine.event()
                        yield gate[1]
                    gate[0] += 1
                    start = engine.now
                checker.sending(request)
                pending.append(start)
                yield conn.c2s.send(request.frame)

        def receiver(conn, indices, pending, gate) -> Iterator:
            decoder = FrameDecoder()
            got = 0
            while got < len(indices):
                chunk = yield conn.s2c.recv(RECV_CHUNK)
                if not chunk:
                    checker.failures.add(
                        f"{label}: connection closed with "
                        f"{len(indices) - got} replies due",
                        len(indices) - got)
                    return
                for body in decoder.feed(chunk):
                    index = indices[got]
                    latency[index] = engine.now - pending[got]
                    got += 1
                    checker.reply(requests[index], body)
                    if window is not None:
                        gate[0] -= 1
                        if gate[1] is not None and not gate[1].triggered:
                            gate[1].succeed()

        receivers = []
        for conn, indices in zip(self.conns, per_conn):
            if indices:
                pending: list = []
                gate = [0, None]
                engine.process(sender(conn, indices, pending, gate))
                receivers.append(engine.process(
                    receiver(conn, indices, pending, gate)))
        wall_start = time.perf_counter()
        engine.run(until=engine.all_of(receivers))
        last_reply = engine.now
        engine.run()  # drain to quiescence before the next step
        wall = time.perf_counter() - wall_start
        self.requests += len(requests)
        last_due = base + (requests[-1].due if window is None else 0.0)
        return Step(label=label, rate=rate, requests=requests,
                    latency=latency, span=last_reply - base,
                    drain_lag=last_reply - last_due, max_send_lag=max_lag[0],
                    wall=wall,
                    events=engine.capture_state()["sequence"] - events_before,
                    failed=checker.failures.count - failed_before)

    def finish(self) -> dict:
        """Check state against the log, stop, drain, and count.

        Returns ``recover_ms``, ``nand_write_amp``, ``checked`` (keys
        verified) and the round's per-layer ``counters``.
        """
        engine, server, pool = self.engine, self.server, self.pool
        checker = self.checker
        area = pool.area_pages * PAGE
        logged = max(shard.stream.tail_lsn for shard in server.shards)
        if logged > spec.LOG_WRAP_SHARE * area:
            raise HarnessAbort(
                f"log-wrap guard: a shard logged {logged} bytes, over "
                f"{spec.LOG_WRAP_SHARE:.0%} of its {area}-byte area; acked "
                f"writes may already be gone (ROADMAP item 1)")
        wal_stats = [leg.wal.stats for shard in server.shards
                     for leg in shard.stream.legs()]
        counters = layers.gateway_counters(server.stats(), wal_stats,
                                           self.requests, checker.user_bytes)
        live = [dict(shard.data) for shard in server.shards]
        recover_start = engine.now
        server.recover()
        recover_ms = (engine.now - recover_start) * 1e3
        for shard, before in zip(server.shards, live):
            for key in sorted(set(before) | set(shard.data)):
                if before.get(key) != shard.data.get(key):
                    checker.failures.add(f"shard {shard.index}: {key} "
                                         f"differs after recover()")
        checked = checker.verify_state(
            lambda key: server.shard_for_key(key).data.get(key),
            "after recover()")
        engine.run_process(server.stop())
        for node in pool.nodes.values():
            engine.run_process(node.platform.device.drain())
        engine.run()
        report = pool.collect_stats()
        devices = list(report["devices"].values())
        counters.update(layers.device_counters(
            list(report["host"].values()), list(report["pcie"].values()),
            devices, self.requests, checker.user_bytes))
        counters.update(layers.cluster_counters(
            report["interconnect"], self.requests, checker.user_bytes))
        programs = sum(device["nand"]["page_programs"] for device in devices)
        return {"recover_ms": recover_ms,
                "nand_write_amp": programs * PAGE / checker.user_bytes,
                "checked": checked, "counters": counters}


# -- plans ------------------------------------------------------------------

def plan_round(workload: spec.GatewaySpec, seed: int, round_index: int,
               scale: float) -> dict:
    """Every request one round will send, generated up front."""
    rng = random.Random(schedule.sub_seed(seed, workload.name, round_index))
    versions = schedule.Versions()
    count = max(1, round(workload.ops_per_step * scale))
    plan: dict = {"preload": None, "steps": [], "readback": None}
    if workload.preload:
        plan["preload"] = schedule.deal(
            schedule.preload_requests(versions, workload.value_bytes),
            rng, spec.PRELOAD_RATE, spec.CONNECTIONS)
    for rate in (*workload.ladder, workload.overload):
        length = (workload.reference_length
                  if rate == workload.reference_rate else 1)
        requests = schedule.mixed_requests(
            rng, count * length, get_share=workload.get_share,
            value_bytes=workload.value_bytes,
            zipf_theta=workload.zipf_theta, versions=versions)
        label = "overload" if rate == workload.overload else "ladder"
        plan["steps"].append(
            (label, rate, schedule.deal(requests, rng, rate,
                                        spec.CONNECTIONS)))
    if workload.readback:
        plan["readback"] = schedule.deal(
            schedule.readback_requests(versions), rng,
            workload.reference_rate, spec.CONNECTIONS)
    return plan


def plan_digest(plan: dict) -> str:
    steps = [step for _label, _rate, step in plan["steps"]]
    steps += [extra for extra in (plan["preload"], plan["readback"]) if extra]
    return schedule.digest(steps)


def run_round(workload: spec.GatewaySpec, seed: int, round_index: int,
              scale: float) -> dict:
    """Build, preload, climb the ladder, overload, verify, tear down."""
    plan = plan_round(workload, seed, round_index, scale)
    clock = PartClock()
    builds = []
    system = None
    for _ in range(BUILD_REPEATS):
        del system
        gc.collect()  # a discarded build must not count as peak memory
        start = time.perf_counter()
        system = GatewaySystem(schedule.sub_seed(seed, "pool", round_index),
                               spec.CONNECTIONS)
        builds.append(time.perf_counter() - start)
    clock.close(min(builds))
    preload = None
    if plan["preload"]:
        start = time.perf_counter()
        preload = system.step("preload", plan["preload"], spec.PRELOAD_RATE)
        clock.close(time.perf_counter() - start)
    setup_brackets = len(clock.brackets)
    steps = []
    for label, rate, requests in plan["steps"]:
        steps.append(system.step(label, requests, rate))
        clock.close(steps[-1].wall)
    readback = (system.step("readback", plan["readback"],
                            workload.reference_rate)
                if plan["readback"] else None)
    end = system.finish()
    ladder = [step for step in steps if step.label == "ladder"]
    overload = steps[-1]
    reference = next(step for step in ladder
                     if step.rate == workload.reference_rate)
    summaries = [step.summary() for step in ladder]
    best = capacity_step(summaries, spec.LATENCY_LIMIT_US)
    ops = sum(len(step.requests) for step in steps)
    return {
        "clock": clock, "setup_brackets": setup_brackets,
        "ops": ops,
        "part_ops": [len(step.requests) for step in steps],
        "raw_wall_s": sum(step.wall for step in steps),
        # A workload whose ladder lacks one op type reads its latency
        # where that op does occur: the read-back GETs of gw-set, the
        # preload SETs of gw-get.
        "get_us": (reference if workload.get_share
                   else readback).latencies_us(True),
        "set_us": (reference if workload.get_share < 1
                   else preload).latencies_us(False),
        "capacity": capacity(summaries, spec.LATENCY_LIMIT_US),
        "capacity_step": best.rate if best else 0.0,
        "peak": len(overload.requests) / overload.span,
        "events_per_op": sum(step.events for step in steps) / ops,
        "nand_write_amp": end["nand_write_amp"],
        "recover_ms": end["recover_ms"],
        "requests": system.requests,
        "user_bytes": system.checker.user_bytes,
        "attempted": system.requests + end["checked"],
        "failures": system.checker.failures,
        "curve": [step.curve_point()
                  for step in (preload, *steps, readback) if step],
        "counters": end["counters"],
        "digest": plan_digest(plan),
    }


def run_twin(seed: int, preload: list, closed: list, connections: int,
             window: int) -> dict:
    """The in-engine twin of ``tcp-mixed`` phase A: the same frames over
    ``connections`` simulated connections with ``window`` outstanding
    each.  It supplies the simulated and exact numbers a child process
    cannot expose; its wall rate against phase A's is the bridge."""
    system = GatewaySystem(seed, connections)
    system.step("preload", preload, None, window=window)
    step = system.step("closed", closed, None, window=window)
    end = system.finish()
    peak = len(step.requests) / step.span
    return {
        "ops": len(step.requests), "raw_wall_s": step.wall,
        "get_us": step.latencies_us(True), "set_us": step.latencies_us(False),
        # Closed loop: no ladder, so capacity is the throughput reached.
        "capacity": peak, "capacity_step": peak, "peak": peak,
        "events_per_op": step.events / len(step.requests),
        "nand_write_amp": end["nand_write_amp"],
        "recover_ms": end["recover_ms"],
        "requests": system.requests,
        "user_bytes": system.checker.user_bytes,
        "attempted": system.requests + end["checked"],
        "failures": system.checker.failures,
        "curve": [step.curve_point()],
        "counters": end["counters"],
    }
