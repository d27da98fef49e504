"""``tcp-mixed``: the gw-mixed mix over real sockets against a
``python -m repro serve`` child — the only workload that crosses
``repro.gateway.tcp``.

One single-threaded client drives both phases: it writes whatever is
due (open loop) or fits the per-connection window (closed loop), then
waits in ``select`` for replies or the next due instant.  All times here
are wall clock; the simulated and exact numbers of this workload come
from :func:`harness.gw.run_twin`, the in-engine twin of phase A.
"""

from __future__ import annotations

import os
import random
import resource
import select
import socket
import subprocess
import sys
import time
from collections import deque
from statistics import median
from dataclasses import dataclass
from typing import Optional

from repro.gateway.protocol import FrameDecoder

from harness import layers, schedule, spec
from harness.checks import HarnessAbort, ReplyChecker
from harness.clock import PartClock

HOST = "127.0.0.1"
PARTS = 4  # each phase is timed in this many equal parts
SRC_ROOT = os.path.dirname(layers.SRC)  # the directory holding ``repro/``
# The child's shards use the pool's default log area (2048 pages).
SERVE_AREA_BYTES = 2048 * layers.PAGE


class ServeChild:
    """A ``repro serve`` child on a free port; a context manager that
    always reaps it.  ``cpu_seconds`` is its user+system time, known
    after exit."""

    def __init__(self, seed: int) -> None:
        self.cpu_seconds = 0.0
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        self._cpu_before = before.ru_utime + before.ru_stime
        for _attempt in range(3):
            with socket.socket() as probe:
                probe.bind((HOST, 0))
                self.port = probe.getsockname()[1]
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [SRC_ROOT, env.get("PYTHONPATH")]))
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port",
                 str(self.port), "--seed", str(seed)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            ready, _, _ = select.select([self.process.stdout], [], [], 30.0)
            if ready and b"listening" in self.process.stdout.readline():
                return
            self.stop()  # lost the port to someone else: try another
        raise HarnessAbort("repro serve did not start listening")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.cpu_seconds = after.ru_utime + after.ru_stime - self._cpu_before

    def __enter__(self) -> "ServeChild":
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


@dataclass
class Phase:
    """One request list sent over the sockets and answered."""

    requests: list
    latency_ms: list     # by request index; from due (open) or send (closed)
    part_walls: list     # wall seconds of each quarter of the replies + tail
    part_ops: list       # replies in each of those parts
    max_send_lag_ms: float


def drive(socks: list, requests: list, checker: ReplyChecker, label: str,
          window: Optional[int]) -> Phase:
    """Open loop on ``request.due`` when ``window`` is None, else closed
    loop with ``window`` outstanding per connection.  A reply that takes
    over ``REPLY_TIMEOUT_SECONDS`` fails it and everything behind it."""
    per_conn: list[deque] = [deque() for _ in socks]
    for index, request in enumerate(requests):
        per_conn[request.conn].append(index)
    pending: list[deque] = [deque() for _ in socks]   # (index, start)
    decoders = [FrameDecoder() for _ in socks]
    latency = [0.0] * len(requests)
    received = 0
    max_lag = 0.0
    part = max(1, len(requests) // PARTS)
    base = progress = time.perf_counter()
    marks = [base]
    while received < len(requests):
        now = time.perf_counter()
        next_due = None
        for conn, queue in enumerate(per_conn):
            frames = []
            while queue:
                request = requests[queue[0]]
                if window is None:
                    start = base + request.due
                    if start > now:
                        next_due = min(next_due or start, start)
                        break
                    max_lag = max(max_lag, now - start)
                elif len(pending[conn]) >= window:
                    break
                else:
                    start = now
                checker.sending(request)
                pending[conn].append((queue.popleft(), start))
                frames.append(request.frame)
            if frames:
                socks[conn].sendall(b"".join(frames))
        wait = spec.REPLY_TIMEOUT_SECONDS
        if next_due is not None:
            wait = min(wait, max(0.0, next_due - time.perf_counter()))
        readable, _, _ = select.select(socks, [], [], wait)
        now = time.perf_counter()
        for sock in readable:
            conn = socks.index(sock)
            data = sock.recv(65536)
            if not data:
                lost = len(requests) - received
                checker.failures.add(f"{label}: server closed the "
                                     f"connection, {lost} replies due", lost)
                received = len(requests)
                break
            for body in decoders[conn].feed(data):
                index, start = pending[conn].popleft()
                latency[index] = (now - start) * 1e3
                checker.reply(requests[index], body)
                received += 1
                if received % part == 0:
                    marks.append(now)
            progress = now
        outstanding = any(pending)
        if outstanding and now - progress > spec.REPLY_TIMEOUT_SECONDS:
            lost = len(requests) - received
            checker.failures.add(f"{label}: no reply for "
                                 f"{spec.REPLY_TIMEOUT_SECONDS:.0f} s, "
                                 f"{lost} requests timed out", lost)
            break
        if not outstanding:
            progress = now
    marks.append(time.perf_counter())  # whatever followed the last mark
    whole = len(marks) - 2
    return Phase(requests=requests, latency_ms=latency,
                 part_walls=[later - earlier
                             for earlier, later in zip(marks, marks[1:])],
                 part_ops=[part] * whole + [len(requests) - part * whole],
                 max_send_lag_ms=max_lag * 1e3)


def plan_round(config: spec.TcpSpec, seed: int, round_index: int,
               closed_ops: int, open_ops: int) -> dict:
    rng = random.Random(schedule.sub_seed(seed, "tcp-mixed", round_index))
    versions = schedule.Versions()
    mix = dict(get_share=config.get_share, value_bytes=config.value_bytes,
               zipf_theta=config.zipf_theta, versions=versions)
    conns = config.connections
    return {
        "preload": schedule.deal(
            schedule.preload_requests(versions, config.value_bytes),
            rng, None, conns),
        "closed": schedule.deal(
            schedule.mixed_requests(rng, closed_ops, **mix), rng, None, conns),
        "open": schedule.deal(
            schedule.mixed_requests(rng, open_ops, **mix), rng,
            config.open_rate, conns),
        "readback": schedule.deal(
            schedule.readback_requests(versions), rng, None, conns),
    }


def plan_digest(plan: dict) -> str:
    return schedule.digest([plan[name] for name in
                            ("preload", "closed", "open", "readback")])


def run_round(config: spec.TcpSpec, seed: int, round_index: int,
              closed_ops: int, open_ops: int) -> dict:
    """Child up, preload, phase A (closed), phase B (open), re-read
    every written key over the socket, child down."""
    plan = plan_round(config, seed, round_index, closed_ops, open_ops)
    checker = ReplyChecker()
    child_seed = schedule.sub_seed(seed, "serve", round_index) % (1 << 31)
    clock = PartClock()
    start = time.perf_counter()
    with ServeChild(child_seed) as child:
        socks = [socket.create_connection((HOST, child.port))
                 for _ in range(config.connections)]
        try:
            for sock in socks:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            clock.close(time.perf_counter() - start)
            clock.close(*drive(socks, plan["preload"], checker, "preload",
                               config.window).part_walls)
            cpu_before = time.process_time()
            closed = drive(socks, plan["closed"], checker, "closed",
                           config.window)
            client_cpu = time.process_time() - cpu_before
            clock.close(*closed.part_walls)
            cpu_before = time.process_time()
            opened = drive(socks, plan["open"], checker, "open", None)
            client_cpu += time.process_time() - cpu_before
            clock.close(median(opened.latency_ms))  # ms: scales the same
            drive(socks, plan["readback"], checker, "readback",
                  config.window)
        finally:
            for sock in socks:
                sock.close()
    if checker.set_frame_bytes > spec.LOG_WRAP_SHARE * SERVE_AREA_BYTES:
        raise HarnessAbort(
            f"log-wrap guard: {checker.set_frame_bytes} SET frame bytes "
            f"sent, over {spec.LOG_WRAP_SHARE:.0%} of one shard's "
            f"{SERVE_AREA_BYTES}-byte area (ROADMAP item 1)")
    requests = sum(len(phase) for phase in plan.values())
    return {
        # Brackets: child up, preload | phase A | phase B's median (ms).
        "clock": clock, "setup_brackets": 2,
        "part_ops": closed.part_ops,
        "raw_wall_s": sum(closed.part_walls),
        "closed_ms": closed.latency_ms, "open_ms": opened.latency_ms,
        "max_send_lag_ms": opened.max_send_lag_ms,
        "open_achieved_ops_per_s": len(opened.requests)
        / sum(opened.part_walls),
        "server_cpu_us_per_op": child.cpu_seconds * 1e6 / requests,
        "client_cpu_us_per_op": client_cpu * 1e6 / (
            len(closed.requests) + len(opened.requests)),
        "attempted": requests, "failures": checker.failures,
        "digest": plan_digest(plan),
    }
