"""Closed-loop workload drivers for the three database engines.

Each driver starts ``clients`` concurrent client processes that draw
requests from a shared (deterministic) workload generator and execute
them back-to-back.  Throughput is operations per second of *simulated*
time — the quantity Fig. 9 plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.db.lsm.tree import LSMTree
from repro.db.memkv.store import MemKV
from repro.db.relational.engine import RelationalEngine
from repro.sim import Engine
from repro.sim.engine import Event
from repro.workloads.linkbench import LinkbenchOp, LinkbenchRequest, LinkbenchWorkload
from repro.workloads.ycsb import YcsbOp, YcsbRequest, YcsbWorkload


@dataclass
class RunResult:
    """Outcome of one driver run."""

    operations: int
    elapsed_seconds: float
    commit_latency_total: float

    @property
    def throughput(self) -> float:
        return self.operations / self.elapsed_seconds if self.elapsed_seconds else 0.0

    @property
    def mean_commit_latency(self) -> float:
        return (self.commit_latency_total / self.operations
                if self.operations else 0.0)


def _run_clients(
    engine: Engine,
    execute: Callable[[object], Iterator[Event]],
    next_request: Callable[[], object],
    clients: int,
    total_ops: int,
) -> tuple[int, float]:
    """Run ``total_ops`` requests across ``clients`` closed-loop clients."""
    if clients < 1 or total_ops < 1:
        raise ValueError("clients and total_ops must be positive")
    remaining = [total_ops]
    start = engine.now

    def client() -> Iterator[Event]:
        while remaining[0] > 0:
            remaining[0] -= 1
            request = next_request()
            yield from execute(request)
        return None

    def supervisor() -> Iterator[Event]:
        procs = [engine.process(client(), name=f"client-{i}") for i in range(clients)]
        yield engine.all_of(procs)
        return None

    engine.run(until=engine.process(supervisor(), name="driver"))
    return total_ops, engine.now - start


# -- YCSB on the LSM store (RocksDB / Fig. 9(b)) --------------------------------

def run_ycsb_on_lsm(
    engine: Engine,
    tree: LSMTree,
    workload: YcsbWorkload,
    total_ops: int,
    clients: int = 4,
    load_first: bool = True,
) -> RunResult:
    if load_first:
        _load_lsm(engine, tree, workload)
    commit_before = tree.stats.commit_latency

    def execute(request: YcsbRequest) -> Iterator[Event]:
        if request.op is YcsbOp.READ:
            yield from tree.get(request.key)
        elif request.op in (YcsbOp.UPDATE, YcsbOp.INSERT):
            yield from tree.put(request.key, request.value)
        elif request.op is YcsbOp.READ_MODIFY_WRITE:
            yield from tree.get(request.key)
            yield from tree.put(request.key, request.value)
        else:
            yield from tree.scan(request.key, request.scan_length)
        return None

    ops, elapsed = _run_clients(engine, execute, workload.next_request,
                                clients, total_ops)
    return RunResult(ops, elapsed, tree.stats.commit_latency - commit_before)


def _load_lsm(engine: Engine, tree: LSMTree, workload: YcsbWorkload) -> None:
    def loader() -> Iterator[Event]:
        for request in workload.load_requests():
            yield from tree.put(request.key, request.value)
        return None

    engine.run(until=engine.process(loader(), name="lsm-load"))


# -- YCSB on the in-memory KV store (Redis / Fig. 9(c)) ---------------------------

def run_ycsb_on_memkv(
    engine: Engine,
    store: MemKV,
    workload: YcsbWorkload,
    total_ops: int,
    clients: int = 4,
    load_first: bool = True,
) -> RunResult:
    if load_first:
        def loader() -> Iterator[Event]:
            for request in workload.load_requests():
                yield from store.set(request.key, request.value)
            return None

        engine.run(until=engine.process(loader(), name="memkv-load"))
    commit_before = store.stats.commit_latency

    def execute(request: YcsbRequest) -> Iterator[Event]:
        if request.op is YcsbOp.READ:
            yield from store.get(request.key)
        else:
            yield from store.set(request.key, request.value)
        return None

    ops, elapsed = _run_clients(engine, execute, workload.next_request,
                                clients, total_ops)
    return RunResult(ops, elapsed, store.stats.commit_latency - commit_before)


# -- LinkBench on the relational engine (PostgreSQL / Figs. 9(a), 10) ----------------

_LINK_KEY_MAX = 2 ** 62


def run_linkbench_on_relational(
    engine: Engine,
    db: RelationalEngine,
    workload: LinkbenchWorkload,
    total_ops: int,
    clients: int = 8,
    load_first: bool = True,
) -> RunResult:
    """LinkBench schema: ``node`` rows, ``link`` rows keyed
    ``(id1, type, id2)``, and — as in real LinkBench — a ``count`` table
    maintained transactionally so ``COUNT_LINK`` is an O(1) read and every
    link write is a two-row transaction."""
    if "node" not in db.table_names():
        db.create_table("node")
        db.create_table("link")
        db.create_table("count")
    if load_first:
        _load_linkbench(engine, db, workload)
    commit_before = db.stats.commit_latency

    def execute(request: LinkbenchRequest) -> Iterator[Event]:
        yield from _linkbench_op(engine, db, request)
        return None

    ops, elapsed = _run_clients(engine, execute, workload.next_request,
                                clients, total_ops)
    return RunResult(ops, elapsed, db.stats.commit_latency - commit_before)


def _load_linkbench(engine: Engine, db: RelationalEngine,
                    workload: LinkbenchWorkload) -> None:
    def loader() -> Iterator[Event]:
        for request in workload.load_requests():
            yield from _linkbench_op(engine, db, request)
        return None

    engine.run(until=engine.process(loader(), name="linkbench-load"))


def _linkbench_op(engine: Engine, db: RelationalEngine,
                  request: LinkbenchRequest) -> Iterator[Event]:
    op = request.op
    if op is LinkbenchOp.GET_NODE:
        yield from db.get("node", request.node_id)
    elif op is LinkbenchOp.GET_LINK_LIST:
        yield from db.range_scan(
            "link", (request.node_id, request.link_type, 0), limit=50,
            end_key=(request.node_id, request.link_type, _LINK_KEY_MAX),
        )
    elif op is LinkbenchOp.COUNT_LINK:
        # O(1) via the transactionally-maintained count table.
        yield from db.get("count", (request.node_id, request.link_type))
    elif op is LinkbenchOp.MULTIGET_LINK:
        for other in (request.other_id, request.other_id + 1):
            yield from db.get("link", (request.node_id, request.link_type, other))
    elif op in (LinkbenchOp.ADD_NODE, LinkbenchOp.UPDATE_NODE):
        txn = db.begin()
        yield from db.update(txn, "node", request.node_id,
                             {"data": request.payload})
        yield from db.commit(txn)
    elif op is LinkbenchOp.DELETE_NODE:
        txn = db.begin()
        yield from db.delete(txn, "node", request.node_id)
        yield from db.commit(txn)
    elif op in (LinkbenchOp.ADD_LINK, LinkbenchOp.UPDATE_LINK):
        txn = db.begin()
        key = (request.node_id, request.link_type, request.other_id)
        existed = (yield from db.get("link", key)) is not None
        yield from db.update(txn, "link", key,
                             {"data": request.payload})
        if not existed:
            yield from _bump_count(engine, db, txn, request, +1)
        yield from db.commit(txn)
    elif op is LinkbenchOp.DELETE_LINK:
        txn = db.begin()
        key = (request.node_id, request.link_type, request.other_id)
        existed = (yield from db.get("link", key)) is not None
        yield from db.delete(txn, "link", key)
        if existed:
            yield from _bump_count(engine, db, txn, request, -1)
        yield from db.commit(txn)
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unhandled LinkBench op {op}")
    return None


def _bump_count(engine: Engine, db: RelationalEngine, txn,
                request: LinkbenchRequest, delta: int) -> Iterator[Event]:
    """Adjust the assoc-count row inside the caller's transaction."""
    count_key = (request.node_id, request.link_type)
    row = yield from db.get("count", count_key)
    current = row["n"] if row is not None else 0
    yield from db.update(txn, "count", count_key,
                         {"n": max(0, current + delta)})
    return None
