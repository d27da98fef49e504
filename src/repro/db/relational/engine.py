"""The relational engine: tables, transactions, XLOG, recovery.

Tables are B-tree-indexed in-memory stores; durability comes entirely from
the WAL (plus optional checkpoints), mirroring the paper's experimental
setup where user data lives in DRAM and only XLOG hits the log device.

Transactional semantics:

* every write op takes an exclusive per-key lock held until commit/abort
  (two-phase locking; LinkBench transactions are single-writer so lock
  ordering cannot deadlock);
* reads run at READ COMMITTED: a row with an uncommitted change from
  another transaction reads as its before-image (writers never block
  readers); a transaction does see its own writes;
* write ops log a redo record immediately (XLOG-style streaming), commit
  appends a commit record and waits on the WAL backend's commit — which
  is where sync/async/BA modes differ;
* recovery replays only transactions whose commit record survived, in LSN
  order; uncommitted tails are discarded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.db.common import EngineStats
from repro.db.relational.btree import BTree
from repro.db.relational.codec import pack_obj, unpack_obj
from repro.sim import Engine, Resource
from repro.sim.engine import Event
from repro.sim.units import USEC
from repro.wal.base import WriteAheadLog


class TransactionError(Exception):
    """Raised for misuse of the transaction API."""


@dataclass
class Transaction:
    """An open transaction: its id, undo images, and held locks."""

    txn_id: int
    undo: list = field(default_factory=list)
    locks: list = field(default_factory=list)
    held_keys: set = field(default_factory=set)
    finished: bool = False

    def require_open(self) -> None:
        if self.finished:
            raise TransactionError(f"transaction {self.txn_id} already finished")


class _Table:
    def __init__(self, name: str) -> None:
        self.name = name
        self.index = BTree()


class RelationalEngine:
    """A small multi-table transactional engine."""

    OP_CPU = 4.0 * USEC        # parse/plan/execute one statement
    SCAN_CPU_PER_ROW = 0.2 * USEC

    def __init__(self, engine: Engine, wal: WriteAheadLog) -> None:
        self.engine = engine
        self.wal = wal
        self._tables: dict[str, _Table] = {}
        self._locks: dict[tuple[str, Any], Resource] = {}
        # READ COMMITTED: before-images of rows with uncommitted changes,
        # keyed (table, key) -> (txn_id, before_row_or_None).
        self._uncommitted: dict[tuple[str, Any], tuple[int, Optional[dict]]] = {}
        self._next_txn_id = 1
        self.stats = EngineStats()

    # -- schema ------------------------------------------------------------------

    def create_table(self, name: str) -> None:
        if name in self._tables:
            raise ValueError(f"table {name!r} already exists")
        self._tables[name] = _Table(name)

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def _table(self, name: str) -> _Table:
        table = self._tables.get(name)
        if table is None:
            raise ValueError(f"no such table {name!r}")
        return table

    def row_count(self, name: str) -> int:
        return len(self._table(name).index)

    # -- transactions ---------------------------------------------------------------

    def begin(self) -> Transaction:
        txn = Transaction(self._next_txn_id)
        self._next_txn_id += 1
        return txn

    def _lock(self, txn: Transaction, table: str, key: Any) -> Iterator[Event]:
        if (table, key) in txn.held_keys:
            return None  # reentrant: the transaction already owns this lock
        resource = self._locks.get((table, key))
        if resource is None:
            resource = Resource(self.engine)
            self._locks[(table, key)] = resource
        request = resource.request()
        yield request
        txn.locks.append((resource, request))
        txn.held_keys.add((table, key))
        return None

    def _release_locks(self, txn: Transaction) -> None:
        for resource, request in txn.locks:
            resource.release(request)
        txn.locks.clear()
        txn.held_keys.clear()
        for table, key, _before in txn.undo:
            entry = self._uncommitted.get((table, key))
            if entry is not None and entry[0] == txn.txn_id:
                del self._uncommitted[(table, key)]
        txn.undo.clear()

    def _committed_row(self, table: str, key: Any,
                       as_txn: Optional[Transaction]) -> Optional[dict]:
        """Latest row visible at READ COMMITTED (own writes visible)."""
        entry = self._uncommitted.get((table, key))
        if entry is not None and (as_txn is None or entry[0] != as_txn.txn_id):
            return entry[1]
        return self._table(table).index.get(key)

    # -- write ops ----------------------------------------------------------------------

    def insert(self, txn: Transaction, table: str, key: Any,
               row: dict) -> Iterator[Event]:
        """Process: insert or replace a row."""
        yield from self._write_op(txn, table, key, row, "put")
        return None

    def update(self, txn: Transaction, table: str, key: Any,
               row: dict) -> Iterator[Event]:
        """Process: update a row (inserts if missing, UPSERT semantics)."""
        yield from self._write_op(txn, table, key, row, "put")
        return None

    def delete(self, txn: Transaction, table: str, key: Any) -> Iterator[Event]:
        """Process: delete a row (no-op if missing)."""
        yield from self._write_op(txn, table, key, None, "del")
        return None

    def _write_op(self, txn: Transaction, table: str, key: Any,
                  row: Optional[dict], op: str) -> Iterator[Event]:
        txn.require_open()
        target = self._table(table)
        yield self.engine.timeout(self.OP_CPU)
        yield from self._lock(txn, table, key)
        before = target.index.get(key)
        txn.undo.append((table, key, before))
        if (table, key) not in self._uncommitted:
            self._uncommitted[(table, key)] = (txn.txn_id, before)
        record = pack_obj({"t": op, "x": txn.txn_id, "tb": table, "k": key, "r": row})
        yield from self.wal.append(record)
        if op == "put":
            target.index.insert(key, dict(row))
        else:
            target.index.delete(key)
        return None

    # -- read ops --------------------------------------------------------------------------

    def get(self, table: str, key: Any,
            txn: Optional[Transaction] = None) -> Iterator[Event]:
        """Process: point lookup at READ COMMITTED.

        Pass ``txn`` to read a transaction's own uncommitted writes;
        without it, only committed state is visible.
        """
        start = self.engine.now
        yield self.engine.timeout(self.OP_CPU)
        row = self._committed_row(table, key, txn)
        self.stats.record("GET", self.engine.now - start, is_write=False)
        return dict(row) if row is not None else None

    def range_scan(self, table: str, start_key: Any, limit: int,
                   end_key: Any = None,
                   txn: Optional[Transaction] = None) -> Iterator[Event]:
        """Process: ordered scan from ``start_key`` at READ COMMITTED
        (pass ``txn`` to include that transaction's own writes)."""
        start = self.engine.now
        rows = self._table(table).index.range_scan(start_key, limit, end_key)
        yield self.engine.timeout(self.OP_CPU + len(rows) * self.SCAN_CPU_PER_ROW)
        self.stats.record("SCAN", self.engine.now - start, is_write=False)
        result = []
        for key, row in rows:
            entry = self._uncommitted.get((table, key))
            if entry is not None and (txn is None or entry[0] != txn.txn_id):
                row = entry[1]  # before-image (READ COMMITTED)
                if row is None:
                    continue  # uncommitted insert: invisible
            result.append((key, dict(row)))
        return result

    # -- commit / abort ------------------------------------------------------------------------

    def commit(self, txn: Transaction) -> Iterator[Event]:
        """Process: append the commit record and wait for WAL durability."""
        txn.require_open()
        start = self.engine.now
        record = pack_obj({"t": "commit", "x": txn.txn_id})
        lsn = yield from self.wal.append(record)
        commit_start = self.engine.now
        yield from self.wal.commit(lsn)
        self.stats.commit_latency += self.engine.now - commit_start
        txn.finished = True
        self._release_locks(txn)
        self.stats.record("COMMIT", self.engine.now - start, is_write=True)
        return lsn

    def abort(self, txn: Transaction) -> Iterator[Event]:
        """Process: roll back in-memory changes; no durability wait."""
        txn.require_open()
        yield self.engine.timeout(self.OP_CPU)
        for table, key, before in reversed(txn.undo):
            index = self._table(table).index
            if before is None:
                index.delete(key)
            else:
                index.insert(key, before)
        record = pack_obj({"t": "abort", "x": txn.txn_id})
        yield from self.wal.append(record)
        txn.finished = True
        self._release_locks(txn)
        self.stats.aborts += 1
        return None

    # -- checkpoint / recovery --------------------------------------------------------------------

    def checkpoint_image(self) -> bytes:
        """Serialize every table (the checkpoint payload)."""
        image = {
            name: [(key, row) for key, row in table.index.items()]
            for name, table in self._tables.items()
        }
        return pack_obj({"tables": image, "next_txn": self._next_txn_id})

    def load_checkpoint(self, blob: bytes) -> None:
        image = unpack_obj(blob)
        self._tables = {}
        for name, rows in image["tables"].items():
            self.create_table(name)
            index = self._tables[name].index
            for key, row in rows:
                index.insert(key, row)
        self._next_txn_id = image["next_txn"]

    def recover(self, start_lsn: int = 0) -> Iterator[Event]:
        """Process: redo replay of committed transactions from the WAL."""
        pending: dict[int, list[dict]] = {}
        committed: list[list[dict]] = []

        def redo(_lsn, payload):
            entry = unpack_obj(payload)
            kind = entry["t"]
            if kind in ("put", "del"):
                pending.setdefault(entry["x"], []).append(entry)
            elif kind == "commit":
                committed.append(pending.pop(entry["x"], []))
            elif kind == "abort":
                pending.pop(entry["x"], None)

        yield from self.wal.replay(start_lsn, redo)
        replayed = 0
        for ops in committed:
            for entry in ops:
                table = self._tables.get(entry["tb"])
                if table is None:
                    self.create_table(entry["tb"])
                    table = self._tables[entry["tb"]]
                if entry["t"] == "put":
                    table.index.insert(entry["k"], entry["r"])
                else:
                    table.index.delete(entry["k"])
                replayed += 1
        return replayed
