"""Mutant: a group-commit window acked after a second batch landed.

The barrier covers the first batch only; the second ``append_batch``
takes in new, not yet durable records, and the ack fires with no second
barrier.  Expected: exactly one DUR001 at the ``ack.succeed()`` in
``log_window``.
"""

from typing import Iterator

from repro.sim.engine import Event


class MutantGroupCommitter:
    def __init__(self, engine, api, wal) -> None:
        self.engine = engine
        self.api = api
        self.wal = wal

    def log_window(self, first, second, ack) -> Iterator[Event]:
        yield from self.wal.append_batch(first)
        yield from self.api.ba_sync(0)
        yield from self.wal.append_batch(second)
        ack.succeed()  # BUG: the second batch is not durable yet
        return None
