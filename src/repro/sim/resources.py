"""Shared-resource primitives for the simulation kernel.

:class:`Resource` models a capacity-limited server (a NAND channel, a DMA
engine, the single firmware core that runs the BA-buffer logic).  Processes
``yield resource.request()`` and must call :meth:`Resource.release` when
done; the :meth:`Resource.acquire` helper wraps the request/work/release
pattern for the common case.

:class:`Store` is an unbounded FIFO of items with blocking ``get``; it backs
submission queues and the background-flusher work queues.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterator

from repro.analysis import sanitizer as simsan
from repro.sim.engine import Engine, Event, SimulationError


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Construction is inlined (no ``Event.__init__`` super chain): one
    request is allocated per timed die/channel hold, which makes this one
    of the hottest allocation sites in the kernel.
    """

    __slots__ = ("resource",)

    def __init__(self, engine: Engine, resource: "Resource") -> None:
        self.engine = engine
        self.callbacks = []
        self._value = None
        self._exception = None
        self._triggered = False
        self._processed = False
        self._failure_observed = False
        self.resource = resource


class Resource:
    """A server with ``capacity`` identical slots and a FIFO wait queue."""

    def __init__(self, engine: Engine, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"resource capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self._in_use = 0
        self._waiting: deque[Request] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self) -> Request:
        """Return an event that fires once a slot is granted to the caller.

        Uncontended requests are granted synchronously — the returned
        event is already processed, so a waiter that yields it resumes
        via the kernel's deferred queue without any heap scheduling.
        """
        req = Request(self.engine, self)
        if self._in_use < self.capacity:
            self._in_use += 1
            req._triggered = True
            req._processed = True
            if simsan.enabled:
                simsan.on_grant(req)
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        """Release the slot held by ``request`` and wake the next waiter."""
        if request.resource is not self:
            raise SimulationError("release() called with a request from another resource")
        if not request._triggered:
            # The request never got a slot; cancel it instead.
            self._waiting.remove(request)
            return
        if self._in_use <= 0:
            raise SimulationError("release() called more times than slots were granted")
        if self._waiting:
            # Hand the slot straight to the next waiter: mark its request
            # processed and defer its callbacks — same (time, sequence)
            # position a heap round-trip would give, without the heap.
            successor = self._waiting.popleft()
            if simsan.enabled:
                simsan.on_release(request)
                simsan.on_grant(successor)
            successor._succeed_processed()
        else:
            self._in_use -= 1
            if simsan.enabled:
                simsan.on_release(request)

    def acquire(self, work: Iterator[Event]) -> Iterator[Event]:
        """Run generator ``work`` while holding one slot (request/release wrapper)."""
        req = self.request()
        yield req
        try:
            result = yield from work
        finally:
            self.release(req)
        return result


class Store:
    """An unbounded FIFO buffer of items with blocking retrieval."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Insert ``item``; wakes the oldest blocked getter, if any.

        The wake-up takes the deferred fast path: the getter's event is
        processed in place and its waiter resumes without a heap trip.
        """
        if self._getters:
            getter = self._getters.popleft()
            getter._succeed_processed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the oldest item once available.

        When an item is already buffered the returned event is processed
        synchronously (no scheduling); a yielding consumer resumes via
        the kernel's deferred queue.
        """
        event = Event(self.engine)
        if self._items:
            event._value = self._items.popleft()
            event._triggered = True
            event._processed = True
        else:
            self._getters.append(event)
        return event
