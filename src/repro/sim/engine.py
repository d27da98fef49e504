"""Process-based discrete-event simulation engine.

The engine keeps a priority queue of ``(time, sequence, event)`` triples.
Processes are generators; each ``yield`` hands the engine an :class:`Event`
to wait on.  When the event fires, the process resumes with the event's
value (or the event's exception is thrown into it).

The design deliberately mirrors SimPy's core, trimmed to what this
reproduction needs: timeouts, composite events (:class:`AllOf` /
:class:`AnyOf`), and process-as-event composition.

Hot-path design
---------------

Every simulated NAND page op costs a handful of kernel events, so the
kernel keeps two queues:

* the heap, for events at a future time (timeouts) or triggered through
  the general :meth:`Event.succeed` path;
* a deferred FIFO of ``(time, sequence, callback, event)`` entries for
  zero-delay continuations — resuming a process that yielded an
  already-processed event, process bootstrap, and the uncontended
  resource/store wake-ups in :mod:`repro.sim.resources`.

Deferred entries carry the same monotonic sequence numbers the heap
uses, and :meth:`Engine.step` always runs whichever queue holds the
smaller ``(time, sequence)`` pair.  Execution order is therefore
*identical* to scheduling everything through the heap (the golden
determinism tests pin this down); the deferred queue only avoids the
per-event heap push/pop and ``Event`` allocation.

A grant or get that is settled when asked for comes back processed with
its value in ``_value``, and the hottest such sites read it and continue
in place rather than yield it — a yield would buy a deferred round trip
that orders nothing (docs/performance.md, "Settled hand-offs").  The
deferred queue still resumes yields of processed events: at the sites
kept yielding, each with a ``# handoff:`` comment saying what converting
it moves, and in the harness.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Generator
from types import GeneratorType
from typing import Any, Callable, Optional

from repro.analysis import sanitizer as simsan


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (e.g. re-triggering an event)."""


class _Cancelled(SimulationError):
    """A hand-off reached a process that a purge cancelled."""


def _past_continuation(engine: "Engine", when: float) -> BaseException:
    """The error for a deferred continuation that sits behind ``now``."""
    if simsan.enabled:
        return simsan.past_continuation(engine, when)
    return SimulationError(
        "deferred continuation scheduled in the past; kernel invariant broken"
    )


class Event:
    """A one-shot occurrence that processes can wait on.

    An event moves through three states: *pending* (created), *triggered*
    (scheduled to fire, value/exception fixed), and *processed* (callbacks
    have run).  Waiting on an already-processed event resumes the waiter
    immediately, which makes events safe to share between processes.
    """

    __slots__ = (
        "engine",
        "callbacks",
        "_value",
        "_exception",
        "_triggered",
        "_processed",
        "_failure_observed",
    )

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False
        self._processed = False
        self._failure_observed = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def value(self) -> Any:
        if not self._processed:
            raise SimulationError("event value read before the event was processed")
        if self._exception is not None:
            self._failure_observed = True
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event with ``value`` at the current simulation time."""
        if self._triggered:
            raise SimulationError("event has already been triggered")
        self._triggered = True
        self._value = value
        self.engine._schedule(self, delay=0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to be raised in waiters."""
        if self._triggered:
            raise SimulationError("event has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception, got {exception!r}")
        self._triggered = True
        self._exception = exception
        self.engine._schedule(self, delay=0.0)
        return self

    def _mark_processed(self) -> None:
        self._processed = True

    def _succeed_processed(self, value: Any = None) -> None:
        """Fast path: trigger *and* process in place, deferring callbacks.

        Used by uncontended resource grants and store hand-offs.  The
        callbacks run at the same ``(time, sequence)`` position a heap
        round-trip would have given them, without touching the heap.
        """
        if self._triggered:
            raise SimulationError("event has already been triggered")
        self._triggered = True
        self._processed = True
        self._value = value
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            defer = self.engine._defer
            for callback in callbacks:
                defer(callback, self)


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    The dominant event type by far, so construction is inlined: no
    ``Event.__init__`` call, attributes set directly, scheduled straight
    onto the heap.
    """

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"timeout delay must be non-negative, got {delay}")
        self.engine = engine
        self.callbacks = []
        self._value = value
        self._exception = None
        self._triggered = True
        self._processed = False
        self._failure_observed = False
        self.delay = delay
        engine._sequence = sequence = engine._sequence + 1
        heapq.heappush(engine._queue, (engine.now + delay, sequence, self))


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running process; also an event that fires when the process returns.

    The process's return value becomes the event value, and an uncaught
    exception inside the process fails the event (propagating to any waiter,
    or to :meth:`Engine.run` if nobody waits).  ``KeyboardInterrupt`` and
    ``SystemExit`` are not failures of the model: they leave
    :meth:`Engine.run`/:meth:`Engine.step` at once, clock where it was.
    The engine owns every process until it completes or fails; a
    :meth:`Engine.purge` cancels the ones still live.
    """

    __slots__ = ("_generator", "_send", "_throw", "_waiting_on", "name")

    def __init__(self, engine: "Engine", generator: ProcessGenerator, name: str = "") -> None:
        # Plain generators (the only kind the codebase produces) pass the
        # C-level type check; the ABC isinstance is kept as a fallback for
        # exotic Generator implementations.
        if type(generator) is not GeneratorType and not isinstance(generator, Generator):
            raise TypeError(
                f"Process requires a generator (a function using 'yield'), got {generator!r}"
            )
        self.engine = engine
        self.callbacks = []
        self._value = None
        self._exception = None
        self._triggered = False
        self._processed = False
        self._failure_observed = False
        self._generator = generator
        self._send = generator.send
        self._throw = generator.throw
        self._waiting_on: Optional[Event] = None
        self.name = name or generator.__name__
        engine._live[self] = None
        # First resume goes through the deferred queue directly; no
        # bootstrap Event, no heap trip.
        engine._defer(self._resume, engine._init_event)

    def _cancel(self) -> None:
        """Close the generator where it stands (``GeneratorExit``: its
        ``finally`` bodies run now) and mark the process triggered
        without scheduling it, so it never completes and never resumes."""
        del self.engine._live[self]
        self._triggered = True
        self._send = self._throw = self._cancelled
        self._generator.close()

    def _cancelled(self, _value: Any) -> Any:
        raise _Cancelled(
            f"process {self.name!r} was cancelled by a purge, but a "
            "hand-off reached it after the crash")

    def _resume(self, trigger: Event) -> None:
        self._waiting_on = None
        try:
            if trigger._exception is None:
                target = self._send(trigger._value)
            else:
                trigger._failure_observed = True
                target = self._throw(trigger._exception)
        except StopIteration as stop:
            # Fast completion: mark processed in place; waiters resume via
            # the deferred queue at the same (time, sequence) position a
            # heap round-trip would have given them.
            del self.engine._live[self]
            self._succeed_processed(stop.value)
            return
        except (KeyboardInterrupt, SystemExit, _Cancelled):
            # Not a model failure: the user (or the interpreter) wants out
            # now, not after whoever awaits this process has had a chance
            # to swallow it or the run has drained — and a hand-off to a
            # cancelled process is a bug in whoever kept it after a crash.
            raise
        except BaseException as exc:  # noqa: BLE001 - failure propagates via the event
            del self.engine._live[self]
            self.fail(exc)
            return

        if type(target) is Timeout:
            # Fast path for the dominant yield type: a fresh Timeout is
            # never processed and always engine-owned.
            self._waiting_on = target
            target.callbacks.append(self._resume)
            return

        if not isinstance(target, Event):
            exc = SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Event objects"
            )
            try:
                self._generator.throw(exc)
            except StopIteration as stop:
                del self.engine._live[self]
                self.succeed(stop.value)
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as inner:  # noqa: BLE001
                del self.engine._live[self]
                self.fail(inner)
            return

        self._waiting_on = target
        if target._processed:
            # The event already fired; resume on the next scheduler step
            # via the deferred queue (no Event allocation, no heap trip).
            if target._exception is not None:
                target._failure_observed = True
            self.engine._defer(self._resume, target)
        else:
            target.callbacks.append(self._resume)


class _Composite(Event):
    """Base for AllOf/AnyOf: waits on a fixed set of child events."""

    __slots__ = ("events", "_remaining")

    def __init__(self, engine: "Engine", events: list[Event]) -> None:
        super().__init__(engine)
        self.events = list(events)
        for event in self.events:
            if not isinstance(event, Event):
                raise TypeError(f"composite events require Event children, got {event!r}")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed([])
            return
        for event in self.events:
            if event._processed:
                self._child_fired(event)
            else:
                event.callbacks.append(self._child_fired)

    def _child_fired(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Composite):
    """Fires when every child event has fired; value is the list of child values."""

    __slots__ = ()

    def _child_fired(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exception is not None:
            event._failure_observed = True
            self.fail(event._exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self._succeed_processed([child._value for child in self.events])


class AnyOf(_Composite):
    """Fires when the first child event fires; value is that child's value."""

    __slots__ = ()

    def _child_fired(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exception is not None:
            event._failure_observed = True
            self.fail(event._exception)
            return
        self._succeed_processed(event._value)


class Engine:
    """The event loop: owns simulated time and the pending-event queue."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._sequence = 0
        self._failed_events: list[Event] = []
        # Zero-delay continuations, merged with the heap by (time, seq).
        self._deferred: deque[tuple[float, int, Callable[[Event], None], Event]] = deque()
        # Shared trigger for process bootstraps: value/exception are
        # always None and never mutated.
        self._init_event = Event(self)
        self._init_event._triggered = True
        self._init_event._processed = True
        # Every process not yet completed or failed, in spawn order.
        self._live: dict[Process, None] = {}
        # Components holding in-flight state outside the queues (PCIe
        # links); each hook runs on every purge().
        self._purge_hooks: list[Callable[[], None]] = []

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, event: Event, delay: float) -> None:
        if simsan.enabled:
            simsan.check_schedule(self, delay)
        self._sequence += 1
        heapq.heappush(self._queue, (self.now + delay, self._sequence, event))

    def _defer(self, callback: Callable[[Event], None], event: Event) -> None:
        """Queue ``callback(event)`` to run at the current time, ordered as
        if it had been scheduled on the heap right now."""
        self._sequence = sequence = self._sequence + 1
        self._deferred.append((self.now, sequence, callback, event))

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Return an event firing ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """Return an event firing at absolute simulated time ``when``: for
        a driver that adds up a chain of delays itself and wakes only where
        it has work (``now + (when - now)`` need not round back to ``when``)."""
        if when < self.now:
            raise ValueError(f"timeout_at({when}) is in the past (now={self.now})")
        timeout = Timeout.__new__(Timeout)
        Event.__init__(timeout, self)
        timeout._triggered = True
        timeout._value = value
        timeout.delay = when - self.now
        self._sequence = sequence = self._sequence + 1
        heapq.heappush(self._queue, (when, sequence, timeout))
        return timeout

    def event(self) -> Event:
        """Return a fresh, untriggered event for manual triggering."""
        return Event(self)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start ``generator`` as a process; returns the process (an event)."""
        return Process(self, generator, name=name)

    def all_of(self, events: list[Event]) -> AllOf:
        return AllOf(self, events)

    def call_at(self, when: float, fn: Callable[[], Any]) -> Event:
        """Schedule ``fn()`` to run at absolute simulated time ``when``.

        The fault-injection hook: nemeses use it to arm heal timers
        (un-partition a link, restore a slowed die) at a fixed point on
        the shared clock.  The callback runs inside the event loop, so it
        must not block — spawn a process if it needs timed work.  Returns
        the underlying event; like all scheduled work, the callback dies
        with a :meth:`purge` (callers re-arm after a crash if the fault
        they model outlives one).
        """
        if when < self.now:
            raise SimulationError(
                f"call_at({when}) is in the past (now={self.now})")
        event = Event(self)
        event._triggered = True
        event.callbacks.append(lambda _event: fn())
        self._schedule(event, delay=when - self.now)
        return event

    def any_of(self, events: list[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- execution ----------------------------------------------------------

    def step(self) -> None:
        """Process the single next event (deferred continuation or heap)."""
        deferred = self._deferred
        queue = self._queue
        if deferred:
            head = deferred[0]
            if not queue or head[0] < queue[0][0] or (
                head[0] == queue[0][0] and head[1] < queue[0][1]
            ):
                deferred.popleft()
                if head[0] < self.now:
                    raise _past_continuation(self, head[0])
                self.now = head[0]
                head[2](head[3])
                return
        when, _seq, event = heapq.heappop(queue)
        if when < self.now:
            raise SimulationError("event scheduled in the past; kernel invariant broken")
        self.now = when
        event._processed = True
        callbacks = event.callbacks
        if callbacks:
            event.callbacks = []
            for callback in callbacks:
                callback(event)
        if event._exception is not None and not event._failure_observed:
            # Remember failures nobody has seen yet; run() raises them at the
            # end unless a waiter observes them in the meantime.
            self._failed_events.append(event)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue drains, ``until`` time passes, or ``until`` event fires.

        When ``until`` is an event, its value is returned (and its exception
        re-raised).  Failures of events that no process ever observes are
        raised at the end of the run rather than silently dropped.
        """
        if isinstance(until, Event):
            target = until
            queue = self._queue
            deferred = self._deferred
            heappop = heapq.heappop
            while not target._processed:
                if deferred:
                    head = deferred[0]
                    if (not queue or head[0] < queue[0][0] or
                            (head[0] == queue[0][0] and head[1] < queue[0][1])):
                        deferred.popleft()
                        if head[0] < self.now:
                            raise _past_continuation(self, head[0])
                        self.now = head[0]
                        head[2](head[3])
                        continue
                elif not queue:
                    raise SimulationError(
                        "simulation queue drained before the awaited event fired (deadlock)"
                    )
                when, _seq, event = heappop(queue)
                if when < self.now:
                    raise SimulationError(
                        "event scheduled in the past; kernel invariant broken")
                self.now = when
                event._processed = True
                callbacks = event.callbacks
                if callbacks:
                    event.callbacks = []
                    for callback in callbacks:
                        callback(event)
                if event._exception is not None and not event._failure_observed:
                    self._failed_events.append(event)
            return target.value
        deadline = float("inf") if until is None else float(until)
        # Inlined step loop with localized lookups: this is the hottest
        # code in the repository (every simulated event passes through).
        queue = self._queue
        deferred = self._deferred
        heappop = heapq.heappop
        while True:
            if deferred:
                head = deferred[0]
                if (not queue or head[0] < queue[0][0] or
                        (head[0] == queue[0][0] and head[1] < queue[0][1])):
                    if head[0] > deadline:
                        break
                    deferred.popleft()
                    if head[0] < self.now:
                        raise _past_continuation(self, head[0])
                    self.now = head[0]
                    head[2](head[3])
                    continue
            elif not queue or queue[0][0] > deadline:
                break
            if queue[0][0] > deadline:
                break
            when, _seq, event = heappop(queue)
            if when < self.now:
                raise SimulationError(
                    "event scheduled in the past; kernel invariant broken")
            self.now = when
            event._processed = True
            callbacks = event.callbacks
            if callbacks:
                event.callbacks = []
                for callback in callbacks:
                    callback(event)
            if event._exception is not None and not event._failure_observed:
                self._failed_events.append(event)
        if until is not None:
            self.now = max(self.now, deadline)
        self.raise_unobserved_failures()
        return None

    def run_process(self, generator: ProcessGenerator, name: str = "") -> Any:
        """Convenience: start ``generator`` and run until it completes."""
        return self.run(until=self.process(generator, name=name))

    # -- state capture ------------------------------------------------------

    def quiescent(self) -> bool:
        """True when no event is scheduled or deferred (the queue drained)."""
        return not self._queue and not self._deferred

    def capture_state(self) -> dict:
        """Snapshot the kernel scalars (clock, sequence counter).

        Only legal at quiescence: live heap entries and deferred
        continuations hold generator frames and cannot be serialized, so
        a snapshot of a busy engine could never be restored faithfully.
        """
        if not self.quiescent():
            raise SimulationError(
                "engine state capture requires a quiescent engine "
                f"({len(self._queue)} queued, {len(self._deferred)} deferred)"
            )
        return {"now": self.now, "sequence": self._sequence}

    def restore_state(self, state: dict) -> None:
        """Restore clock and sequence counter captured by :meth:`capture_state`.

        Must run *after* every component has re-parked its service
        processes (so their bootstrap events have already been consumed at
        time 0); moving the clock forward first would strand those
        deferred continuations behind ``now``.
        """
        if not self.quiescent():
            raise SimulationError(
                "engine state restore requires a quiescent engine")
        now = float(state["now"])
        sequence = int(state["sequence"])
        if now < self.now or sequence < self._sequence:
            raise SimulationError(
                "engine restore would move time or the sequence counter "
                f"backwards (now {self.now} -> {now}, "
                f"seq {self._sequence} -> {sequence})")
        self.now = now
        self._sequence = sequence

    def purge(self) -> int:
        """Crash semantics: whatever was in flight never completes.

        Closes every live process in spawn order at the current instant
        (rounds repeat while cleanup spawns more), so each ``finally``
        runs here, once; a later hand-off to a cancelled process raises
        :class:`SimulationError` naming it.  Then drops every queued event
        and runs the purge hooks.  Call between runs, never from inside a
        process.  Returns the events queued at the start.
        """
        discarded = len(self._queue) + len(self._deferred)
        live = self._live
        while live:
            for process in list(live):
                process._cancel()
        self._queue.clear()
        self._deferred.clear()
        self._failed_events.clear()
        for hook in self._purge_hooks:
            hook()
        return discarded

    def on_purge(self, hook: Callable[[], None]) -> None:
        """Register ``hook()`` to run on every :meth:`purge`.

        For in-flight work kept outside the event queues — a PCIe link's
        posted-write FIFO — that must die with a purge exactly as queued
        events do.
        """
        self._purge_hooks.append(hook)

    def raise_unobserved_failures(self) -> None:
        """Raise the first event failure that no waiter ever observed."""
        for event in self._failed_events:
            if not event._failure_observed:
                self._failed_events = []
                assert event._exception is not None
                raise event._exception
        self._failed_events = []
