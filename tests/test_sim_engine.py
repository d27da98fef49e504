"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import AllOf, AnyOf, Engine, SimulationError, Store


def test_timeout_advances_clock():
    engine = Engine()

    def proc():
        yield engine.timeout(1.5)
        return engine.now

    assert engine.run_process(proc()) == pytest.approx(1.5)


def test_timeouts_fire_in_order():
    engine = Engine()
    fired = []

    def waiter(delay):
        yield engine.timeout(delay)
        fired.append(delay)

    for delay in (3.0, 1.0, 2.0):
        engine.process(waiter(delay))
    engine.run()
    assert fired == [1.0, 2.0, 3.0]


def test_equal_time_events_fire_fifo():
    engine = Engine()
    fired = []

    def waiter(tag):
        yield engine.timeout(1.0)
        fired.append(tag)

    for tag in ("a", "b", "c"):
        engine.process(waiter(tag))
    engine.run()
    assert fired == ["a", "b", "c"]


def test_process_return_value_propagates():
    engine = Engine()

    def child():
        yield engine.timeout(1.0)
        return "done"

    def parent():
        result = yield engine.process(child())
        return result

    assert engine.run_process(parent()) == "done"


def test_yield_on_already_finished_process():
    engine = Engine()

    def child():
        yield engine.timeout(0.5)
        return 42

    def parent():
        proc = engine.process(child())
        yield engine.timeout(2.0)
        value = yield proc  # already completed
        return value, engine.now

    value, now = engine.run_process(parent())
    assert value == 42
    assert now == pytest.approx(2.0)


def test_exception_propagates_to_waiter():
    engine = Engine()

    def child():
        yield engine.timeout(0.1)
        raise ValueError("boom")

    def parent():
        yield engine.process(child())

    with pytest.raises(ValueError, match="boom"):
        engine.run_process(parent())


def test_unobserved_process_failure_raises_at_run_end():
    engine = Engine()

    def crasher():
        yield engine.timeout(0.1)
        raise RuntimeError("nobody is watching")

    engine.process(crasher())
    with pytest.raises(RuntimeError, match="nobody is watching"):
        engine.run()


def test_observed_failure_is_not_raised_twice():
    engine = Engine()

    def crasher():
        yield engine.timeout(0.1)
        raise RuntimeError("seen")

    def watcher(proc):
        try:
            yield proc
        except RuntimeError:
            return "handled"

    proc = engine.process(crasher())
    result = engine.run(until=engine.process(watcher(proc)))
    assert result == "handled"
    engine.run()  # must not re-raise


def test_run_until_time_stops_early():
    engine = Engine()
    fired = []

    def waiter():
        yield engine.timeout(10.0)
        fired.append(True)

    engine.process(waiter())
    engine.run(until=5.0)
    assert engine.now == pytest.approx(5.0)
    assert not fired
    engine.run()
    assert fired == [True]


def test_all_of_waits_for_every_child():
    engine = Engine()

    def worker(delay, value):
        yield engine.timeout(delay)
        return value

    def parent():
        procs = [engine.process(worker(d, d * 10)) for d in (3.0, 1.0, 2.0)]
        values = yield AllOf(engine, procs)
        return values, engine.now

    values, now = engine.run_process(parent())
    assert values == [30.0, 10.0, 20.0]
    assert now == pytest.approx(3.0)


def test_any_of_fires_on_first_child():
    engine = Engine()

    def worker(delay, value):
        yield engine.timeout(delay)
        return value

    def parent():
        procs = [engine.process(worker(d, d)) for d in (3.0, 1.0, 2.0)]
        first = yield AnyOf(engine, procs)
        return first, engine.now

    first, now = engine.run_process(parent())
    assert first == 1.0
    assert now == pytest.approx(1.0)


def test_all_of_empty_fires_immediately():
    engine = Engine()

    def parent():
        values = yield AllOf(engine, [])
        return values

    assert engine.run_process(parent()) == []


def test_manual_event_trigger():
    engine = Engine()
    gate = engine.event()

    def opener():
        yield engine.timeout(2.0)
        gate.succeed("open")

    def waiter():
        value = yield gate
        return value, engine.now

    engine.process(opener())
    value, now = engine.run_process(waiter())
    assert value == "open"
    assert now == pytest.approx(2.0)


def test_event_cannot_trigger_twice():
    engine = Engine()
    event = engine.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_negative_timeout_rejected():
    engine = Engine()
    with pytest.raises(ValueError):
        engine.timeout(-1.0)


def test_yielding_non_event_is_an_error():
    engine = Engine()

    def bad():
        yield 42

    with pytest.raises(SimulationError, match="must yield Event"):
        engine.run_process(bad())


def test_deadlock_detected_when_awaiting_unreachable_event():
    engine = Engine()
    never = engine.event()

    def waiter():
        yield never

    with pytest.raises(SimulationError, match="deadlock"):
        engine.run_process(waiter())


def test_nested_processes_compose():
    engine = Engine()

    def leaf(delay):
        yield engine.timeout(delay)
        return delay

    def mid():
        a = yield engine.process(leaf(1.0))
        b = yield engine.process(leaf(2.0))
        return a + b

    def root():
        total = yield engine.process(mid())
        return total, engine.now

    total, now = engine.run_process(root())
    assert total == 3.0
    assert now == pytest.approx(3.0)


class TestPurge:
    def test_purge_drops_scheduled_events(self):
        engine = Engine()
        fired = []

        def waiter():
            yield engine.timeout(5.0)
            fired.append(True)

        engine.process(waiter())
        engine.run(until=1.0)
        discarded = engine.purge()
        assert discarded >= 1
        engine.run()
        assert not fired

    def test_purge_drops_impending_failures(self):
        engine = Engine()

        def crasher():
            yield engine.timeout(1.0)
            raise RuntimeError("to be purged")

        engine.process(crasher())
        engine.run(until=0.5)  # the crasher hasn't reached its raise yet
        engine.purge()
        engine.run()  # must not raise: the crasher died with the crash

    def test_work_after_purge_runs_normally(self):
        engine = Engine()

        def stuck():
            yield engine.timeout(100.0)

        engine.process(stuck())
        engine.run(until=1.0)
        engine.purge()

        def fresh():
            yield engine.timeout(1.0)
            return engine.now

        assert engine.run_process(fresh()) == 2.0

    def test_a_hand_off_to_a_purged_process_raises(self):
        """A process parked on a ``Store.get()`` dies with the purge: the
        next put must not run its pre-crash code."""
        engine = Engine()
        store = Store(engine)
        got = []

        def consumer():
            got.append((yield store.get()))

        engine.process(consumer(), name="consumer")
        engine.run()
        engine.purge()
        store.put(1)
        with pytest.raises(SimulationError, match="'consumer' was cancelled"):
            engine.run()
        assert got == []

    def test_cleanup_runs_in_spawn_order(self):
        """Parked or scheduled, every live process is closed at the purge,
        oldest first, and its ``finally`` runs there and then."""
        engine = Engine()
        gate = engine.event()
        order = []

        def worker(index):
            try:
                yield gate if index % 2 else engine.timeout(5.0)
            finally:
                order.append((index, engine.now))

        for index in range(6):
            engine.process(worker(index))
        engine.run(until=1.0)
        engine.purge()
        assert order == [(index, 1.0) for index in range(6)]
        assert not engine._live

    def test_a_process_spawned_by_cleanup_dies_too(self):
        engine = Engine()
        ran = []

        def late():
            ran.append("late")
            yield engine.timeout(1.0)

        def worker():
            try:
                yield engine.timeout(5.0)
            finally:
                engine.process(late())

        engine.process(worker())
        engine.run(until=1.0)
        engine.purge()
        assert not engine._live
        engine.run()
        assert ran == []


class TestInterruptsLeaveTheKernel:
    """Ctrl-C and ``sys.exit`` are not model failures: they must leave
    ``run()``/``step()`` at the instant they are raised, not be parked on
    the process event for a waiter to swallow or the run's end to find."""

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
    def test_raised_promptly_with_the_clock_where_it_was(self, interrupt):
        engine = Engine()

        def interrupted():
            yield engine.timeout(1.0)
            raise interrupt()

        def sleeper():
            yield engine.timeout(10.0)

        engine.process(interrupted())
        engine.process(sleeper())
        with pytest.raises(interrupt):
            engine.run()
        assert engine.now == 1.0  # not 10.0: the run did not drain first

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
    def test_a_blanket_except_in_the_waiter_cannot_eat_it(self, interrupt):
        engine = Engine()
        swallowed = []

        def child():
            yield engine.timeout(1.0)
            raise interrupt()

        def parent():
            try:
                yield engine.process(child())
            except (Exception, KeyboardInterrupt, SystemExit) as exc:
                swallowed.append(exc)  # what a blanket handler would do
            yield engine.timeout(5.0)

        with pytest.raises(interrupt):
            engine.run_process(parent())
        assert swallowed == [] and engine.now == 1.0

    def test_propagates_from_step_and_run_until_event(self):
        engine = Engine()

        def interrupted():
            raise KeyboardInterrupt
            yield  # pragma: no cover - makes this a generator

        engine.process(interrupted())
        with pytest.raises(KeyboardInterrupt):
            engine.step()
        target = engine.timeout(3.0)
        engine.process(interrupted())
        with pytest.raises(KeyboardInterrupt):
            engine.run(until=target)
        assert engine.now == 0.0

    def test_raised_while_rejecting_a_non_event_yield(self):
        engine = Engine()

        def proc():
            try:
                yield "not an event"
            except SimulationError:
                raise SystemExit(3)

        engine.process(proc())
        with pytest.raises(SystemExit):
            engine.run()

    def test_ordinary_exceptions_still_fail_the_event(self):
        engine = Engine()
        seen = []

        def child():
            yield engine.timeout(1.0)
            raise ValueError("model bug")

        def parent():
            try:
                yield engine.process(child())
            except ValueError as exc:
                seen.append(str(exc))
            yield engine.timeout(1.0)
            return engine.now

        assert engine.run_process(parent()) == 2.0
        assert seen == ["model bug"]
        # ...and unobserved ones still surface at the end of the run.
        engine.process(child())
        engine.process(parent())
        with pytest.raises(ValueError, match="model bug"):
            engine.run()
        assert engine.now == 4.0

    def test_a_delegated_callee_interrupt_leaves_at_once_too(self):
        engine = Engine()

        def child():
            yield engine.timeout(1.0)
            raise KeyboardInterrupt

        def parent():
            yield from child()
            yield engine.timeout(5.0)

        with pytest.raises(KeyboardInterrupt):
            engine.run_process(parent())
        assert engine.now == 1.0
