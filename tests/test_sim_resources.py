"""Unit tests for Resource and Store primitives."""

import pytest

from repro.gateway.server import BoundedQueue
from repro.sim import Engine, Resource, SimulationError, Store


def test_resource_serializes_contenders():
    engine = Engine()
    res = Resource(engine, capacity=1)
    finish_times = []

    def worker():
        req = res.request()
        yield req
        yield engine.timeout(1.0)
        res.release(req)
        finish_times.append(engine.now)

    for _ in range(3):
        engine.process(worker())
    engine.run()
    assert finish_times == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]


def test_resource_capacity_allows_parallelism():
    engine = Engine()
    res = Resource(engine, capacity=2)
    finish_times = []

    def worker():
        req = res.request()
        yield req
        yield engine.timeout(1.0)
        res.release(req)
        finish_times.append(engine.now)

    for _ in range(4):
        engine.process(worker())
    engine.run()
    assert finish_times == [
        pytest.approx(1.0),
        pytest.approx(1.0),
        pytest.approx(2.0),
        pytest.approx(2.0),
    ]


def test_resource_fifo_ordering():
    engine = Engine()
    res = Resource(engine, capacity=1)
    order = []

    def worker(tag, start_delay):
        yield engine.timeout(start_delay)
        req = res.request()
        yield req
        order.append(tag)
        yield engine.timeout(10.0)
        res.release(req)

    engine.process(worker("first", 0.0))
    engine.process(worker("second", 1.0))
    engine.process(worker("third", 2.0))
    engine.run()
    assert order == ["first", "second", "third"]


def test_acquire_helper_releases_on_exception():
    engine = Engine()
    res = Resource(engine, capacity=1)

    def failing_work():
        yield engine.timeout(0.1)
        raise ValueError("inner failure")

    def ok_work():
        yield engine.timeout(0.1)
        return "ok"

    def parent():
        try:
            yield engine.process(res.acquire(failing_work()))
        except ValueError:
            pass
        result = yield engine.process(res.acquire(ok_work()))
        return result

    assert engine.run_process(parent()) == "ok"
    assert res.in_use == 0


def test_release_wrong_resource_rejected():
    engine = Engine()
    res_a = Resource(engine, capacity=1)
    res_b = Resource(engine, capacity=1)
    req = res_a.request()
    with pytest.raises(SimulationError):
        res_b.release(req)


def test_resource_invalid_capacity():
    with pytest.raises(ValueError):
        Resource(Engine(), capacity=0)


def test_store_put_then_get():
    engine = Engine()
    store = Store(engine)
    store.put("a")
    store.put("b")

    def getter():
        first = yield store.get()
        second = yield store.get()
        return [first, second]

    assert engine.run_process(getter()) == ["a", "b"]


def test_store_get_blocks_until_put():
    engine = Engine()
    store = Store(engine)

    def producer():
        yield engine.timeout(2.0)
        store.put("late")

    def consumer():
        item = yield store.get()
        return item, engine.now

    engine.process(producer())
    item, now = engine.run_process(consumer())
    assert item == "late"
    assert now == pytest.approx(2.0)


def test_store_multiple_blocked_getters_fifo():
    engine = Engine()
    store = Store(engine)
    received = []

    def consumer(tag):
        item = yield store.get()
        received.append((tag, item))

    engine.process(consumer("g1"))
    engine.process(consumer("g2"))

    def producer():
        yield engine.timeout(1.0)
        store.put("x")
        store.put("y")

    engine.process(producer())
    engine.run()
    assert received == [("g1", "x"), ("g2", "y")]


class TestRelease:
    def test_a_cancelled_holders_release_hands_its_slot_on_and_the_purge_drops_it(self):
        engine = Engine()
        resource = Resource(engine)
        ran = []

        def holder():
            request = resource.request()
            yield request
            try:
                yield engine.timeout(5.0)
            finally:
                resource.release(request)

        def waiter():
            request = resource.request()
            yield request
            ran.append("waiter")
            resource.release(request)

        engine.process(holder())
        engine.process(waiter())
        engine.run(until=1.0)
        assert resource.queue_length == 1
        engine.purge()
        # The holder's cleanup handed the slot to the waiting request...
        assert resource.queue_length == 0 and resource.in_use == 1
        # ...whose waiter died with the purge, hand-off and all.
        engine.run()
        assert ran == []

    def test_live_resources_still_validate_ownership(self):
        engine = Engine()
        a = Resource(engine)
        b = Resource(engine)
        request = a.request()
        with pytest.raises(SimulationError):
            b.release(request)


class TestSettledHandOffs:
    """The contract the in-place sites rely on (docs/performance.md,
    "Settled hand-offs"): a grant or get that can be served at once
    returns an event that is already processed with its value in
    ``_value``, so its caller may read it without yielding."""

    def test_an_uncontended_grant_and_a_buffered_get_come_back_processed(self):
        engine = Engine()
        resource = Resource(engine)
        store = Store(engine)
        queue = BoundedQueue(engine, capacity=2)
        store.put("s")
        queue.put("q")
        grant, got, queued = resource.request(), store.get(), queue.get()
        assert grant._processed and grant._value is None
        assert got._processed and got._value == "s"
        assert queued._processed and queued._value == "q"

    def test_a_contended_grant_and_an_empty_get_stay_pending(self):
        engine = Engine()
        resource = Resource(engine)
        resource.request()
        assert not resource.request()._processed
        assert not Store(engine).get()._processed
        assert not BoundedQueue(engine, capacity=1).get()._processed

    @staticmethod
    def _twin(in_place):
        """Take a free slot 2.5 s in; return (now, sequence numbers spent)
        between the request and the step after it."""
        engine = Engine()
        resource = Resource(engine)
        seen = []

        def proc():
            yield engine.timeout(2.5)
            before = engine._sequence
            req = resource.request()
            if in_place:
                if not req._processed:
                    yield req
            else:
                yield req
            seen.append((engine.now, engine._sequence - before))
            resource.release(req)

        engine.run_process(proc())
        return seen[0]

    def test_continuing_in_place_keeps_the_instant_and_spends_no_sequence(self):
        assert self._twin(in_place=True) == (2.5, 0)
        assert self._twin(in_place=False) == (2.5, 1)
