"""Unit tests for stores and semaphores."""

import pytest

from repro.errors import SimulationError
from repro.sim.core import Simulator
from repro.sim.primitives import Store, PriorityStore, Semaphore


@pytest.fixture()
def sim():
    return Simulator()


class TestStore:
    def test_put_then_get_fifo(self, sim):
        store = Store(sim)

        def proc():
            yield store.put("a")
            yield store.put("b")
            first = yield store.get()
            second = yield store.get()
            return (first, second)

        assert sim.run_process(proc()) == ("a", "b")

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)

        def producer():
            yield sim.timeout(2.0)
            yield store.put("item")

        def consumer():
            item = yield store.get()
            return (sim.now, item)

        sim.process(producer())
        assert sim.run_process(consumer()) == (pytest.approx(2.0), "item")

    def test_capacity_blocks_put(self, sim):
        store = Store(sim, capacity=1)
        log = []

        def producer():
            yield store.put(1)
            log.append(("put1", sim.now))
            yield store.put(2)
            log.append(("put2", sim.now))

        def consumer():
            yield sim.timeout(5.0)
            item = yield store.get()
            log.append(("got", sim.now, item))

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert log == [("put1", 0.0), ("got", 5.0, 1), ("put2", 5.0)]

    def test_try_put_try_get(self, sim):
        store = Store(sim, capacity=1)
        assert store.try_put("x") is True
        assert store.try_put("y") is False
        ok, item = store.try_get()
        assert (ok, item) == (True, "x")
        ok, item = store.try_get()
        assert ok is False

    def test_multiple_getters_fifo_order(self, sim):
        store = Store(sim)
        got = []

        def getter(tag):
            item = yield store.get()
            got.append((tag, item))

        for tag in "abc":
            sim.process(getter(tag))

        def producer():
            yield sim.timeout(1.0)
            for i in range(3):
                yield store.put(i)

        sim.process(producer())
        sim.run()
        assert got == [("a", 0), ("b", 1), ("c", 2)]

    def test_invalid_capacity(self, sim):
        with pytest.raises(SimulationError):
            Store(sim, capacity=0)

    def test_len_and_items(self, sim):
        store = Store(sim)
        store.try_put(1)
        store.try_put(2)
        assert len(store) == 2
        assert store.items == (1, 2)


class TestPriorityStore:
    def test_lowest_priority_first(self, sim):
        store = PriorityStore(sim)

        def proc():
            yield store.put((5, "low"))
            yield store.put((1, "high"))
            yield store.put((3, "mid"))
            out = []
            for _ in range(3):
                out.append((yield store.get()))
            return out

        assert sim.run_process(proc()) == ["high", "mid", "low"]

    def test_ties_fifo(self, sim):
        store = PriorityStore(sim)
        for i in range(5):
            store.try_put((0, i))
        out = [store.try_get()[1] for _ in range(5)]
        assert out == list(range(5))

    def test_blocked_getter_receives_directly(self, sim):
        store = PriorityStore(sim)

        def consumer():
            item = yield store.get()
            return item

        def producer():
            yield sim.timeout(1.0)
            yield store.put((9, "direct"))

        sim.process(producer())
        assert sim.run_process(consumer()) == "direct"


class TestSemaphore:
    def test_initial_value(self, sim):
        sem = Semaphore(sim, value=2)

        def proc():
            yield sem.acquire()
            yield sem.acquire()
            return sim.now

        assert sim.run_process(proc()) == 0.0
        assert sem.value == 0

    def test_blocks_at_zero(self, sim):
        sem = Semaphore(sim)

        def waiter():
            yield sem.acquire()
            return sim.now

        def releaser():
            yield sim.timeout(3.0)
            sem.release()

        sim.process(releaser())
        assert sim.run_process(waiter()) == pytest.approx(3.0)

    def test_release_many(self, sim):
        sem = Semaphore(sim)
        sem.release(5)
        assert sem.value == 5

    def test_negative_initial_rejected(self, sim):
        with pytest.raises(SimulationError):
            Semaphore(sim, value=-1)

