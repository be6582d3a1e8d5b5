"""Unit tests for the stores and the notify queue."""

import pytest

from repro.sim.core import PARK, Simulator
from repro.sim.primitives import NotifyQueue, PriorityStore, Store


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

    def test_try_put_try_get(self, sim):
        store = Store(sim)
        assert store.try_put("x") is True
        assert store.try_put("y") is True
        assert store.try_get() == (True, "x")
        assert store.try_get() == (True, "y")
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


class TestNotifyQueue:
    def test_park_refused_while_items_queued(self, sim):
        q = NotifyQueue(sim)
        q.push("x")
        proc = object()  # park only registers it
        assert q.park(proc) is False
        assert q.try_pop() == (True, "x")
        assert q.park(proc) is True

    def test_push_wakes_a_process_parked_on_two_queues_once(self, sim):
        a, b = NotifyQueue(sim), NotifyQueue(sim)
        woken = []

        def poller(me):
            while True:
                # Registering with ``a`` twice must still leave one slot.
                if a.park(me[0]) and b.park(me[0]) and a.park(me[0]):
                    yield PARK
                woken.append(sim.now)
                while a.try_pop()[0] or b.try_pop()[0]:
                    pass
                if len(woken) == 2:
                    return

        holder = []
        holder.append(sim.process(poller(holder)))
        sim.call_later(1.0, a.push, "x")
        sim.call_later(1.0, b.push, "y")
        sim.call_later(2.0, b.push, "z")
        sim.run()
        assert woken == [1.0, 2.0]
