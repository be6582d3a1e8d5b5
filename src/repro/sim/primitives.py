"""Synchronisation primitives built on the event kernel.

All primitives hand out :class:`~repro.sim.core.Event` objects, so processes
use them uniformly: ``item = yield store.get()``.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush, heappop
from typing import Any, Optional

from repro.errors import SimulationError
from repro.sim.core import Event, Process, Simulator, noop

__all__ = ["Store", "PriorityStore", "Resource", "Semaphore", "Latch", "NotifyQueue"]


class Store:
    """An unbounded (or capacity-bounded) FIFO of items.

    ``get()`` returns an event that triggers with the next item; ``put(item)``
    returns an event that triggers once the item is accepted (immediately
    unless the store is at capacity).
    """

    __slots__ = ("sim", "capacity", "_items", "_getters", "_putters")

    def __init__(self, sim: Simulator, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise SimulationError("Store capacity must be positive or None")
        self.sim = sim
        self.capacity = capacity
        self._items: deque = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of queued items (diagnostic)."""
        return tuple(self._items)

    @property
    def waiters(self) -> tuple:
        """``(blocked getters, blocked putters)`` — deadlock diagnostics.

        The schedule explorer's quiescence checker reads this after a run:
        a drained simulation should leave no process parked on a store.
        """
        return (len(self._getters), len(self._putters))

    def put(self, item: Any) -> Event:
        """Offer an item; the returned event fires when it is accepted."""
        evt = Event(self.sim)
        if self._getters:
            # Hand straight to the oldest waiting getter.
            getter = self._getters.popleft()
            getter.succeed(item)
            evt.succeed()
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            evt.succeed()
        else:
            self._putters.append((evt, item))
        return evt

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; False when the store is full."""
        if self._getters:
            self._getters.popleft().succeed(item)
            return True
        if self.capacity is not None and len(self._items) >= self.capacity:
            return False
        self._items.append(item)
        return True

    def get(self) -> Event:
        """Event that fires with the next item (FIFO)."""
        evt = Event(self.sim)
        if self._items:
            evt.succeed(self._items.popleft())
            self._admit_putter()
        else:
            self._getters.append(evt)
        return evt

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; returns (ok, item)."""
        if self._items:
            item = self._items.popleft()
            self._admit_putter()
            return True, item
        return False, None

    def _admit_putter(self) -> None:
        if self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            evt, item = self._putters.popleft()
            self._items.append(item)
            evt.succeed()


class PriorityStore(Store):
    """A store that releases the *lowest-priority-key* item first.

    Items are ``(priority, payload)`` pairs; ties release in insertion order.
    """

    __slots__ = ("_seq",)

    def __init__(self, sim: Simulator):
        super().__init__(sim, capacity=None)
        self._items: list = []  # heap of (priority, seq, payload)
        self._seq = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of queued payloads in priority order (diagnostic)."""
        return tuple(payload for _p, _s, payload in sorted(self._items))

    def put(self, item: Any) -> Event:
        """Accept a ``(priority, payload)`` pair (never blocks)."""
        evt = Event(self.sim)
        self._accept(item)
        evt.succeed()
        return evt

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; a priority store always accepts.

        Same kernel entries as :meth:`put` without building its inert
        acceptance event: an inert ``noop`` takes that event's seq."""
        self._accept(item)
        self.sim.call_soon(noop)
        return True

    def _accept(self, item: Any) -> None:
        """Hand the payload to the oldest getter, or queue it."""
        priority, payload = item
        if self._getters:
            self._getters.popleft().succeed(payload)
        else:
            self._seq += 1
            heappush(self._items, (priority, self._seq, payload))

    def get(self) -> Event:
        """Event that fires with the lowest-key payload."""
        evt = Event(self.sim)
        if self._items:
            _p, _s, payload = heappop(self._items)
            evt.succeed(payload)
        else:
            self._getters.append(evt)
        return evt

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; returns (ok, payload)."""
        if self._items:
            _p, _s, payload = heappop(self._items)
            return True, payload
        return False, None


class Resource:
    """A counted resource with FIFO acquisition.

    ``acquire()`` yields an event; callers must call ``release()`` exactly
    once per successful acquisition.
    """

    __slots__ = ("sim", "capacity", "_in_use", "_waiters")

    def __init__(self, sim: Simulator, capacity: int):
        if capacity <= 0:
            raise SimulationError("Resource capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Currently held slots."""
        return self._in_use

    @property
    def available(self) -> int:
        """Free slots."""
        return self.capacity - self._in_use

    def acquire(self) -> Event:
        """Event that fires once a slot is held (FIFO)."""
        evt = Event(self.sim)
        if self._in_use < self.capacity:
            self._in_use += 1
            evt.succeed()
        else:
            self._waiters.append(evt)
        return evt

    def try_acquire(self) -> bool:
        """Take a slot if one is free; False otherwise."""
        if self._in_use < self.capacity:
            self._in_use += 1
            return True
        return False

    def release(self) -> None:
        """Return a slot, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("Resource.release without acquire")
        if self._waiters:
            # Hand the slot straight to the next waiter.
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1


class Semaphore:
    """A counting semaphore (may start at zero)."""

    __slots__ = ("sim", "_value", "_waiters")

    def __init__(self, sim: Simulator, value: int = 0):
        if value < 0:
            raise SimulationError("Semaphore value must be non-negative")
        self.sim = sim
        self._value = value
        self._waiters: deque[Event] = deque()

    @property
    def value(self) -> int:
        """Current counter value."""
        return self._value

    def acquire(self) -> Event:
        """Event that fires once the counter can be decremented."""
        evt = Event(self.sim)
        if self._value > 0:
            self._value -= 1
            evt.succeed()
        else:
            self._waiters.append(evt)
        return evt

    def release(self, n: int = 1) -> None:
        """Increment the counter ``n`` times, waking waiters first."""
        for _ in range(n):
            if self._waiters:
                self._waiters.popleft().succeed()
            else:
                self._value += 1


class NotifyQueue:
    """A non-consuming notification FIFO.

    Unlike :class:`Store`, waiting on :meth:`event` does **not** pop an item:
    it just fires when the queue is (or becomes) non-empty.  Consumers drain
    with :meth:`try_pop`.  This is the shape both communication backends
    need: a thread parks until *any* work exists, then drains everything.
    """

    __slots__ = ("sim", "_items", "_waiters")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: deque = deque()
        #: Mixed waiter list: one-shot :class:`Event` s (from :meth:`event`)
        #: and parked :class:`Process` es (from :meth:`park`).
        self._waiters: list = []

    def push(self, item: Any) -> None:
        self._items.append(item)
        if self._waiters:
            waiters, self._waiters = self._waiters, []
            for w in waiters:
                if isinstance(w, Process):
                    # A parked Process — wake() is idempotent, so a process
                    # registered with several queues wakes exactly once.
                    w.wake()
                elif not w.triggered:
                    # A waiter may be registered with several queues (e.g. an
                    # engine watching both its FIFOs); only fire it once.
                    w.succeed()

    def try_pop(self) -> tuple[bool, Any]:
        """Non-blocking pop; returns (ok, item)."""
        if self._items:
            return True, self._items.popleft()
        return False, None

    def event(self) -> Event:
        """Event firing when the queue is non-empty (now or later)."""
        evt = Event(self.sim)
        if self._items:
            evt.succeed()
        else:
            self._waiters.append(evt)
        return evt

    def park(self, proc) -> bool:
        """Register a parked process to be woken on the next :meth:`push`.

        Returns ``False`` (and registers nothing) when items are already
        queued — the caller should drain instead of parking.  Registration
        is deduplicated, so a poller that parks on every idle cycle keeps
        exactly one slot in the waiter list.
        """
        if self._items:
            return False
        if proc not in self._waiters:
            self._waiters.append(proc)
        return True

    def __len__(self) -> int:
        return len(self._items)


class Latch:
    """A countdown latch: triggers its event when the count reaches zero."""

    __slots__ = ("sim", "_count", "event")

    def __init__(self, sim: Simulator, count: int):
        if count < 0:
            raise SimulationError("Latch count must be non-negative")
        self.sim = sim
        self._count = count
        self.event = Event(sim)
        if count == 0:
            self.event.succeed()

    @property
    def count(self) -> int:
        """Remaining count before the latch opens."""
        return self._count

    def count_down(self, n: int = 1) -> None:
        """Decrement; opens the latch (fires the event) at zero."""
        if self._count <= 0:
            raise SimulationError("Latch already released")
        self._count -= n
        if self._count < 0:
            raise SimulationError("Latch count went negative")
        if self._count == 0:
            self.event.succeed()

    def wait(self) -> Event:
        """The latch event (fires when the count reaches zero)."""
        return self.event
