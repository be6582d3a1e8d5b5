"""Queues built on the event kernel.

:class:`Store` and :class:`PriorityStore` hand out
:class:`~repro.sim.core.Event` objects (``item = yield store.get()``) and
have non-blocking ``try_put``/``try_get`` twins; :class:`NotifyQueue` wakes
a parked process (``yield PARK``) when it becomes non-empty.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush, heappop
from typing import Any

from repro.sim.core import Event, Process, Simulator, noop

__all__ = ["Store", "PriorityStore", "NotifyQueue"]


class Store:
    """An unbounded FIFO of items.

    ``get()`` returns an event that triggers with the next item; ``put(item)``
    returns an event that has already triggered (a store never blocks).
    """

    __slots__ = ("sim", "_items", "_getters")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: deque = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of queued items (diagnostic)."""
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        """Accept an item; the returned event has already fired."""
        evt = Event(self.sim)
        if self._getters:
            # Hand straight to the oldest waiting getter.
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)
        evt.succeed()
        return evt

    def try_put(self, item: Any) -> bool:
        """Put without the acceptance event; always True."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)
        return True

    def get(self) -> Event:
        """Event that fires with the next item (FIFO)."""
        evt = Event(self.sim)
        if self._items:
            evt.succeed(self._items.popleft())
        else:
            self._getters.append(evt)
        return evt

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; returns (ok, item)."""
        if self._items:
            return True, self._items.popleft()
        return False, None


class PriorityStore(Store):
    """A store that releases the *lowest-priority-key* item first.

    Items are ``(priority, payload)`` pairs; ties release in insertion order.
    """

    __slots__ = ("_seq",)

    def __init__(self, sim: Simulator):
        super().__init__(sim)
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


class NotifyQueue:
    """A FIFO whose consumer parks until it is non-empty.

    Unlike :class:`Store`, waiting does **not** pop an item: a parked
    process is woken when the queue becomes non-empty, then drains with
    :meth:`try_pop`.  This is the shape both communication backends need:
    a thread parks until *any* work exists, then drains everything.
    """

    __slots__ = ("sim", "_items", "_waiters")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: deque = deque()
        #: Parked :class:`Process` es (from :meth:`park`).
        self._waiters: list = []

    def push(self, item: Any) -> None:
        self._items.append(item)
        if self._waiters:
            waiters, self._waiters = self._waiters, []
            # wake() is idempotent, so a process registered with several
            # queues (an engine watching both its FIFOs) wakes exactly once.
            for proc in waiters:
                proc.wake()

    def try_pop(self) -> tuple[bool, Any]:
        """Non-blocking pop; returns (ok, item)."""
        if self._items:
            return True, self._items.popleft()
        return False, None

    def park(self, proc: Process) -> bool:
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
