"""The task scheduler: one shared priority queue per node.

Priority is the DAG's critical-path annotation.  Any thread that makes a
task ready calls ``push(priority_key, task)``; a worker yields from the
generator ``pop(me)`` until a task is available (``me`` is the worker's
one-slot Process holder; see :meth:`CentralScheduler.pop`).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Generator, Optional

from repro.errors import RuntimeBackendError
from repro.sim.core import PARK, Simulator, noop

__all__ = ["CentralScheduler"]


class CentralScheduler:
    """One shared priority queue; lowest key pops first (ties FIFO).

    Ready tasks reach workers without an :class:`Event`: a worker that
    finds work takes it and sleeps for zero time; an idle worker parks
    (``yield PARK``) and :meth:`push` hands it the task through
    :meth:`~repro.sim.core.Process.wake`.  Each push also schedules one
    inert ``noop`` — the kernel entries and their seq order are exactly
    those of a getter/putter event pair on a priority store.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._heap: list = []  # (key, seq, task)
        self._seq = 0
        #: Parked idle workers, oldest first.
        self._idle: deque = deque()

    def push(self, key: float, task: Any) -> None:
        """Make a task ready."""
        if self._idle:
            self._idle.popleft().wake(task)
        else:
            self._seq += 1
            heappush(self._heap, (key, self._seq, task))
        self.sim.call_soon(noop)

    def pop(self, me: Optional[list] = None) -> Generator[Any, Any, Any]:
        """Yield until a task is available; returns the best-priority task.

        ``me`` holds the calling worker's Process in its one slot; an idle
        worker parks on it, so only a pop that finds work may omit it.
        """
        if self._heap:
            task = heappop(self._heap)[2]
            yield 0
            return task
        if me is None:
            raise RuntimeBackendError(
                "CentralScheduler.pop on an empty queue needs the worker's "
                "Process holder"
            )
        self._idle.append(me[0])
        return (yield PARK)

    def __len__(self) -> int:
        return len(self._heap)
