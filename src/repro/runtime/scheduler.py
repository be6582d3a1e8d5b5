"""Task scheduler policies.

PaRSEC's scheduler is hierarchical: each compute thread owns a local queue
(tasks it made ready stay local, preserving cache affinity) and steals from
its siblings when idle.  We provide both that policy and a simple central
priority queue:

- :class:`CentralScheduler` — one shared priority queue per node (the
  default; priority = the DAG's critical-path annotation);
- :class:`WorkStealingScheduler` — per-worker priority queues with
  release-to-own-queue placement and round-robin stealing.

Both expose the same interface: ``push(priority_key, task, origin)`` from
whatever thread makes a task ready, and the generator ``pop(worker_id,
me)`` that a worker yields from until a task is available (``me`` is the
worker's one-slot Process holder; see :meth:`CentralScheduler.pop`).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Generator, Optional

from repro.errors import RuntimeBackendError
from repro.sim.core import PARK, Simulator, noop
from repro.sim.primitives import Semaphore

__all__ = ["CentralScheduler", "WorkStealingScheduler", "make_scheduler"]


class CentralScheduler:
    """One shared priority queue; lowest key pops first (ties FIFO).

    Ready tasks reach workers without an :class:`Event`: a worker that
    finds work takes it and sleeps for zero time; an idle worker parks
    (``yield PARK``) and :meth:`push` hands it the task through
    :meth:`~repro.sim.core.Process.wake`.  Each push also schedules one
    inert ``noop`` — the kernel entries and their seq order are exactly
    those of a getter/putter event pair on a priority store.
    """

    kind = "central"

    def __init__(self, sim: Simulator, num_workers: int):
        self.sim = sim
        self._heap: list = []  # (key, seq, task)
        self._seq = 0
        #: Parked idle workers, oldest first.
        self._idle: deque = deque()

    def push(self, key: float, task: Any, origin: Optional[int] = None) -> None:
        """Make a task ready (``origin`` is ignored for the central queue)."""
        if self._idle:
            self._idle.popleft().wake(task)
        else:
            self._seq += 1
            heappush(self._heap, (key, self._seq, task))
        self.sim.call_soon(noop)

    def pop(
        self, worker_id: int, me: Optional[list] = None
    ) -> Generator[Any, Any, Any]:
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


class WorkStealingScheduler:
    """Per-worker priority queues with stealing (PaRSEC-style locality).

    A task released by worker *w* lands in *w*'s queue; tasks released by
    non-worker threads (the comm thread delivering remote data) are
    distributed round-robin.  An idle worker drains its own queue first,
    then steals the best task from the nearest non-empty sibling queue.
    """

    kind = "ws"

    def __init__(self, sim: Simulator, num_workers: int):
        if num_workers < 1:
            raise RuntimeBackendError("need at least one worker")
        self.sim = sim
        self.num_workers = num_workers
        self.queues: list[list] = [[] for _ in range(num_workers)]
        self._available = Semaphore(sim)
        self._seq = 0
        self._rr = 0
        #: Number of pops satisfied by stealing (diagnostic).
        self.steals = 0
        #: Number of pops satisfied locally.
        self.local_hits = 0

    def push(self, key: float, task: Any, origin: Optional[int] = None) -> None:
        """Make a task ready on ``origin``'s queue (round-robin if none)."""
        if origin is None or not 0 <= origin < self.num_workers:
            origin = self._rr
            self._rr = (self._rr + 1) % self.num_workers
        self._seq += 1
        heappush(self.queues[origin], (key, self._seq, task))
        self._available.release()

    def pop(
        self, worker_id: int, me: Optional[list] = None
    ) -> Generator[Any, Any, Any]:
        """Take from the local queue, stealing from siblings when empty
        (``me`` is unused: waiting goes through the semaphore)."""
        yield self._available.acquire()
        # The semaphore guarantees one task exists somewhere; the scan below
        # runs atomically (no yields), so it always finds it.
        own = self.queues[worker_id]
        if own:
            self.local_hits += 1
            return heappop(own)[2]
        for i in range(1, self.num_workers):
            q = self.queues[(worker_id + i) % self.num_workers]
            if q:
                self.steals += 1
                return heappop(q)[2]
        raise RuntimeBackendError("scheduler semaphore out of sync")

    def __len__(self) -> int:
        return sum(len(q) for q in self.queues)


def make_scheduler(kind: str, sim: Simulator, num_workers: int):
    """Factory: ``central`` (default) or ``ws`` (work stealing)."""
    if kind == "central":
        return CentralScheduler(sim, num_workers)
    if kind == "ws":
        return WorkStealingScheduler(sim, num_workers)
    raise RuntimeBackendError(f"unknown scheduler {kind!r}")
