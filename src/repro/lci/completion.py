"""LCI completion mechanisms: records, queues, synchronizers.

LCI lets each operation choose how completion is signalled (§5.1):

- a **handler** — a plain callable invoked by the progress engine;
- a **completion queue** — records pushed by progress, popped by consumers;
- a **synchronizer** — a one-shot waitable, analogous to an MPI request.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.config import LciCosts
from repro.sim.core import Event, Simulator
from repro.sim.primitives import Store

__all__ = ["CompletionRecord", "CompletionQueue", "Synchronizer"]


class CompletionRecord:
    """What completed: operation kind, peer, tag, size, and user context.

    ``op`` is ``"sendb"``, ``"sendd"``, ``"recvd"``, ``"am"`` or
    ``"putd_remote"``.  A plain ``__slots__`` class: one is built per
    completion, and a frozen dataclass costs over twice as much to make.
    """

    __slots__ = ("op", "peer", "tag", "size", "user_ctx", "payload")

    def __init__(
        self, op: str, peer: int, tag: int, size: int,
        user_ctx: Any = None, payload: Any = None,
    ):
        self.op = op
        self.peer = peer
        self.tag = tag
        self.size = size
        self.user_ctx = user_ctx
        self.payload = payload

    def __repr__(self) -> str:
        return (
            f"CompletionRecord(op={self.op!r}, peer={self.peer!r}, "
            f"tag={self.tag!r}, size={self.size!r}, "
            f"user_ctx={self.user_ctx!r}, payload={self.payload!r})"
        )


class CompletionQueue:
    """A FIFO of completion records.

    Pushes happen inside progress (cost folded into the drain); pops charge
    ``costs.cq_pop`` to the consuming thread.
    """

    def __init__(self, sim: Simulator, costs: Optional[LciCosts] = None):
        self.sim = sim
        self.costs = costs or LciCosts()
        self._store = Store(sim)

    def push(self, record: CompletionRecord) -> None:
        """Enqueue a completion (called by the progress engine)."""
        self._store.try_put(record)

    def pop(self) -> Generator[Any, Any, CompletionRecord]:
        """Blocking pop (generator)."""
        record = yield self._store.get()
        yield self.costs.cq_pop
        return record

    def try_pop(self) -> Optional[CompletionRecord]:
        """Non-blocking pop; None when empty.  The consumer should charge
        ``costs.cq_pop`` itself when batching (the backends do)."""
        ok, record = self._store.try_get()
        return record if ok else None

    def __len__(self) -> int:
        return len(self._store)


class Synchronizer:
    """A one-shot completion flag a thread can wait on (like an LCI sync /
    MPI request)."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.event = Event(sim)
        self.record: Optional[CompletionRecord] = None

    @property
    def triggered(self) -> bool:
        """True once signalled."""
        return self.event.triggered

    def signal(self, record: CompletionRecord) -> None:
        """Mark complete with ``record`` (wakes any waiter)."""
        self.record = record
        self.event.succeed(record)

    def wait(self) -> Generator[Any, Any, CompletionRecord]:
        """Yield until signalled; returns the completion record."""
        record = yield self.event
        return record
