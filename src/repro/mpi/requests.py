"""MPI request objects and the Testsome request array.

A request is the handle for one in-flight communication.  ``done`` flips
exactly once per *activation* (persistent requests can be re-started).
Completion schedules one inert kernel entry (``sim.call_soon(noop)``): the
completion notice keeps its place in the event stream, whose length and
seq numbering are part of the output fingerprint, without allocating an
event nobody waits on.

A :class:`RequestArray` is the array ``MPI_Testsome`` polls.  Its enrolled
requests push themselves onto the array's completion list when they
complete, so a Testsome costs host time in proportion to what completed,
while the simulated charge stays per active array entry.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterable, Optional

from repro.errors import MpiError
from repro.sim.core import Simulator, noop

__all__ = [
    "Request",
    "SendRequest",
    "RecvRequest",
    "PersistentRecvRequest",
    "RequestArray",
]


class Request:
    """Base request: completion flag plus activation flag."""

    __slots__ = ("sim", "req_id", "done", "active", "_array", "_akey")

    def __init__(self, sim: Simulator, req_id: int):
        self.sim = sim
        self.req_id = req_id
        self.done = False
        self.active = True
        #: The :class:`RequestArray` this request is enrolled in, and its
        #: key there (set on enrolment).
        self._array: Optional[RequestArray] = None

    def _complete(self) -> None:
        if self.done:
            raise MpiError(f"request {self.req_id} completed twice")
        self.done = True
        arr = self._array
        if arr is not None and self.active:
            arr._done.append(self)
        self.sim.call_soon(noop)

    def _deactivate(self) -> None:
        """Retire a completed request outside Testsome (``MPI_Wait``)."""
        if self.active:
            self.active = False
            arr = self._array
            if arr is not None:
                arr._active -= 1
                if self.done:
                    arr._done.remove(self)


class SendRequest(Request):
    """An in-flight send (eager or rendezvous)."""

    __slots__ = ("dst", "tag", "size", "payload", "protocol")

    def __init__(self, sim: Simulator, req_id: int, dst: int, tag: int, size: int, payload: Any):
        # Request.__init__, inlined: one frame less per request.
        self.sim = sim
        self.req_id = req_id
        self.done = False
        self.active = True
        self._array = None
        self.dst = dst
        self.tag = tag
        self.size = size
        self.payload = payload
        self.protocol: str = ""  # "eager" | "rndv", set by the library


class RecvRequest(Request):
    """An in-flight receive.  ``source``/``recv_tag``/``recv_size``/``payload``
    are filled at match/completion time (like ``MPI_Status``)."""

    __slots__ = ("src", "tag", "max_size", "source", "recv_tag", "recv_size", "payload")

    def __init__(
        self, sim: Simulator, req_id: int, src: Optional[int], tag: Optional[int], max_size: int
    ):
        # Request.__init__, inlined: one frame less per request.
        self.sim = sim
        self.req_id = req_id
        self.done = False
        self.active = True
        self._array = None
        self.src = src  # None = MPI_ANY_SOURCE
        self.tag = tag  # None = MPI_ANY_TAG
        self.max_size = max_size
        self.source: Optional[int] = None
        self.recv_tag: Optional[int] = None
        self.recv_size: Optional[int] = None
        self.payload: Any = None


class PersistentRecvRequest(RecvRequest):
    """A persistent receive (``MPI_Recv_init``): re-armable with ``start``.

    Between completion and the next ``start`` the request is inactive and is
    ignored by ``testsome``.
    """

    __slots__ = ()

    def __init__(
        self, sim: Simulator, req_id: int, src: Optional[int], tag: Optional[int], max_size: int
    ):
        super().__init__(sim, req_id, src, tag, max_size)
        self.active = False  # must be started first

    def _rearm(self) -> None:
        if self.active and not self.done:
            raise MpiError("MPI_Start on an already-active persistent request")
        arr = self._array
        if arr is not None:
            if self.active:
                # Completed but never reported: the re-start voids it.
                arr._done.remove(self)
            else:
                arr._active += 1
        self.done = False
        self.active = True
        self.source = None
        self.recv_tag = None
        self.recv_size = None
        self.payload = None


#: Keys of the appended region start here, above every fixed-region index.
_TAIL = 1 << 40


class RequestArray:
    """A Testsome request array: fixed entries, then appended entries.

    A request's *position* is its index in the array as ``MPI_Testsome``
    sees it.  Fixed entries (the MPI backend's persistent active-message
    receives; ``None`` holes allowed) keep their index.  Appended entries
    (data transfers) follow in enrolment order and close up when an
    earlier one is removed, as if the list were rebuilt without it.

    Invariants, kept by the request methods above and by Testsome:
    ``_active`` counts the enrolled requests that are active, and ``_done``
    holds exactly the enrolled requests that are active, done and not yet
    reported.  A request is enrolled in at most one array.
    """

    __slots__ = ("_fixed", "_tail", "_tail_keys", "_next", "_done", "_active")

    def __init__(self, requests: Iterable[Optional[Request]] = ()):
        self._fixed: list[Optional[Request]] = []
        self._tail: list[Request] = []
        #: Increasing keys of ``_tail`` (from ``_TAIL`` up): a key's rank
        #: here is the entry's offset past the fixed region.
        self._tail_keys: list[int] = []
        self._next = _TAIL
        self._done: list[Request] = []
        self._active = 0
        for req in requests:
            self._add_fixed(req)

    def __len__(self) -> int:
        return len(self._fixed) + len(self._tail)

    def _enrol(self, req: Request, key: int) -> None:
        if req._array is not None:
            raise MpiError(f"request {req.req_id} is already in a request array")
        req._array = self
        req._akey = key
        if req.active:
            self._active += 1
            if req.done:
                # Completed before enrolment (an eager send, a receive that
                # matched an unexpected message on posting): still reported.
                self._done.append(req)

    def _add_fixed(self, req: Optional[Request]) -> None:
        """Enrol ``req`` (or a ``None`` hole) at the end of the fixed region."""
        key = len(self._fixed)
        self._fixed.append(req)
        if req is not None:
            self._enrol(req, key)

    def _append(self, req: Request) -> None:
        """Enrol ``req`` at the end of the array."""
        key = self._next
        self._next = key + 1
        self._tail.append(req)
        self._tail_keys.append(key)
        self._enrol(req, key)

    def _pop(self, pos: int) -> Request:
        """Remove and return the appended entry at position ``pos``."""
        j = pos - len(self._fixed)
        del self._tail_keys[j]
        req = self._tail.pop(j)
        req._array = None
        if req.active:
            self._active -= 1
            if req.done:
                self._done.remove(req)
        return req

    def _release(self) -> None:
        """Un-enrol every entry (end of a one-call wrapped sequence)."""
        for req in self._fixed:
            if req is not None:
                req._array = None
        for req in self._tail:
            req._array = None

    def _active_before(self, n_fixed: int, next_key: int) -> int:
        """Active entries among those enrolled before the cut
        ``(n_fixed, next_key)`` — the array as it stood when a Testsome
        call began."""
        active = self._active
        fixed = self._fixed
        for k in range(n_fixed, len(fixed)):
            req = fixed[k]
            if req is not None and req.active:
                active -= 1
        keys = self._tail_keys
        j = len(keys)
        while j and keys[j - 1] >= next_key:
            j -= 1
            if self._tail[j].active:
                active -= 1
        return active

    def _report(self, n_fixed: int, next_key: int) -> list[int]:
        """Deactivate and return, in position order, the completed entries
        enrolled before the cut ``(n_fixed, next_key)``."""
        done = self._done
        self._done = []
        out = []
        for req in done:
            key = req._akey
            if key < n_fixed:
                out.append(key)
            elif _TAIL <= key < next_key:
                out.append(len(self._fixed) + bisect_left(self._tail_keys, key))
            else:
                self._done.append(req)  # enrolled after the call began
                continue
            req.active = False
        self._active -= len(out)
        if len(out) > 1:
            out.sort()
        return out
