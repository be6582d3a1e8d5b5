"""The simulated MPI world: per-rank library instances and protocol logic.

Usage from a simulated thread (a DES process)::

    world = MpiWorld(sim, fabric, costs)
    rank0 = world.ranks[0]
    req = yield from rank0.isend(dst=1, tag=7, size=4096, payload=obj)
    ...
    done = yield from rank0.testsome(request_array)

Key modelled behaviours (matching the paper's description of Open MPI):

- **Progress only inside calls.**  Wire deliveries land in a per-rank inbox;
  matching, rendezvous replies, and completions happen when some local
  thread enters the library (``testsome``/``wait``/...).  A comm thread busy
  in a long callback therefore delays *all* protocol processing — §4.3.
- **Eager vs rendezvous.** Sends at or below ``costs.rendezvous_threshold``
  copy into bounce buffers and complete locally at once; larger sends issue
  an RTS and move data only after the CTS arrives, completing when the NIC
  finishes reading the buffer (FIN modelled at data-delivery time).
- **Library lock.**  Concurrent calls from multiple simulated threads
  serialize on an internal lock, reproducing the multithreaded-MPI
  behaviour studied in §6.4.3.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Generator, Optional, Sequence

from repro.config import MpiCosts
from repro.errors import MpiError
from repro.mpi.matching import Envelope, MatchEngine
from repro.mpi.requests import (
    PersistentRecvRequest,
    RecvRequest,
    Request,
    RequestArray,
    SendRequest,
)
from repro.network.fabric import Fabric
from repro.network.message import MessageClass, WireMessage
from repro.obs.bus import ObsBus
from repro.sim.core import Event, Process, Simulator
from repro.units import KiB

__all__ = ["MpiWorld", "MpiRank", "ANY_SOURCE"]

#: Wildcard source (``MPI_ANY_SOURCE``).
ANY_SOURCE: Optional[int] = None

#: Bytes of protocol header added to every wire message.
_HEADER = 64
#: Size of RTS/CTS control messages.
_CTRL = 64
#: Wire class threshold: small messages ride the control virtual channel.
_CTRL_CLASS_MAX = 4 * KiB


#: Module-level copies: a global read is much cheaper than an enum
#: class-attribute read on the per-message path.  For the same reason the
#: per-message ``WireMessage`` calls are positional: (src, dst, size,
#: msg_class, payload, channel).
_CONTROL = MessageClass.CONTROL
_DATA = MessageClass.DATA


def _wire_class(size: int) -> MessageClass:
    return _CONTROL if size <= _CTRL_CLASS_MAX else _DATA


class MpiWorld:
    """All ranks of a simulated MPI job (one rank per fabric node)."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        costs: Optional[MpiCosts] = None,
        allow_overtaking: bool = False,
        obs: Optional[ObsBus] = None,
    ):
        self.sim = sim
        self.fabric = fabric
        self.costs = costs or MpiCosts()
        self.allow_overtaking = allow_overtaking
        self.obs = obs if obs is not None else sim.obs
        #: Request ids, unique across the job's ranks.
        self.req_ids = itertools.count()
        self.ranks = [
            MpiRank(self, rank) for rank in range(fabric.num_nodes)
        ]

    @property
    def size(self) -> int:
        """Number of ranks (= fabric nodes)."""
        return len(self.ranks)


class MpiRank:
    """One rank's library instance."""

    def __init__(self, world: MpiWorld, rank: int):
        self.world = world
        self.sim = world.sim
        self.costs = world.costs
        self.rank = rank
        self._n_ranks = world.fabric.num_nodes
        self._req_ids = world.req_ids
        self.match = MatchEngine()
        self._inbox: deque[WireMessage] = deque()
        self._sends: dict[int, SendRequest] = {}
        self._rndv_recvs: dict[int, RecvRequest] = {}
        self._waiters: list[Event] = []
        self._locked = False
        self._lock_queue: deque[Event] = deque()
        # Per-rank instruments (null-bus: shared no-op singletons, so they
        # are touched only when the bus is enabled).
        obs = world.obs
        self.obs = obs
        self._obs_on = obs.enabled
        self._c_eager = obs.counter("mpi.eager_sends", rank)
        self._c_rndv = obs.counter("mpi.rndv_sends", rank)
        self._c_unexpected = obs.counter("mpi.unexpected_msgs", rank)
        self._h_unexp_depth = obs.histogram("mpi.unexpected_depth", rank)
        self._h_posted_depth = obs.histogram("mpi.posted_depth", rank)
        world.fabric.register_handler(rank, "mpi", self._on_wire)

    # ------------------------------------------------------------------
    # wire side (no CPU charged here — the NIC delivered into the inbox)
    # ------------------------------------------------------------------

    def _on_wire(self, msg: WireMessage) -> None:
        if msg.payload["kind"] == "rma_put":
            # One-sided data lands directly in window memory; the target's
            # software stack never sees it (completion is origin-side only,
            # through the message's ``_fin`` hint).
            return
        self._inbox.append(msg)
        self._notify()

    def _notify(self) -> None:
        if not self._waiters:
            return
        waiters, self._waiters = self._waiters, []
        for w in waiters:
            if isinstance(w, Process):
                w.wake()
            else:
                w.succeed()

    def activity_event(self) -> Event:
        """Event that fires on the next inbox delivery or completion.

        If work is already pending the event fires immediately.
        """
        evt = Event(self.sim)
        if self._inbox:
            evt.succeed()
        else:
            self._waiters.append(evt)
        return evt

    def park(self, proc: Process) -> bool:
        """Register a parked process for the next delivery/completion.

        Returns ``False`` when inbox work is already pending — the caller
        should drain instead of parking.  Registration is deduplicated.
        """
        if self._inbox:
            return False
        if proc not in self._waiters:
            self._waiters.append(proc)
        return True

    @property
    def pending_incoming(self) -> int:
        """Wire messages delivered but not yet progressed (diagnostic)."""
        return len(self._inbox)

    # ------------------------------------------------------------------
    # internal lock (serializes concurrent threads, §6.4.3)
    #
    # Every call takes and releases the lock inline: a free lock is just
    # flagged; a held one queues the caller on an event (``_lock_wait``),
    # and release hands the lock to the oldest waiter.
    # ------------------------------------------------------------------

    def _lock_wait(self) -> Generator:
        evt = Event(self.sim)
        self._lock_queue.append(evt)
        yield evt

    # ------------------------------------------------------------------
    # public API (generator methods: `yield from` them)
    # ------------------------------------------------------------------

    def isend(
        self, dst: int, tag: int, size: int, payload: Any = None
    ) -> Generator[Any, Any, SendRequest]:
        """Non-blocking send.  Eager below the threshold, rendezvous above."""
        if not 0 <= dst < self._n_ranks:
            raise MpiError(f"invalid destination rank {dst}")
        if size < 0:
            raise MpiError("negative send size")
        if self._locked:
            yield from self._lock_wait()
        else:
            self._locked = True
        try:
            costs = self.costs
            sreq = SendRequest(self.sim, next(self._req_ids), dst, tag, size, payload)
            if size <= costs.rendezvous_threshold:
                sreq.protocol = "eager"
                if self._obs_on:
                    self._c_eager.inc()
                    self.obs.emit(
                        "mpi_eager_send", self.rank, key=(self.rank, dst, tag), info=size
                    )
                yield costs.eager_send + size * costs.eager_copy_per_byte
                self.world.fabric.send(
                    WireMessage(
                        self.rank,
                        dst,
                        size + _HEADER,
                        _wire_class(size + _HEADER),
                        {
                            "kind": "eager",
                            "tag": tag,
                            "size": size,
                            "data": payload,
                            "sreq": sreq.req_id,
                        },
                        "mpi",
                    )
                )
                # Buffer copied out — locally complete immediately.
                sreq._complete()
            else:
                sreq.protocol = "rndv"
                if self._obs_on:
                    self._c_rndv.inc()
                    self.obs.emit(
                        "mpi_rndv_rts", self.rank, key=(self.rank, dst, tag), info=size
                    )
                self._sends[sreq.req_id] = sreq
                yield costs.post_request
                self.world.fabric.send(
                    WireMessage(
                        self.rank,
                        dst,
                        _CTRL,
                        _CONTROL,
                        {"kind": "rts", "tag": tag, "size": size, "sreq": sreq.req_id},
                        "mpi",
                    )
                )
            return sreq
        finally:
            if self._lock_queue:
                self._lock_queue.popleft().succeed()
            else:
                self._locked = False

    def _check_recv(self, src: Optional[int], max_size: int) -> None:
        if src is not ANY_SOURCE and not 0 <= src < self._n_ranks:
            raise MpiError(f"invalid source rank {src}")
        if max_size < 0:
            raise MpiError("negative receive size")

    def irecv(
        self, src: Optional[int], tag: Optional[int], max_size: int
    ) -> Generator[Any, Any, RecvRequest]:
        """Non-blocking receive; ``src=None`` is ``MPI_ANY_SOURCE``."""
        self._check_recv(src, max_size)
        if self._locked:
            yield from self._lock_wait()
        else:
            self._locked = True
        try:
            rreq = RecvRequest(self.sim, next(self._req_ids), src, tag, max_size)
            yield self.costs.post_request
            env = self.match.post_recv(rreq)
            if env is not None:
                yield self._match_begin(rreq, env)
                self._match_end(rreq, env)
            elif self._obs_on:
                self._h_posted_depth.observe(self.match.posted_count)
            return rreq
        finally:
            if self._lock_queue:
                self._lock_queue.popleft().succeed()
            else:
                self._locked = False

    def recv_init(
        self, src: Optional[int], tag: Optional[int], max_size: int
    ) -> PersistentRecvRequest:
        """Create (but do not start) a persistent receive."""
        self._check_recv(src, max_size)
        return PersistentRecvRequest(self.sim, next(self._req_ids), src, tag, max_size)

    def start(self, preq: PersistentRecvRequest) -> Generator:
        """Arm (or re-arm) a persistent receive — ``MPI_Start``."""
        if self._locked:
            yield from self._lock_wait()
        else:
            self._locked = True
        try:
            yield self.costs.restart_persistent
            preq._rearm()
            env = self.match.post_recv(preq)
            if env is not None:
                yield self._match_begin(preq, env)
                self._match_end(preq, env)
        finally:
            if self._lock_queue:
                self._lock_queue.popleft().succeed()
            else:
                self._locked = False

    def testsome(
        self, requests: Sequence[Optional[Request]] | RequestArray
    ) -> Generator[Any, Any, list[int]]:
        """Progress the library, then report the positions of completed
        active requests, in array order, deactivating them (like
        ``MPI_Testsome``).

        ``requests`` is a :class:`RequestArray`, whose completions are
        pushed to it, or a plain sequence (``None`` entries allowed),
        wrapped for the call.  The charge is per active request either
        way.  The call tests the array as it stood when the call began.
        """
        if type(requests) is RequestArray:
            arr = requests
            wrapped = False
        else:
            arr = RequestArray(requests)
            wrapped = True
        n_fixed = len(arr._fixed)
        next_key = arr._next
        if self._locked:
            yield from self._lock_wait()
        else:
            self._locked = True
        try:
            if self._inbox:
                yield from self._progress_locked()
            if n_fixed == len(arr._fixed) and next_key == arr._next:
                active = arr._active  # nothing enrolled since the call began
            else:
                active = arr._active_before(n_fixed, next_key)
            costs = self.costs
            yield costs.testsome_base + costs.testsome_per_request * active
            return arr._report(n_fixed, next_key) if arr._done else []
        finally:
            if self._lock_queue:
                self._lock_queue.popleft().succeed()
            else:
                self._locked = False
            if wrapped:
                arr._release()

    def progress(self) -> Generator[Any, Any, int]:
        """Drain the inbox, running protocol state machines; returns the
        number of wire messages processed."""
        if self._locked:
            yield from self._lock_wait()
        else:
            self._locked = True
        try:
            return (yield from self._progress_locked())
        finally:
            if self._lock_queue:
                self._lock_queue.popleft().succeed()
            else:
                self._locked = False

    def wait(self, req: Request) -> Generator[Any, Any, Request]:
        """Block (progressing) until ``req`` completes."""
        while True:
            if self._locked:
                yield from self._lock_wait()
            else:
                self._locked = True
            try:
                if self._inbox:
                    yield from self._progress_locked()
                if req.done:
                    req._deactivate()
                    return req
            finally:
                if self._lock_queue:
                    self._lock_queue.popleft().succeed()
                else:
                    self._locked = False
            yield self.activity_event()

    # ------------------------------------------------------------------
    # one-sided (RMA) operations on dynamic windows — §4.2.2 alternative
    # ------------------------------------------------------------------

    def win_attach(self, size: int) -> Generator:
        """Attach memory to the dynamic window (expensive, see [25])."""
        yield self.costs.win_attach

    def win_detach(self) -> Generator:
        """Detach memory from the dynamic window."""
        yield self.costs.win_detach

    def rma_put(
        self, dst: int, size: int, payload: Any = None
    ) -> Generator[Any, Any, Request]:
        """MPI_Put into the target's (already attached) window memory.

        True one-sided: the target's CPU is not involved; the returned
        request completes when the data has been written remotely (i.e. a
        subsequent flush would return).  There is **no remote notification**
        — the caller must signal the target separately, which is exactly
        why the PaRSEC put interface is awkward over standard MPI RMA.
        """
        if not 0 <= dst < self._n_ranks:
            raise MpiError(f"invalid RMA target rank {dst}")
        if self._locked:
            yield from self._lock_wait()
        else:
            self._locked = True
        try:
            req = Request(self.sim, next(self._req_ids))
            yield self.costs.rma_put_post
            # Remote completion, detected by a flush, one ack latency
            # after the data lands.
            self.world.fabric.send(
                WireMessage(
                    src=self.rank,
                    dst=dst,
                    size=size + _HEADER,
                    msg_class=_DATA,
                    channel="mpi",
                    payload={
                        "kind": "rma_put",
                        "size": size,
                        "data": payload,
                        "_fin": (self._complete_rma, req, True),
                    },
                )
            )
            return req
        finally:
            if self._lock_queue:
                self._lock_queue.popleft().succeed()
            else:
                self._locked = False

    def flush(self, req: Request) -> Generator:
        """MPI_Win_flush: wait for an RMA operation's remote completion."""
        yield self.costs.rma_flush
        if not req.done:
            yield from self.wait(req)

    def _complete_rma(self, req: Request) -> None:
        req._complete()
        self._notify()

    def send(self, dst: int, tag: int, size: int, payload: Any = None):
        """Blocking send (the backend uses this for active messages)."""
        sreq = yield from self.isend(dst, tag, size, payload)
        if not sreq.done:
            yield from self.wait(sreq)
        return sreq

    def recv(self, src: Optional[int], tag: Optional[int], max_size: int):
        """Blocking receive."""
        rreq = yield from self.irecv(src, tag, max_size)
        if not rreq.done:
            yield from self.wait(rreq)
        return rreq

    # ------------------------------------------------------------------
    # protocol internals
    # ------------------------------------------------------------------

    def _progress_locked(self) -> Generator[Any, Any, int]:
        costs = self.costs
        match = self.match
        inbox = self._inbox
        n = 0
        while inbox:
            msg = inbox.popleft()
            yield costs.match
            p = msg.payload
            kind = p["kind"]
            if kind == "eager":
                env = Envelope(
                    msg.src, p["tag"], p["size"], "eager", p["data"], p["sreq"]
                )
                rreq = match.arrive(env)
                if rreq is not None:
                    yield self._match_begin(rreq, env)
                    self._match_end(rreq, env)
                else:
                    self._note_unexpected()
                    # Unexpected eager: copy into a temporary buffer now.
                    yield env.size * costs.eager_copy_per_byte
            elif kind == "rts":
                env = Envelope(msg.src, p["tag"], p["size"], "rts", None, p["sreq"])
                rreq = match.arrive(env)
                if rreq is not None:
                    yield self._match_begin(rreq, env)
                    self._match_end(rreq, env)
                else:
                    self._note_unexpected()
            elif kind == "cts":
                yield from self._on_cts(p)
            elif kind == "rdata":
                rreq = self._rndv_recvs.pop(p["rreq"], None)
                if rreq is None:
                    raise MpiError(f"rendezvous data for unknown recv {p['rreq']}")
                if self._obs_on:
                    self.obs.emit(
                        "mpi_rndv_data", self.rank,
                        key=(msg.src, self.rank, p.get("size")), info=p["size"],
                    )
                rreq.recv_size = p["size"]
                rreq.payload = p["data"]
                rreq._complete()
                self._notify()
            else:  # pragma: no cover - defensive
                raise MpiError(f"unknown wire message kind {kind!r}")
            walked = match.walked
            if walked:
                match.walked = 0
                yield walked * costs.match_per_queue_entry
            n += 1
        return n

    def _on_cts(self, p: dict) -> Generator:
        """Rendezvous sender side: the CTS arrived, ship the data."""
        sreq = self._sends.pop(p["sreq"], None)
        if sreq is None:
            raise MpiError(f"CTS for unknown send request {p['sreq']}")
        if self._obs_on:
            self.obs.emit(
                "mpi_rndv_cts", self.rank,
                key=(sreq.dst, self.rank, sreq.tag), info=sreq.size,
            )
        yield self.costs.rendezvous_ctrl + self.costs.post_request
        # Local completion when the NIC has read the buffer, modelled at
        # the data's delivery (``_fin`` without the ack latency).
        self.world.fabric.send(
            WireMessage(
                self.rank, sreq.dst, sreq.size + _HEADER, _DATA,
                {
                    "kind": "rdata",
                    "rreq": p["rreq"],
                    "size": sreq.size,
                    "data": sreq.payload,
                    "_fin": (self._complete_send, sreq, False),
                },
                "mpi",
            )
        )

    # A match runs in two halves around one CPU charge, written as plain
    # calls rather than a generator (one fewer frame per match):
    # ``yield self._match_begin(rreq, env)`` then ``self._match_end(rreq, env)``.

    def _match_begin(self, rreq: RecvRequest, env: Envelope) -> float:
        """Bind ``rreq`` to ``env``; returns the CPU time the match costs
        (the eager copy, or the rendezvous control work)."""
        if env.size > rreq.max_size:
            raise MpiError(
                f"message truncation: incoming {env.size} B > posted {rreq.max_size} B"
            )
        rreq.source = env.src
        rreq.recv_tag = env.tag
        if env.kind == "eager":
            return env.size * self.costs.eager_copy_per_byte
        return self.costs.rendezvous_ctrl

    def _match_end(self, rreq: RecvRequest, env: Envelope) -> None:
        """After the charge: complete an eager receive, or answer an RTS
        with a CTS and park the receive until its data arrives."""
        if env.kind == "eager":
            rreq.recv_size = env.size
            rreq.payload = env.payload
            rreq._complete()
            self._notify()
        else:
            self._rndv_recvs[rreq.req_id] = rreq
            self.world.fabric.send(
                WireMessage(
                    self.rank,
                    env.src,
                    _CTRL,
                    _CONTROL,
                    {"kind": "cts", "sreq": env.sreq_id, "rreq": rreq.req_id},
                    "mpi",
                )
            )

    def _note_unexpected(self) -> None:
        """Sample the unexpected-message queue after an unmatched arrival."""
        if self._obs_on:
            self._c_unexpected.inc()
            self._h_unexp_depth.observe(self.match.unexpected_count)

    def _complete_send(self, sreq: SendRequest) -> None:
        sreq._complete()
        self._notify()
