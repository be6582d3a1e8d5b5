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

from collections import deque
from typing import Any, Generator, Optional, Sequence

from repro.config import MpiCosts
from repro.errors import MpiError
from repro.mpi.matching import Envelope, MatchEngine
from repro.mpi.requests import (
    PersistentRecvRequest,
    RecvRequest,
    Request,
    SendRequest,
)
from repro.network.fabric import Fabric
from repro.network.message import MessageClass, WireMessage
from repro.obs.bus import NULL_BUS, ObsBus
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


def _wire_class(size: int) -> MessageClass:
    return MessageClass.CONTROL if size <= _CTRL_CLASS_MAX else MessageClass.DATA


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
        self.ranks = [
            MpiRank(self, rank) for rank in range(fabric.num_nodes)
        ]
        # Deferred wire sends carry their source-side completion as a
        # ``_fin`` payload hint; the fabric applies it through this hook
        # once the destination NIC resolves the delivery time.
        fabric.register_fin_applier("mpi", self._apply_fin)

    def _apply_fin(self, node: int, ref: int) -> None:
        self.ranks[node]._apply_fin(ref)

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
        self.faults = world.fabric.faults
        self.match = MatchEngine()
        self._inbox: deque[WireMessage] = deque()
        self._sends: dict[int, SendRequest] = {}
        self._rndv_recvs: dict[int, RecvRequest] = {}
        # Requests whose completion is delivery-driven (deferred wire
        # sends, keyed by req_id; see ``_apply_fin``).
        self._pending_fin: dict[int, tuple[str, Request]] = {}
        self._waiters: list[Event] = []
        self._locked = False
        self._lock_queue: deque[Event] = deque()
        # Per-rank instruments (null-bus: shared no-op singletons).
        obs = world.obs
        self.obs = obs
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
            if self.faults.enabled:
                # Fault mode: origin-side completion must follow the actual
                # delivery (the origin's predicted time would complete puts
                # whose data was dropped).  Remote ack ≈ one wire latency.
                ack = self.world.fabric.base_latency(self.rank, msg.src)
                origin = self.world.ranks[msg.src]
                self.sim.call_later(ack, origin._complete_rma, msg.payload["req"])
            # One-sided data lands directly in window memory; the target's
            # software stack never sees it (completion is origin-side only).
            return
        self._inbox.append(msg)
        self._notify()

    def _notify(self) -> None:
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
    # ------------------------------------------------------------------

    def _acquire(self) -> Generator:
        if not self._locked:
            self._locked = True
            return
        evt = Event(self.sim)
        self._lock_queue.append(evt)
        yield evt

    def _release(self) -> None:
        if self._lock_queue:
            self._lock_queue.popleft().succeed()
        else:
            self._locked = False

    # ------------------------------------------------------------------
    # public API (generator methods: `yield from` them)
    # ------------------------------------------------------------------

    def isend(
        self, dst: int, tag: int, size: int, payload: Any = None
    ) -> Generator[Any, Any, SendRequest]:
        """Non-blocking send.  Eager below the threshold, rendezvous above."""
        if not 0 <= dst < self.world.size:
            raise MpiError(f"invalid destination rank {dst}")
        if size < 0:
            raise MpiError("negative send size")
        yield from self._acquire()
        try:
            sreq = SendRequest(self.sim, dst, tag, size, payload)
            if size <= self.costs.rendezvous_threshold:
                sreq.protocol = "eager"
                self._c_eager.inc()
                if self.obs.enabled:
                    self.obs.emit(
                        "mpi_eager_send", self.rank, key=(self.rank, dst, tag), info=size
                    )
                yield self.costs.eager_send + size * self.costs.eager_copy_per_byte
                self.world.fabric.send(
                    WireMessage(
                        src=self.rank,
                        dst=dst,
                        size=size + _HEADER,
                        msg_class=_wire_class(size + _HEADER),
                        channel="mpi",
                        payload={
                            "kind": "eager",
                            "tag": tag,
                            "size": size,
                            "data": payload,
                            "sreq": sreq.req_id,
                        },
                    )
                )
                # Buffer copied out — locally complete immediately.
                sreq._complete()
            else:
                sreq.protocol = "rndv"
                self._c_rndv.inc()
                if self.obs.enabled:
                    self.obs.emit(
                        "mpi_rndv_rts", self.rank, key=(self.rank, dst, tag), info=size
                    )
                self._sends[sreq.req_id] = sreq
                yield self.costs.post_request
                self.world.fabric.send(
                    WireMessage(
                        src=self.rank,
                        dst=dst,
                        size=_CTRL,
                        msg_class=MessageClass.CONTROL,
                        channel="mpi",
                        payload={
                            "kind": "rts",
                            "tag": tag,
                            "size": size,
                            "sreq": sreq.req_id,
                        },
                    )
                )
            return sreq
        finally:
            self._release()

    def irecv(
        self, src: Optional[int], tag: Optional[int], max_size: int
    ) -> Generator[Any, Any, RecvRequest]:
        """Non-blocking receive; ``src=None`` is ``MPI_ANY_SOURCE``."""
        yield from self._acquire()
        try:
            rreq = RecvRequest(self.sim, src, tag, max_size)
            yield self.costs.post_request
            env = self.match.post_recv(rreq)
            if env is not None:
                yield from self._match_found(rreq, env)
            else:
                self._h_posted_depth.observe(self.match.posted_count)
            return rreq
        finally:
            self._release()

    def recv_init(
        self, src: Optional[int], tag: Optional[int], max_size: int
    ) -> PersistentRecvRequest:
        """Create (but do not start) a persistent receive."""
        return PersistentRecvRequest(self.sim, src, tag, max_size)

    def start(self, preq: PersistentRecvRequest) -> Generator:
        """Arm (or re-arm) a persistent receive — ``MPI_Start``."""
        yield from self._acquire()
        try:
            yield self.costs.restart_persistent
            preq._rearm()
            env = self.match.post_recv(preq)
            if env is not None:
                yield from self._match_found(preq, env)
        finally:
            self._release()

    def testsome(
        self, requests: Sequence[Request]
    ) -> Generator[Any, Any, list[int]]:
        """Progress the library, then report indices of completed active
        requests (deactivating them, like ``MPI_Testsome``)."""
        yield from self._acquire()
        try:
            if self._inbox:
                yield from self._progress_locked()
            active = 0
            for r in requests:
                if r is not None and r.active:
                    active += 1
            yield (self.costs.testsome_base
                   + self.costs.testsome_per_request * active)
            out = []
            for i, req in enumerate(requests):
                if req is not None and req.active and req.done:
                    req.active = False
                    out.append(i)
            return out
        finally:
            self._release()

    def progress(self) -> Generator[Any, Any, int]:
        """Drain the inbox, running protocol state machines; returns the
        number of wire messages processed."""
        yield from self._acquire()
        try:
            return (yield from self._progress_locked())
        finally:
            self._release()

    def wait(self, req: Request) -> Generator[Any, Any, Request]:
        """Block (progressing) until ``req`` completes."""
        while True:
            yield from self._acquire()
            try:
                yield from self._progress_locked()
                if req.done:
                    req.active = False
                    return req
            finally:
                self._release()
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
        if not 0 <= dst < self.world.size:
            raise MpiError(f"invalid RMA target rank {dst}")
        yield from self._acquire()
        try:
            req = Request(self.sim)
            yield self.costs.rma_put_post
            fabric = self.world.fabric
            wire_payload = {"kind": "rma_put", "size": size, "data": payload}
            deferred = fabric.defers_wire and dst != self.rank
            if self.faults.enabled:
                # The request rides along so the target can schedule the
                # origin-side completion at actual delivery (see _on_wire).
                wire_payload["req"] = req
            elif deferred:
                # Deferred wire put (end-of-epoch flush): origin
                # completion is applied one ack latency after the
                # resolved delivery via the ``_fin`` hint.
                ack = fabric.base_latency(dst, self.rank)
                wire_payload["_fin"] = (req.req_id, ack)
                self._pending_fin[req.req_id] = ("rma", req)
            deliver = fabric.send(
                WireMessage(
                    src=self.rank,
                    dst=dst,
                    size=size + _HEADER,
                    msg_class=MessageClass.DATA,
                    channel="mpi",
                    payload=wire_payload,
                )
            )
            if not self.faults.enabled and not deferred:
                # Remote completion detected by flush ≈ one ack latency later.
                ack = fabric.base_latency(dst, self.rank)
                self.sim.call_later(
                    deliver - self.sim.now + ack, self._complete_rma, req
                )
            return req
        finally:
            self._release()

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
        n = 0
        while self._inbox:
            msg = self._inbox.popleft()
            yield self.costs.match
            yield from self._handle(msg)
            walked = self.match.take_walked()
            if walked:
                yield walked * self.costs.match_per_queue_entry
            n += 1
        return n

    def _handle(self, msg: WireMessage) -> Generator:
        p = msg.payload
        kind = p["kind"]
        if kind == "eager":
            env = Envelope(
                src=msg.src, tag=p["tag"], size=p["size"], kind="eager",
                payload=p["data"], sreq_id=p["sreq"],
            )
            rreq = self.match.arrive(env)
            if rreq is not None:
                yield from self._match_found(rreq, env)
            else:
                self._note_unexpected()
                # Unexpected eager: copy into a temporary buffer now.
                yield env.size * self.costs.eager_copy_per_byte
        elif kind == "rts":
            env = Envelope(
                src=msg.src, tag=p["tag"], size=p["size"], kind="rts",
                sreq_id=p["sreq"],
            )
            rreq = self.match.arrive(env)
            if rreq is not None:
                yield from self._match_found(rreq, env)
            else:
                self._note_unexpected()
        elif kind == "cts":
            sreq = self._sends.pop(p["sreq"], None)
            if sreq is None:
                raise MpiError(f"CTS for unknown send request {p['sreq']}")
            if self.obs.enabled:
                self.obs.emit(
                    "mpi_rndv_cts", self.rank,
                    key=(sreq.dst, self.rank, sreq.tag), info=sreq.size,
                )
            yield self.costs.rendezvous_ctrl + self.costs.post_request
            fabric = self.world.fabric
            rdata_payload = {
                "kind": "rdata",
                "rreq": p["rreq"],
                "size": sreq.size,
                "data": sreq.payload,
            }
            deferred = fabric.defers_wire and sreq.dst != self.rank
            if deferred:
                # Deferred wire send: local completion is modelled at data
                # delivery, which is only resolved at ejection (the
                # end-of-epoch flush) — it comes back through the ``_fin``
                # hint (extra 0.0 keeps the timestamp identical).
                rdata_payload["_fin"] = (sreq.req_id, 0.0)
                self._pending_fin[sreq.req_id] = ("send", sreq)
            deliver = fabric.send(
                WireMessage(
                    src=self.rank,
                    dst=sreq.dst,
                    size=sreq.size + _HEADER,
                    msg_class=MessageClass.DATA,
                    channel="mpi",
                    payload=rdata_payload,
                )
            )
            if not deferred:
                # Local completion when the NIC has read the buffer; modelled
                # at data delivery (a FIN would arrive one latency later —
                # folded in).
                self.sim.call_later(
                    deliver - self.sim.now, self._complete_send, sreq
                )
        elif kind == "rdata":
            rreq = self._rndv_recvs.pop(p["rreq"], None)
            if rreq is None:
                raise MpiError(f"rendezvous data for unknown recv {p['rreq']}")
            if self.obs.enabled:
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

    def _match_found(self, rreq: RecvRequest, env: Envelope) -> Generator:
        if env.size > rreq.max_size:
            raise MpiError(
                f"message truncation: incoming {env.size} B > posted {rreq.max_size} B"
            )
        rreq.source = env.src
        rreq.recv_tag = env.tag
        if env.kind == "eager":
            yield env.size * self.costs.eager_copy_per_byte
            rreq.recv_size = env.size
            rreq.payload = env.payload
            rreq._complete()
            self._notify()
        else:  # rendezvous RTS: reply CTS, park until rdata arrives
            yield self.costs.rendezvous_ctrl
            self._rndv_recvs[rreq.req_id] = rreq
            self.world.fabric.send(
                WireMessage(
                    src=self.rank,
                    dst=env.src,
                    size=_CTRL,
                    msg_class=MessageClass.CONTROL,
                    channel="mpi",
                    payload={"kind": "cts", "sreq": env.sreq_id, "rreq": rreq.req_id},
                )
            )

    def _note_unexpected(self) -> None:
        """Sample the unexpected-message queue after an unmatched arrival."""
        self._c_unexpected.inc()
        self._h_unexp_depth.observe(self.match.unexpected_count)

    def _complete_send(self, sreq: SendRequest) -> None:
        sreq._complete()
        self._notify()

    def _apply_fin(self, ref: int) -> None:
        """Apply a deferred source-side completion (``_fin`` hint).

        ``ref`` is the ``req_id`` registered in ``_pending_fin`` when the
        send/put was issued.  The fabric's end-of-epoch flush schedules
        it one ``extra`` delay after the resolved delivery.
        """
        kind, req = self._pending_fin.pop(ref)
        if kind == "send":
            self._complete_send(req)
        else:
            self._complete_rma(req)
