"""The MPI backend for the PaRSEC communication engine (paper §4.2).

Faithful to the described design:

- **Active messages** (§4.2.1): five persistent ``MPI_ANY_SOURCE`` receives
  per registered tag, re-enabled after each callback; ``send_am`` is a
  blocking eager ``MPI_Send``.
- **Data transport** (§4.2.2): puts are emulated with two-sided
  communication plus a handshake active message carrying the data tag, the
  size, and the remote completion callback data.  At most
  ``mpi_max_transfers`` (30) transfers are *polled* concurrently; overflow
  sends are deferred, overflow receives are posted from a dynamic pool but
  only polled once promoted into the global array, both promoted in FIFO
  order.
- **Progress** (§4.2.3): ``MPI_Testsome`` over the global array of
  ``5 × N_am + 30`` requests; completion callbacks run *inline on the
  polling thread* (the comm thread), so a long ACTIVATE callback blocks all
  further matching — the bottleneck §4.3 describes and §5 removes.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, Optional

from repro.config import RuntimeCosts
from repro.errors import RuntimeBackendError
from repro.mpi.requests import PersistentRecvRequest, Request, RequestArray
from repro.mpi.world import ANY_SOURCE, MpiRank
from repro.runtime.comm_engine import (
    BackoffPolicy,
    CommEngine,
    OnesidedCallback,
    TAG_PUT_COMPLETE,
    next_data_tag,
)
from repro.sim.core import Event, Process, Simulator

__all__ = ["MpiBackend"]

#: Internal AM tag for put handshakes (never visible to the runtime).
_TAG_PUT_HS = 0
#: Internal AM tags for the RMA put mode (§4.2.2's unexplored alternative):
#: target→origin "window attached, go ahead" and origin→target completion
#: notification (standard MPI RMA has no remote notification).
_TAG_RMA_READY = 98
_TAG_RMA_NOTIFY = 99


class _AmSlot:
    """One persistent-receive slot of the global array."""

    __slots__ = ("tag", "preq")

    def __init__(self, tag: int, preq: PersistentRecvRequest):
        self.tag = tag
        self.preq = preq


class _Transfer:
    """One data send or receive being polled in the global array."""

    __slots__ = ("kind", "req", "cb", "cb_data", "size", "peer")

    def __init__(self, kind: str, req: Request, cb, cb_data: Any, size: int, peer: int):
        self.kind = kind  # "send" | "recv"
        self.req = req
        self.cb = cb
        self.cb_data = cb_data
        self.size = size
        self.peer = peer


class MpiBackend(CommEngine):
    """Listing-1 engine implemented over the simulated MPI library."""

    def __init__(
        self,
        sim: Simulator,
        rank: MpiRank,
        rt_costs: Optional[RuntimeCosts] = None,
        put_mode: str = "twosided",
        backoff: Optional[BackoffPolicy] = None,
    ):
        super().__init__(sim, rank.rank, backoff=backoff)
        if put_mode not in ("twosided", "rma"):
            raise RuntimeBackendError(f"unknown put mode {put_mode!r}")
        self.rank = rank
        self.rt = rt_costs or RuntimeCosts()
        #: "twosided" emulates puts with a handshake + send (the backend the
        #: paper ships); "rma" uses MPI dynamic-window RMA (the alternative
        #: §4.2.2 leaves unexplored because attach/detach and the missing
        #: remote-completion notification are known liabilities).
        self.put_mode = put_mode
        self._am_slots: list[_AmSlot] = []
        self._transfers: list[_Transfer] = []
        #: The global Testsome array: ``_am_slots``' requests at fixed
        #: positions, then ``_transfers``' requests in the same order (every
        #: change to either list is mirrored here).
        self._array = RequestArray()
        #: FIFO of deferred work: ("send", ...) entries wait for array space
        #: before even posting; ("recv", transfer) entries are already-posted
        #: dynamic receives waiting to be *polled*.
        self._deferred: deque[tuple] = deque()
        self._started = False
        self._pending_tags: list[tuple[int, int]] = []
        #: RMA-mode state: puts waiting for the target's window attach.
        self._rma_pending: dict[int, tuple] = {}
        #: §4.2.2 deferrals: transfers parked for lack of global-array space.
        self._c_deferred = self.obs.counter("parsec.mpi.deferred", rank.rank)
        self._h_deferred_depth = self.obs.histogram(
            "parsec.mpi.deferred_depth", rank.rank
        )
        self.tag_reg(_TAG_PUT_HS, self._handshake_cb, max_len=64 * 1024)
        self.tag_reg(_TAG_RMA_READY, self._rma_ready_cb, max_len=4096)
        self.tag_reg(_TAG_RMA_NOTIFY, self._rma_notify_cb, max_len=64 * 1024)

    # -- engine interface --------------------------------------------------

    def am_payload_max(self) -> int:
        """Largest active-message payload (bounded by the eager protocol)."""
        return self.rank.costs.rendezvous_threshold

    def quiescence_report(self) -> dict:
        """Leftover protocol state after a drained run (diagnostic).

        A clean termination leaves every queue here empty: no deferred
        transfers awaiting array slots, no announced-but-unserved RMA
        windows, no in-flight send/recv requests, and no unexpected
        envelopes in the match engine.  The schedule explorer's quiescence
        invariant flags any non-zero entry.
        """
        return {
            "deferred": len(self._deferred),
            "rma_pending": len(self._rma_pending),
            "transfers": len(self._transfers),
            "match_unexpected": self.rank.match.unexpected_count,
        }

    def _tag_reg_backend(self, tag: int, max_len: int) -> None:
        if self._started:
            raise RuntimeBackendError("tag_reg after engine start")
        self._pending_tags.append((tag, max_len))

    def start(self) -> Generator:
        """Create and start the persistent receives (5 per registered tag)."""
        if self._started:
            raise RuntimeBackendError("engine started twice")
        self._started = True
        for tag, max_len in self._pending_tags:
            for _ in range(self.rt.mpi_recvs_per_tag):
                preq = self.rank.recv_init(ANY_SOURCE, tag, max_len)
                yield from self.rank.start(preq)
                self._am_slots.append(_AmSlot(tag, preq))
                self._array._add_fixed(preq)

    def send_am(self, tag: int, remote: int, data: Any, size: int) -> Generator:
        """Blocking eager MPI_Send with the registered tag (§4.2.1)."""
        self._am_entry(tag)  # raises on unregistered tag
        self.stats["am_sent"] += 1
        if self._obs_on:
            self._c_am_sent.inc()
        rank = self.rank
        sreq = yield from rank.isend(
            remote, tag, size, payload={"am": data, "seq": self.am_seq(remote)}
        )
        if not sreq.done:
            yield from rank.wait(sreq)

    def put(
        self,
        data: Any,
        size: int,
        remote: int,
        l_cb: Optional[OnesidedCallback],
        r_cb_data: Any,
        l_cb_data: Any = None,
    ) -> Generator:
        """Handshake AM + (possibly deferred) two-sided data send."""
        data_tag = next_data_tag()
        self.stats["puts_started"] += 1
        self.stats["bytes_put"] += size
        if self._obs_on:
            self._c_puts.inc()
            self._h_put_bytes.observe(size)
        if self.put_mode == "rma":
            # Round 1: ask the target to attach window memory; the actual
            # MPI_Put happens when its READY reply arrives (_rma_ready_cb).
            self._rma_pending[data_tag] = (remote, size, data, l_cb, l_cb_data, r_cb_data)
            yield from self.send_am(
                _TAG_PUT_HS,
                remote,
                {"rma": True, "data_tag": data_tag, "size": size},
                self.rt.handshake_bytes,
            )
            return
        yield from self.send_am(
            _TAG_PUT_HS,
            remote,
            {"data_tag": data_tag, "size": size, "r_cb_data": r_cb_data},
            self.rt.handshake_bytes,
        )
        if self._array_has_space():
            yield from self._post_data_send(remote, data_tag, size, data, l_cb, l_cb_data)
        else:
            self._deferred.append(
                ("send", remote, data_tag, size, data, l_cb, l_cb_data)
            )
            self._note_deferred()

    def progress(self) -> Generator[Any, Any, int]:
        """Testsome loop: poll, run callbacks, compact, promote; repeat while
        completions keep arriving (§4.2.3)."""
        total = 0
        slots = self._am_slots  # append-only: indices stay valid
        transfers = self._transfers
        arr = self._array
        rank = self.rank
        callback_exec = self.rt.callback_exec
        while True:
            idxs = yield from rank.testsome(arr)
            if not idxs:
                # §4.2.3: promotion happens whenever there is free space in
                # the array, even on passes that completed nothing.
                if self._deferred:
                    yield from self._promote_deferred()
                break
            n_slots = len(slots)
            finished = None
            if idxs[-1] >= n_slots:
                # Remove finished transfers before running callbacks
                # (callbacks may start new ones and reshape the array);
                # back to front, so the positions still ahead stay valid.
                finished = []
                for i in reversed(idxs):
                    if i < n_slots:
                        break
                    finished.append(transfers.pop(i - n_slots))
                    arr._pop(i)
            for i in idxs:
                yield callback_exec
                if i < n_slots:
                    entry = slots[i]
                    preq = entry.preq
                    payload = preq.payload
                    yield from self._run_am_callback(
                        entry.tag, payload["am"], preq.recv_size, preq.source,
                        payload.get("seq"),
                    )
                    # Re-enable the persistent receive after the callback.
                    yield from rank.start(preq)
                else:
                    yield from self._finish_transfer(finished.pop())
            if self._deferred:
                yield from self._promote_deferred()
            total += len(idxs)
        return total

    def activity_event(self) -> Event:
        """Engine work is signalled by the MPI library's activity."""
        return self.rank.activity_event()

    def park(self, proc: Process) -> bool:
        """Engine wake-ups are the MPI library's deliveries/completions."""
        return self.rank.park(proc)

    # -- internals -----------------------------------------------------------

    def _array_has_space(self) -> bool:
        return len(self._transfers) < self.rt.mpi_max_transfers

    def _post_data_send(
        self, remote: int, data_tag: int, size: int, data: Any, l_cb, l_cb_data
    ) -> Generator:
        sreq = yield from self.rank.isend(remote, data_tag, size, payload={"put": data})
        self._track(_Transfer("send", sreq, l_cb, l_cb_data, size, remote))

    def _track(self, t: _Transfer) -> None:
        """Start polling ``t`` in the global array."""
        self._transfers.append(t)
        self._array._append(t.req)

    def _handshake_cb(self, engine, tag, msg, size, src, cb_data) -> Generator:
        """Target side of a put: post the matching receive (§4.2.2)."""
        if msg.get("rma"):
            # RMA mode: attach window memory and tell the origin to go.
            yield from self.rank.win_attach(msg["size"])
            yield from self.send_am(
                _TAG_RMA_READY, src, {"data_tag": msg["data_tag"]}, 64
            )
            return
        data_tag = msg["data_tag"]
        data_size = msg["size"]
        rreq = yield from self.rank.irecv(src, data_tag, data_size)
        transfer = _Transfer("recv", rreq, None, msg["r_cb_data"], data_size, src)
        if self._array_has_space():
            self._track(transfer)
        else:
            # Posted (so it matches and the wire moves), but polled only
            # after promotion into the global array.
            self._deferred.append(("recv", transfer))
            self._note_deferred()

    def _rma_ready_cb(self, engine, tag, msg, size, src, cb_data) -> Generator:
        """Origin side, RMA mode: window attached — put, flush, notify."""
        entry = self._rma_pending.pop(msg["data_tag"], None)
        if entry is None:
            raise RuntimeBackendError(f"RMA READY for unknown put {msg['data_tag']}")
        remote, data_size, data, l_cb, l_cb_data, r_cb_data = entry
        req = yield from self.rank.rma_put(remote, data_size, payload=data)
        yield from self.rank.flush(req)
        # Standard MPI RMA gives the target no completion notification
        # (§4.2.2) — send one as an active message, carrying r_cb_data.
        yield from self.send_am(
            _TAG_RMA_NOTIFY,
            remote,
            {"r_cb_data": r_cb_data, "data": data, "size": data_size},
            self.rt.handshake_bytes,
        )
        if l_cb is not None:
            yield from l_cb(self, l_cb_data)

    def _rma_notify_cb(self, engine, tag, msg, size, src, cb_data) -> Generator:
        """Target side, RMA mode: data has landed — detach and deliver."""
        yield from self.rank.win_detach()
        self.stats["puts_completed"] += 1
        cb, r_cb_arg = self._am_entry(TAG_PUT_COMPLETE)
        yield from cb(
            self,
            TAG_PUT_COMPLETE,
            {"r_cb_data": msg["r_cb_data"], "data": msg["data"]},
            msg["size"],
            src,
            r_cb_arg,
        )

    def _finish_transfer(self, t: _Transfer) -> Generator:
        if t.kind == "send":
            if t.cb is not None:
                yield from t.cb(self, t.cb_data)
        else:
            self.stats["puts_completed"] += 1
            cb, cb_data = self._am_entry(TAG_PUT_COMPLETE)
            data = t.req.payload["put"]
            # Drop the completed request's reference to the payload: the
            # request object can outlive the transfer (request tables,
            # traces), and at paper scale pinning every delivered tile
            # would dominate resident memory.
            t.req.payload = None
            yield from cb(
                self,
                TAG_PUT_COMPLETE,
                {"r_cb_data": t.cb_data, "data": data},
                t.size,
                t.peer,
                cb_data,
            )

    def _note_deferred(self) -> None:
        self._c_deferred.inc()
        self._h_deferred_depth.observe(len(self._deferred))

    def _promote_deferred(self) -> Generator:
        """FIFO promotion of deferred sends and dynamic receives (§4.2.3).

        Runs on the comm thread (inside progress), so posting promoted sends
        charges comm-thread time, as in the real implementation.
        """
        while self._deferred and self._array_has_space():
            item = self._deferred.popleft()
            if item[0] == "recv":
                self._track(item[1])
            else:
                _kind, remote, data_tag, size, data, l_cb, l_cb_data = item
                yield from self._post_data_send(
                    remote, data_tag, size, data, l_cb, l_cb_data
                )
