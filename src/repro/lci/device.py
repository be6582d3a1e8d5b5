"""The LCI device: protocol state machines and explicit progress.

One :class:`LciDevice` per node.  Unlike the MPI model there is **no
library-wide lock** — LCI is designed for heavily multithreaded use
(§5.1) — and protocol processing happens only inside :meth:`progress`,
which the consuming runtime drives explicitly (the PaRSEC LCI backend
dedicates a thread to it).

Resource pools and back-pressure:

- ``sendb`` consumes a TX packet until the NIC has drained the copy;
- incoming short/buffered messages consume an RX packet until the consumer
  calls :meth:`free_rx_packet` (dynamic allocation, §5.2 — no posted
  receives, no matching for active messages);
- ``sendd``/``recvd`` consume a direct (RDMA) slot until completion.

Exhaustion returns :data:`LCI_ERR_RETRY` from the non-blocking call, or —
for incoming active messages — stalls the AM delivery queue (hardware
receive-queue depletion).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, Generator, Optional

from repro.config import LciCosts
from repro.errors import LciError
from repro.lci.completion import CompletionQueue, CompletionRecord, Synchronizer
from repro.lci.constants import LCI_ERR_RETRY, LCI_OK
from repro.network.fabric import Fabric
from repro.network.message import MessageClass, WireMessage
from repro.obs.bus import ObsBus
from repro.sim.core import Event, Process, Simulator

__all__ = ["LciDevice", "LciWorld"]

#: Protocol header bytes on every LCI wire message.
_HEADER = 32
#: RTS/RTR control message size.
_CTRL = 64
#: Module-level copies: a global read is much cheaper than an enum
#: class-attribute read on the per-message path.
_CONTROL = MessageClass.CONTROL
_DATA = MessageClass.DATA

_op_ids = itertools.count()

Completion = Any  # Synchronizer | CompletionQueue | Callable | None


class LciWorld:
    """All LCI devices of a simulated job (one per fabric node)."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        costs: Optional[LciCosts] = None,
        obs: Optional[ObsBus] = None,
    ):
        self.sim = sim
        self.fabric = fabric
        self.costs = costs or LciCosts()
        self.obs = obs if obs is not None else sim.obs
        self.devices = [LciDevice(self, node) for node in range(fabric.num_nodes)]
        # Deferred wire sends carry their sender-side FIN as a ``_fin``
        # payload hint; the fabric raises it here once the destination NIC
        # resolves the delivery time.
        fabric.register_fin_applier("lci", self._apply_fin)

    def _apply_fin(self, node: int, ref: int) -> None:
        self.devices[node]._push_hw(("fin", ref))

    @property
    def size(self) -> int:
        """Number of devices (= fabric nodes)."""
        return len(self.devices)


class _DirectOp:
    """Bookkeeping for an in-flight direct (RDMA) operation."""

    __slots__ = ("op_id", "peer", "tag", "size", "payload", "comp", "user_ctx")

    def __init__(self, peer: int, tag: int, size: int, payload: Any, comp: Completion, user_ctx: Any):
        self.op_id = next(_op_ids)
        self.peer = peer
        self.tag = tag
        self.size = size
        self.payload = payload
        self.comp = comp
        self.user_ctx = user_ctx


class LciDevice:
    """One node's LCI endpoint."""

    def __init__(self, world: LciWorld, node: int):
        self.world = world
        self.sim = world.sim
        self.costs = world.costs
        self.node = node
        self.faults = world.fabric.faults
        # Resource pools.
        self.tx_packets_free = self.costs.packet_pool_size
        self.rx_packets_free = self.costs.packet_pool_size
        self.send_slots_free = self.costs.direct_slots
        self.recv_slots_free = self.costs.direct_slots
        # Incoming queues (filled by the fabric handler).
        self._rx_am: deque[WireMessage] = deque()
        self._rx_proto: deque[WireMessage] = deque()
        self._hw: deque[tuple] = deque()
        # Direct-protocol state.
        self._posted_recvd: dict[tuple[int, int], deque[_DirectOp]] = {}
        self._unexpected_rts: deque[tuple[int, dict]] = deque()
        self._send_ops: dict[int, _DirectOp] = {}
        self._recv_ops: dict[int, _DirectOp] = {}
        #: Active-message handler, set by the consuming runtime:
        #: ``handler(record: CompletionRecord) -> None`` (runs in progress).
        self.am_handler: Optional[Callable[[CompletionRecord], None]] = None
        #: One-sided put notification handler (for :meth:`putd` targets).
        self.put_handler: Optional[Callable[[CompletionRecord], None]] = None
        self._waiters: list[Event] = []
        # Back-pressure / pool-occupancy instruments (§5.2): every
        # LCI_ERR_RETRY is counted per operation class, and the TX/RX packet
        # pools are sampled on each allocation.
        obs = world.obs
        #: Instruments are null no-ops on a disabled bus: hot paths skip them.
        self._obs_on = obs.enabled
        self._c_retry_sendb = obs.counter("lci.retry.sendb", node)
        self._c_retry_sendd = obs.counter("lci.retry.sendd", node)
        self._c_retry_putd = obs.counter("lci.retry.putd", node)
        self._c_retry_recvd = obs.counter("lci.retry.recvd", node)
        self._c_am_stall = obs.counter("lci.rx_am_stalls", node)
        self._h_tx_pool = obs.histogram("lci.tx_pool_used", node)
        self._h_rx_pool = obs.histogram("lci.rx_pool_used", node)
        world.fabric.register_handler(node, "lci", self._on_wire)

    # ------------------------------------------------------------------
    # wire side
    # ------------------------------------------------------------------

    def _on_wire(self, msg: WireMessage) -> None:
        kind = msg.payload["kind"]
        if kind == "am":
            self._rx_am.append(msg)
        elif kind == "rdma":
            if self.faults.enabled:
                # Fault mode: completions must follow the *actual* delivery
                # (the sender's predicted times would complete transfers
                # whose data was dropped).  Raise the local CQE now and the
                # sender's FIN one hardware-ack latency later.
                p = msg.payload
                if p.get("one_sided"):
                    self._push_hw(("pcomp",) + p["pcomp"])
                else:
                    self._push_hw(("rcomp", p["rd"], p["data"]))
                ack = self.world.fabric.base_latency(self.node, msg.src)
                src_dev = self.world.devices[msg.src]
                self.sim.call_later(ack, src_dev._push_hw, ("fin", p["sd"]))
                return
            if self.world.fabric.defers_wire and msg.src != self.node:
                # Deferred-ejection mode (end-of-epoch flush): the delivery
                # time is only resolved at the destination NIC, so
                # completions are delivery-driven — the receiver raises
                # its CQE here, and the sender's FIN is raised from the
                # ``_fin`` payload hint by the fabric's fin applier.
                p = msg.payload
                if p.get("one_sided"):
                    self._push_hw(("pcomp",) + p["pcomp"])
                else:
                    self._push_hw(("rcomp", p["rd"], p["data"]))
                return
            # Loopback RDMA lands directly in registered memory; the
            # matching hardware completion ("rcomp") is enqueued separately
            # by the sender at delivery time, so the wire message itself
            # needs no software handling.
            return
        else:
            self._rx_proto.append(msg)
        self._notify()

    def _push_hw(self, record: tuple) -> None:
        self._hw.append(record)
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
        """Fires when there is (or as soon as there is) progress work."""
        evt = Event(self.sim)
        if self._hw or self._rx_proto or (self._rx_am and self.rx_packets_free > 0):
            evt.succeed()
        else:
            self._waiters.append(evt)
        return evt

    def park(self, proc: Process) -> bool:
        """Register a parked process to wake on the next progress work.

        Returns ``False`` when work is already pending — the caller should
        run a progress pass instead of parking.  Deduplicated.
        """
        if self._hw or self._rx_proto or (self._rx_am and self.rx_packets_free > 0):
            return False
        if proc not in self._waiters:
            self._waiters.append(proc)
        return True

    @property
    def pending_work(self) -> int:
        """Items awaiting a progress pass (diagnostic)."""
        return len(self._hw) + len(self._rx_proto) + len(self._rx_am)

    # ------------------------------------------------------------------
    # sends
    # ------------------------------------------------------------------

    def sendi(self, dst: int, tag: int, size: int, data: Any = None) -> Generator[Any, Any, int]:
        """Immediate send: inline, no completion object, always fits the NIC.

        Returns LCI_OK.  Raises for messages over the immediate limit.
        """
        if size > self.costs.immediate_max:
            raise LciError(
                f"sendi of {size} B exceeds immediate limit {self.costs.immediate_max}"
            )
        yield self.costs.immediate_send
        self._send_am_wire(dst, tag, size, data, proto="short")
        return LCI_OK

    def sendb(
        self, dst: int, tag: int, size: int, data: Any = None, comp: Completion = None, user_ctx: Any = None
    ) -> Generator[Any, Any, int]:
        """Buffered send: copy into a TX packet; LCI_ERR_RETRY when the pool
        is empty.  Local completion when the NIC drains the packet."""
        if size > self.costs.buffered_max:
            raise LciError(
                f"sendb of {size} B exceeds buffered limit {self.costs.buffered_max}"
            )
        if self.tx_packets_free <= 0:
            self._c_retry_sendb.inc()
            return LCI_ERR_RETRY
        self.tx_packets_free -= 1
        if self._obs_on:
            self._h_tx_pool.observe(self.costs.packet_pool_size - self.tx_packets_free)
        yield self.costs.buffered_send + size * self.costs.copy_per_byte
        msg = self._send_am_wire(dst, tag, size, data, proto="buffered")
        # The packet is held until the NIC has read it (tail departure).
        hold = max(msg.depart_time - self.sim.now, 0.0)
        self.sim.call_later(hold, self._tx_packet_done, dst, tag, size, comp, user_ctx)
        return LCI_OK

    def _tx_packet_done(self, dst: int, tag: int, size: int, comp: Completion, user_ctx: Any) -> None:
        self.tx_packets_free += 1
        if comp is not None:
            self._signal(comp, CompletionRecord("sendb", dst, tag, size, user_ctx))
        self._notify()

    def _send_am_wire(self, dst: int, tag: int, size: int, data: Any, proto: str) -> WireMessage:
        # Positional construction: (src, dst, size, msg_class, payload,
        # channel) — keyword calls cost measurably more on this hot path.
        wire = size + _HEADER
        msg = WireMessage(
            self.node,
            dst,
            wire,
            _CONTROL if wire <= 4096 else _DATA,
            {"kind": "am", "proto": proto, "tag": tag, "size": size, "data": data},
            "lci",
        )
        self.world.fabric.send(msg)
        return msg

    def sendd(
        self, dst: int, tag: int, size: int, data: Any = None, comp: Completion = None, user_ctx: Any = None
    ) -> Generator[Any, Any, int]:
        """Direct (RDMA) send with rendezvous; LCI_ERR_RETRY when no slot.

        Send and receive slots are separate pools so that back-pressure on
        one side cannot deadlock against the other.
        """
        if self.send_slots_free <= 0:
            self._c_retry_sendd.inc()
            return LCI_ERR_RETRY
        self.send_slots_free -= 1
        op = _DirectOp(dst, tag, size, data, comp, user_ctx)
        self._send_ops[op.op_id] = op
        yield self.costs.direct_post
        self.world.fabric.send(
            WireMessage(
                self.node,
                dst,
                _CTRL,
                _CONTROL,
                {"kind": "rts", "tag": tag, "size": size, "sd": op.op_id},
                "lci",
            )
        )
        return LCI_OK

    def putd(
        self,
        dst: int,
        tag: int,
        size: int,
        data: Any = None,
        comp: Completion = None,
        user_ctx: Any = None,
        remote_meta: Any = None,
    ) -> Generator[Any, Any, int]:
        """One-sided put with remote completion notification (the §7
        future-work feature: "new features to LCI that can directly
        implement the PaRSEC put interface").

        The target needs no posted receive and no matching: the data lands
        in registered memory (the runtime exchanged registration info via
        its ACTIVATE/GET DATA messages) and the target's progress engine
        raises a completion carrying ``remote_meta`` to the registered
        :attr:`put_handler`.  LCI_ERR_RETRY when no send slot is free.
        """
        if self.send_slots_free <= 0:
            self._c_retry_putd.inc()
            return LCI_ERR_RETRY
        self.send_slots_free -= 1
        op = _DirectOp(dst, tag, size, data, comp, user_ctx)
        self._send_ops[op.op_id] = op
        yield self.costs.direct_post
        fabric = self.world.fabric
        payload = {"kind": "rdma", "one_sided": True}
        deferred = fabric.defers_wire and dst != self.node
        if self.faults.enabled:
            # Completion material travels with the message so the receiver
            # can raise both CQEs at actual delivery (see :meth:`_on_wire`).
            payload["sd"] = op.op_id
            payload["pcomp"] = (tag, size, self.node, data, remote_meta)
        elif deferred:
            # Deferred wire put: the receiver raises the pcomp at the
            # resolved delivery and the FIN comes back through the ``_fin``
            # hint one hardware-ack latency after delivery.
            payload["pcomp"] = (tag, size, self.node, data, remote_meta)
            payload["_fin"] = (op.op_id, fabric.base_latency(dst, self.node))
        deliver = fabric.send(
            WireMessage(
                self.node, dst, size + _HEADER, _DATA, payload, "lci"
            )
        )
        if not self.faults.enabled and not deferred:
            peer = self.world.devices[dst]
            self.sim.call_later(
                deliver - self.sim.now,
                peer._push_hw,
                ("pcomp", tag, size, self.node, data, remote_meta),
            )
            ack = fabric.base_latency(dst, self.node)
            self.sim.call_later(
                deliver - self.sim.now + ack, self._push_hw, ("fin", op.op_id)
            )
        return LCI_OK

    def recvd(
        self, src: int, tag: int, size: int, comp: Completion = None, user_ctx: Any = None
    ) -> Generator[Any, Any, int]:
        """Post a direct receive for (src, tag); LCI_ERR_RETRY when no slot."""
        if self.recv_slots_free <= 0:
            self._c_retry_recvd.inc()
            return LCI_ERR_RETRY
        self.recv_slots_free -= 1
        op = _DirectOp(src, tag, size, None, comp, user_ctx)
        self._recv_ops[op.op_id] = op
        yield self.costs.direct_post
        # Check unexpected RTS first (handshake may have raced us).
        for i, (rts_src, p) in enumerate(self._unexpected_rts):
            if rts_src == src and p["tag"] == tag:
                del self._unexpected_rts[i]
                self._reply_rtr(src, p, op)
                return LCI_OK
        self._posted_recvd.setdefault((src, tag), deque()).append(op)
        return LCI_OK

    # ------------------------------------------------------------------
    # progress (§5.3.1: drain CQs, match, respond to RTS, run handlers,
    # refill receive queues)
    # ------------------------------------------------------------------

    def progress(self) -> Generator[Any, Any, int]:
        """One progress pass; returns the number of items processed."""
        n = 0
        costs = self.costs
        drain = costs.completion_drain
        hw = self._hw
        proto = self._rx_proto
        rx_am = self._rx_am
        # 1. Hardware completions (send FINs, RDMA write arrivals).
        while hw:
            record = hw.popleft()
            yield drain
            self._handle_hw(record)
            n += 1
        # 2. Protocol control messages (RTS/RTR).
        while proto:
            msg = proto.popleft()
            yield drain
            self._handle_proto(msg)
            n += 1
        # 3. Active messages, limited by RX packet availability.
        while rx_am and self.rx_packets_free > 0:
            msg = rx_am.popleft()
            self.rx_packets_free -= 1
            if self._obs_on:
                self._h_rx_pool.observe(costs.packet_pool_size - self.rx_packets_free)
            yield drain + costs.refill_recv
            p = msg.payload
            record = CompletionRecord(
                "am", msg.src, p["tag"], p["size"], None, p["data"]
            )
            if self.am_handler is None:
                raise LciError(f"node {self.node}: active message with no handler")
            yield costs.handler_dispatch
            result = self.am_handler(record)
            if hasattr(result, "send"):
                # Generator handler: run it here so its CPU cost lands on the
                # thread driving progress (the LCI progress thread).
                yield from result
            n += 1
        if rx_am and self.rx_packets_free <= 0:
            # Hardware receive-queue depletion (§5.2): deliveries stall
            # until a consumer frees an RX packet.
            self._c_am_stall.inc()
        return n

    def free_rx_packet(self) -> None:
        """Return a dynamically allocated AM buffer to the pool."""
        if self.rx_packets_free >= self.costs.packet_pool_size:
            raise LciError("free_rx_packet without allocation")
        self.rx_packets_free += 1
        if self._rx_am:
            self._notify()

    def _handle_hw(self, record: tuple) -> None:
        kind = record[0]
        if kind == "fin":  # sender-side RDMA completion
            op = self._send_ops.pop(record[1])
            self.send_slots_free += 1
            self._signal(op.comp, CompletionRecord("sendd", op.peer, op.tag, op.size, op.user_ctx))
        elif kind == "rcomp":  # receiver-side RDMA write arrival
            op = self._recv_ops.pop(record[1])
            self.recv_slots_free += 1
            self._signal(
                op.comp,
                CompletionRecord("recvd", op.peer, op.tag, op.size, op.user_ctx, payload=record[2]),
            )
        elif kind == "pcomp":  # one-sided put arrival (remote notification)
            _kind, tag, size, src, data, remote_meta = record
            if self.put_handler is None:
                raise LciError(f"node {self.node}: one-sided put with no put_handler")
            self.put_handler(
                CompletionRecord("putd_remote", src, tag, size, remote_meta, payload=data)
            )
        else:  # pragma: no cover - defensive
            raise LciError(f"unknown hardware completion {kind!r}")

    def _handle_proto(self, msg: WireMessage) -> None:
        p = msg.payload
        if p["kind"] == "rts":
            queue = self._posted_recvd.get((msg.src, p["tag"]))
            if queue:
                op = queue.popleft()
                self._reply_rtr(msg.src, p, op)
            else:
                self._unexpected_rts.append((msg.src, p))
        elif p["kind"] == "rtr":
            op = self._send_ops.get(p["sd"])
            if op is None:
                raise LciError(f"RTR for unknown direct send {p['sd']}")
            fabric = self.world.fabric
            data_payload = {"kind": "rdma", "rd": p["rd"], "sd": op.op_id, "data": op.payload}
            deferred = fabric.defers_wire and op.peer != self.node
            if deferred and not self.faults.enabled:
                data_payload["_fin"] = (
                    op.op_id, fabric.base_latency(op.peer, self.node)
                )
            data_msg = WireMessage(
                self.node, op.peer, op.size + _HEADER, _DATA,
                data_payload, "lci",
            )
            deliver = fabric.send(data_msg)
            if not self.faults.enabled and not deferred:
                # Loopback RDMA write: receiver CQE at delivery; sender CQE
                # one wire latency later (hardware ack), both drained by
                # progress.  (In fault mode the receiver raises both at
                # actual delivery; deferred wire sends raise the receiver
                # CQE at the resolved delivery and the FIN via ``_fin``.)
                peer_dev = self.world.devices[op.peer]
                self.sim.call_later(
                    deliver - self.sim.now,
                    peer_dev._push_hw,
                    ("rcomp", p["rd"], op.payload),
                )
                ack = fabric.base_latency(op.peer, self.node)
                self.sim.call_later(deliver - self.sim.now + ack, self._push_hw, ("fin", op.op_id))
        else:  # pragma: no cover - defensive
            raise LciError(f"unknown protocol message {p['kind']!r}")

    def _reply_rtr(self, src: int, rts_payload: dict, op: _DirectOp) -> None:
        if rts_payload["size"] > op.size:
            raise LciError(
                f"direct receive too small: {op.size} B posted, {rts_payload['size']} B incoming"
            )
        op.size = rts_payload["size"]
        self.world.fabric.send(
            WireMessage(
                self.node,
                src,
                _CTRL,
                _CONTROL,
                {"kind": "rtr", "sd": rts_payload["sd"], "rd": op.op_id},
                "lci",
            )
        )

    # ------------------------------------------------------------------

    def _signal(self, comp: Completion, record: CompletionRecord) -> None:
        if comp is None:
            return
        if isinstance(comp, Synchronizer):
            comp.signal(record)
        elif isinstance(comp, CompletionQueue):
            comp.push(record)
        elif callable(comp):
            comp(record)
        else:
            raise LciError(f"unsupported completion target {comp!r}")
