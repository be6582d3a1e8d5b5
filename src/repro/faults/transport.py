"""Fabric-level reliable transport: the recovery half of fault injection.

When a :class:`~repro.faults.engine.FaultEngine` is active, every non-loopback
:class:`~repro.network.message.WireMessage` goes through one
:class:`ReliableTransport` owned by the fabric instead of the perfect-delivery
path:

- the sender stamps a per-(src, dst, channel) **sequence number** and a
  **checksum** over the wire header;
- the receiver verifies the checksum (corruption ⇒ NACK back to the sender,
  which retransmits immediately), dedups via a cumulative-ack
  :class:`SeqTracker` (duplicates are re-ACKed but never delivered twice),
  and ACKs accepted messages;
- the sender keeps each message in an in-flight table guarded by a
  retransmission timer — timeout ⇒ retransmit with exponentially backed-off,
  jittered RTO (:meth:`repro.faults.engine.FaultEngine.rto_delay`) until the
  ACK arrives or the ``max_retransmits`` budget is exhausted
  (:class:`~repro.errors.FaultError`).

Every transmission (including retransmits) charges the NICs like a first-class
message, and ACK/NACK control messages ride the wire themselves — subject to
the same injectors, so lost ACKs exercise the timeout path.  All randomness
comes from the engine's named streams, so recovery schedules replay
bit-identically for a given seed and plan.
"""

from __future__ import annotations

import dataclasses
import zlib
from typing import TYPE_CHECKING, Callable

from repro.errors import FaultError
from repro.network.message import MessageClass, WireMessage

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.engine import FaultEngine
    from repro.network.fabric import Fabric

__all__ = ["ReliableTransport", "SeqTracker", "wire_checksum"]

#: Size of an ACK/NACK control message on the wire (bytes).
_ACK_SIZE = 32


def wire_checksum(msg: WireMessage) -> int:
    """CRC over the wire header fields the transport protects."""
    return zlib.crc32(
        f"{msg.src}|{msg.dst}|{msg.channel}|{msg.seq}|{msg.size}".encode()
    )


class SeqTracker:
    """Receiver-side dedup: cumulative counter plus an out-of-order set."""

    __slots__ = ("cum", "seen")

    def __init__(self):
        #: Highest sequence number below which everything was accepted.
        self.cum = -1
        #: Accepted sequence numbers above ``cum`` (gaps pending).
        self.seen: set[int] = set()

    def accept(self, seq: int) -> bool:
        """True iff ``seq`` is new; records it either way."""
        if seq <= self.cum or seq in self.seen:
            return False
        if seq == self.cum + 1:
            self.cum += 1
            while self.cum + 1 in self.seen:
                self.seen.discard(self.cum + 1)
                self.cum += 1
        else:
            self.seen.add(seq)
        return True


class _Pending:
    """Sender-side state of one unacknowledged message."""

    __slots__ = ("msg", "handler", "attempts", "serial", "first_tx", "fault_kinds")

    def __init__(self, msg: WireMessage, handler: Callable, now: float):
        self.msg = msg
        self.handler = handler
        self.attempts = 0
        #: Incremented per (re)transmission; stale timers compare against it.
        self.serial = 0
        self.first_tx = now
        #: Fault kinds observed on this message's transmissions, for
        #: per-kind recovery attribution.
        self.fault_kinds: set[str] = set()


class ReliableTransport:
    """Per-fabric reliable delivery state machine (active in fault mode only)."""

    def __init__(self, fabric: "Fabric", engine: "FaultEngine"):
        self.fabric = fabric
        self.engine = engine
        self.sim = fabric.sim
        self.obs = engine.obs
        self._next_seq: dict[tuple[int, int, str], int] = {}
        #: (src, dst, channel, seq) -> _Pending, until ACKed.
        self.inflight: dict[tuple, _Pending] = {}
        self._rx: dict[tuple[int, int, str], SeqTracker] = {}
        obs = self.obs
        self._c_retransmits = obs.counter("rel.retransmits")
        self._c_acks = obs.counter("rel.acks")
        self._c_nacks = obs.counter("rel.nacks")
        self._c_dup_dropped = obs.counter("rel.dup_dropped")
        self._c_recovered = obs.counter("rel.recovered")
        self._h_recovery_us = obs.histogram("rel.recovery_latency_us")

    @property
    def inflight_count(self) -> int:
        """Unacknowledged messages (0 after a fully drained run)."""
        return len(self.inflight)

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------

    def send(self, msg: WireMessage, handler: Callable) -> None:
        """Stamp, track and transmit ``msg`` until the receiver ACKs it.

        The receiver's handler, and then the message's ``_fin`` hint, run
        at the first intact delivery (duplicates are dropped).
        """
        now = self.sim.now
        route = (msg.src, msg.dst, msg.channel)
        seq = self._next_seq.get(route, 0)
        self._next_seq[route] = seq + 1
        msg.seq = seq
        msg.checksum = wire_checksum(msg)
        key = route + (seq,)
        pend = _Pending(msg, handler, now)
        self.inflight[key] = pend
        self._transmit(key, pend)
        self._arm_timer(key, pend)

    def _transmit(self, key: tuple, pend: _Pending) -> None:
        fabric = self.fabric
        msg = pend.msg
        now = self.sim.now
        pend.attempts += 1
        pend.serial += 1
        drop, dup, corrupt, extra_delay, kinds = self.engine.judge(msg, now)
        for k in kinds:
            if k in ("drop", "corrupt", "flap"):
                pend.fault_kinds.add(k)
        depart = fabric.nics[msg.src].inject(now, msg.size, msg.msg_class)
        if pend.attempts == 1:
            msg.depart_time = depart
        arrival = depart + fabric.base_latency(msg.src, msg.dst)
        if drop:
            # Left the NIC, died in the network: the RTO timer recovers.
            return
        deliver = fabric.nics[msg.dst].eject(
            now, arrival + extra_delay, msg.size, msg.msg_class
        )
        msg.deliver_time = deliver
        fabric._emit_wire(msg, depart, deliver, now)
        wire = msg
        if corrupt:
            # Deliver a copy with a garbled checksum; the original stays
            # intact in the in-flight table for retransmission.
            wire = dataclasses.replace(msg, checksum=msg.checksum ^ 0x5A5A5A5A)
        self.sim.call_later(deliver - now, self._on_deliver, key, pend.handler, wire)
        if dup:
            # The network minted an extra copy; deliver it a bit later.
            dup_arrival = arrival + fabric.base_latency(msg.src, msg.dst)
            dup_deliver = fabric.nics[msg.dst].eject(
                now, dup_arrival, msg.size, msg.msg_class
            )
            self.sim.call_later(
                dup_deliver - now, self._on_deliver, key, pend.handler, wire
            )

    def _arm_timer(self, key: tuple, pend: _Pending) -> None:
        serial = pend.serial
        self.sim.call_later(
            self.engine.rto_delay(pend.attempts), self._on_timeout, key, serial
        )

    def _on_timeout(self, key: tuple, serial: int) -> None:
        pend = self.inflight.get(key)
        if pend is None or pend.serial != serial:
            return  # ACKed, or a NACK already triggered a retransmission
        if pend.attempts > self.engine.cfg.max_retransmits:
            raise FaultError(
                f"message {key} undeliverable after {pend.attempts} attempts"
            )
        self._c_retransmits.inc()
        if self.obs.enabled:
            self.obs.emit(
                "rel.retransmit", key[0], key=(key[0], key[1]),
                info=(key[3], pend.attempts),
            )
        self._transmit(key, pend)
        self._arm_timer(key, pend)

    # ------------------------------------------------------------------
    # receiver side
    # ------------------------------------------------------------------

    def _on_deliver(self, key: tuple, handler: Callable, wire: WireMessage) -> None:
        if wire.checksum != wire_checksum(wire):
            self._c_nacks.inc()
            if self.obs.enabled:
                self.obs.emit(
                    "fault.corrupt_detected", wire.dst, key=(wire.src, wire.dst),
                    info=wire.seq,
                )
            self._send_ctrl(wire.dst, wire.src, wire.channel, ("nack", key))
            return
        route = key[:3]
        tracker = self._rx.get(route)
        if tracker is None:
            tracker = self._rx[route] = SeqTracker()
        if not tracker.accept(key[3]):
            # Duplicate (network dup, or retransmit racing a lost ACK):
            # suppress delivery but re-ACK so the sender stops resending.
            self._c_dup_dropped.inc()
            self._send_ctrl(wire.dst, wire.src, wire.channel, ("ack", key))
            return
        self._send_ctrl(wire.dst, wire.src, wire.channel, ("ack", key))
        handler(wire)
        self.fabric._fin(wire, self.sim.now)

    def _send_ctrl(self, src: int, dst: int, channel: str, ctrl: tuple) -> None:
        """Transmit an ACK/NACK — itself subject to the fault injectors."""
        now = self.sim.now
        fabric = self.fabric
        probe = WireMessage(
            src=src, dst=dst, size=_ACK_SIZE,
            msg_class=MessageClass.CONTROL, channel=channel,
            msg_id=next(fabric.msg_ids),
        )
        drop, _dup, corrupt, extra_delay, _kinds = self.engine.judge(
            probe, now, control=True
        )
        depart = fabric.nics[src].inject(now, _ACK_SIZE, MessageClass.CONTROL)
        if drop or corrupt:
            return  # lost/garbled control message; the sender's RTO recovers
        arrival = depart + fabric.base_latency(src, dst) + extra_delay
        deliver = fabric.nics[dst].eject(now, arrival, _ACK_SIZE, MessageClass.CONTROL)
        self.sim.call_later(deliver - now, self._on_ctrl, ctrl)

    def _on_ctrl(self, ctrl: tuple) -> None:
        op, key = ctrl
        pend = self.inflight.get(key)
        if pend is None:
            return  # stale (duplicate ACK, or NACK after a later ACK)
        if op == "ack":
            del self.inflight[key]
            self._c_acks.inc()
            if pend.attempts > 1 or pend.fault_kinds:
                self._c_recovered.inc()
                self._h_recovery_us.observe((self.sim.now - pend.first_tx) * 1e6)
                for kind in pend.fault_kinds:
                    self.engine.count_recovered(kind)
        else:  # nack: the delivered copy was corrupt — retransmit now
            self._c_retransmits.inc()
            self._transmit(key, pend)
            self._arm_timer(key, pend)
