"""Wire-level message representation."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

__all__ = ["MessageClass", "WireMessage"]


class MessageClass(enum.IntEnum):
    """NIC virtual channel.  Control messages are small and latency-critical
    (ACTIVATE, GET DATA, handshakes, RTS/CTS); data messages are bulk
    transfers.  The NIC model lets control traffic steal bandwidth from
    in-flight data instead of queueing behind it, approximating InfiniBand's
    packet-granularity QP arbitration."""

    CONTROL = 0
    DATA = 1


@dataclass(slots=True, init=False)
class WireMessage:
    """One message on the wire.

    ``payload`` is opaque to the network layer — the communication libraries
    put their protocol headers/bodies there.  ``size`` is what the wire
    charges (headers included), independent of the Python payload object.

    A slotted dataclass with a plain ``__init__`` (one is built per wire
    send); ``dataclasses.replace`` still copies one, ``msg_id`` included.
    """

    src: int
    dst: int
    size: int
    msg_class: MessageClass
    payload: Any
    #: Library-level channel discriminator (e.g. "mpi", "lci").
    channel: str
    #: Stamped by the fabric on send: unique within that fabric's run.
    msg_id: int
    #: Stamped by the fabric: injection time, NIC tail-departure time, and
    #: delivery time at the destination.
    inject_time: float
    depart_time: float
    deliver_time: float
    #: Set only by the reliable transport (fault-injection mode): per-route
    #: sequence number and header checksum.
    seq: int
    checksum: int

    def __init__(
        self,
        src: int,
        dst: int,
        size: int,
        msg_class: MessageClass,
        payload: Any = None,
        channel: str = "",
        msg_id: int = -1,
        inject_time: float = -1.0,
        depart_time: float = -1.0,
        deliver_time: float = -1.0,
        seq: int = -1,
        checksum: int = 0,
    ) -> None:
        self.src = src
        self.dst = dst
        self.size = size
        self.msg_class = msg_class
        self.payload = payload
        self.channel = channel
        self.msg_id = msg_id
        self.inject_time = inject_time
        self.depart_time = depart_time
        self.deliver_time = deliver_time
        self.seq = seq
        self.checksum = checksum
        # Self-sends (src == dst) are legal loopback; the fabric
        # special-cases them.
        if size < 0:
            raise ValueError(f"negative message size: {size}")
