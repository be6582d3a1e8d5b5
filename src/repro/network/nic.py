"""Per-node NIC serialization model.

Bookkeeping-only (no processes): each direction of the NIC keeps a
``busy_until`` clock per virtual channel.  A message charges its
serialization time ``max(size/bandwidth, gap)`` on its channel.

Control/data interaction approximates InfiniBand packet-level QP
arbitration without per-packet events:

- a DATA message queues FIFO behind other data: it departs at
  ``max(now, data_busy) + ser``;
- a CONTROL message does *not* wait for in-flight data — it departs at
  ``max(now, ctrl_busy) + ser`` and *steals* its serialization time from the
  data channel by pushing ``data_busy`` back by ``ser`` (bandwidth is
  conserved, control latency stays flat).

The receive side mirrors this to model ejection contention (incast): a
message from a single sender never waits (the sender already paced it), but
simultaneous arrivals from several senders drain at line rate.
"""

from __future__ import annotations

from repro.config import NetworkConfig
from repro.network.message import MessageClass

__all__ = ["NicState"]

#: Module-level copy: a global read is much cheaper than an enum
#: class-attribute read on the per-message path.
_CONTROL = MessageClass.CONTROL


class NicState:
    """Injection/ejection bookkeeping for one node's NIC."""

    __slots__ = (
        "cfg",
        "tx_data_busy",
        "tx_ctrl_busy",
        "rx_data_busy",
        "rx_ctrl_busy",
        "tx_bytes",
        "rx_bytes",
        "tx_msgs",
        "rx_msgs",
    )

    def __init__(self, cfg: NetworkConfig):
        self.cfg = cfg
        self.tx_data_busy = 0.0
        self.tx_ctrl_busy = 0.0
        self.rx_data_busy = 0.0
        self.rx_ctrl_busy = 0.0
        self.tx_bytes = 0
        self.rx_bytes = 0
        self.tx_msgs = 0
        self.rx_msgs = 0

    def serialization(self, size: int) -> float:
        """Time the wire is occupied by a message of ``size`` bytes."""
        return max(size / self.cfg.bandwidth, self.cfg.message_gap)

    def backlog(self, now: float) -> dict[str, float]:
        """Outstanding busy time (seconds) per direction/class at ``now``.

        The channel-occupancy signal the observability layer samples: how
        far ahead of real time each virtual channel is committed.
        """
        return {
            "tx_data": max(0.0, self.tx_data_busy - now),
            "tx_ctrl": max(0.0, self.tx_ctrl_busy - now),
            "rx_data": max(0.0, self.rx_data_busy - now),
            "rx_ctrl": max(0.0, self.rx_ctrl_busy - now),
        }

    def inject(self, now: float, size: int, msg_class: MessageClass) -> float:
        """Charge a transmit; returns the time the tail leaves the NIC."""
        cfg = self.cfg
        ser = size / cfg.bandwidth  # inlined serialization()
        if cfg.message_gap > ser:
            ser = cfg.message_gap
        # ``max`` written out as comparisons that keep its rule (the first
        # of equal values wins), so every float is unchanged.
        if msg_class == _CONTROL:
            busy = self.tx_ctrl_busy
            depart = (busy if busy > now else now) + ser
            self.tx_ctrl_busy = depart
            # Steal the bandwidth from the data channel.
            busy = self.tx_data_busy
            self.tx_data_busy = (now if now > busy else busy) + ser
        else:
            start = now
            busy = self.tx_data_busy
            if busy > start:
                start = busy
            busy = self.tx_ctrl_busy - ser
            if busy > start:
                start = busy
            depart = start + ser
            self.tx_data_busy = depart
        self.tx_bytes += size
        self.tx_msgs += 1
        return depart

    def eject(self, now: float, arrival: float, size: int, msg_class: MessageClass) -> float:
        """Charge a receive; returns the delivery time at the destination.

        ``arrival`` is when the message tail would reach the NIC with no
        receiver contention; delivery can only be later.
        """
        cfg = self.cfg
        ser = size / cfg.bandwidth  # inlined serialization()
        if cfg.message_gap > ser:
            ser = cfg.message_gap
        if msg_class == _CONTROL:
            free = self.rx_ctrl_busy + ser
            deliver = free if free > arrival else arrival
            self.rx_ctrl_busy = deliver
            busy = self.rx_data_busy
            free = arrival - ser
            self.rx_data_busy = (free if free > busy else busy) + ser
        else:
            free = self.rx_data_busy + ser
            deliver = free if free > arrival else arrival
            self.rx_data_busy = deliver
        self.rx_bytes += size
        self.rx_msgs += 1
        return deliver
