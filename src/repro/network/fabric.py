"""The fabric: ties NICs and topology together and delivers messages.

Communication libraries register one handler per (node, channel); the
fabric calls ``handler(msg)`` at the simulated delivery time.  Loopback
(src == dst) skips the wire entirely and is delivered after a small
constant memory-copy latency.

Sender-side completions are delivery-driven: a message whose dict payload
carries ``_fin = (fn, arg, ack)`` gets ``fn(arg)`` scheduled by whatever
code resolves the delivery the receiver accepts (the loopback branch of
:meth:`Fabric.send`, the end-of-epoch flush, or the reliable transport),
at ``deliver`` plus, when ``ack`` is set, ``base_latency(dst, src)``
(``LOOPBACK_LATENCY`` for loopback).
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Callable, Optional

from repro.config import NetworkConfig
from repro.errors import NetworkError
from repro.faults.engine import NULL_FAULTS
from repro.network.message import WireMessage
from repro.network.nic import NicState
from repro.network.topology import FatTreeTopology
from repro.obs.bus import ObsBus
from repro.sim.core import Simulator
from repro.units import US

__all__ = ["Fabric"]

Handler = Callable[[WireMessage], None]

#: Sort key for the epoch flush buffer: ``(src, seq)``.  Seqs are unique
#: per source, so tuple comparison never reaches the message object.
_WIRE_KEY = operator.itemgetter(0, 1)


class Fabric:
    """A cluster interconnect connecting ``num_nodes`` nodes.

    With an enabled observability bus every injected message is emitted as a
    ``wire_msg`` event and per-class byte/backlog histograms are maintained;
    with the (default) null bus the instrumentation costs one attribute read
    per send.
    """

    #: Delivery latency of a loopback (shared-memory) message.
    LOOPBACK_LATENCY = 0.4 * US

    def __init__(
        self,
        sim: Simulator,
        num_nodes: int,
        cfg: Optional[NetworkConfig] = None,
        obs: Optional[ObsBus] = None,
        faults=None,
    ):
        if num_nodes <= 0:
            raise NetworkError("fabric needs at least one node")
        self.sim = sim
        self.cfg = cfg or NetworkConfig()
        self.num_nodes = num_nodes
        self.topology = FatTreeTopology(
            num_nodes,
            nodes_per_leaf=self.cfg.nodes_per_leaf,
            levels=self.cfg.fat_tree_levels,
        )
        self.nics = [NicState(self.cfg) for _ in range(num_nodes)]
        self._handlers: dict[tuple[int, str], Handler] = {}
        #: Per-channel handler *columns*: channel -> flat list indexed by
        #: node rank.  The send hot path does one dict probe on the
        #: (interned) channel string plus a list index instead of building
        #: and hashing a ``(dst, channel)`` tuple per message.
        self._hcols: dict[str, list[Optional[Handler]]] = {}
        #: Flat per-route base-latency table indexed ``src * N + dst``
        #: (``nan`` = not computed yet) — the columnar replacement for the
        #: old ``(src, dst)``-keyed dict cache.
        self._lat_flat: list[float] = [math.nan] * (num_nodes * num_nodes)
        self.obs = obs = obs if obs is not None else sim.obs
        self._c_msgs = obs.counter("net.wire_msgs")
        self._h_bytes = obs.histogram("net.msg_bytes")
        self._h_tx_backlog = obs.histogram("net.tx_backlog_s")
        self.faults = faults if faults is not None else NULL_FAULTS
        if self.faults.enabled:
            # Imported lazily: repro.faults.transport itself imports the
            # network layer, and this module loads first on most paths.
            from repro.faults.transport import ReliableTransport

            self._rel: Optional[ReliableTransport] = ReliableTransport(self, self.faults)
            self.faults.bind(self)
        else:
            self._rel = None
        #: Message ids: :meth:`send` stamps one on every message, in send
        #: order (the reliable transport's ACK probes draw here too).
        self.msg_ids = itertools.count()
        #: Per-source-node wire-send sequence numbers: the third component
        #: of the canonical ``(inject, src, seq)`` tie-break key stamped on
        #: every deferred wire send.
        self._src_seq = [0] * num_nodes
        #: Wire sends of the current epoch awaiting destination-NIC
        #: ejection: ``(src, seq, msg, arrival, handler)``, flushed in
        #: ``(src, seq)`` order at epoch end (all share one inject time).
        self._pending_wire: list = []

    def register_handler(self, node: int, channel: str, handler: Handler) -> None:
        """Install the delivery handler for (node, channel)."""
        self._check_node(node)
        key = (node, channel)
        if key in self._handlers:
            raise NetworkError(f"handler already registered for {key}")
        self._handlers[key] = handler
        col = self._hcols.get(channel)
        if col is None:
            col = self._hcols[channel] = [None] * self.num_nodes
        col[node] = handler

    def invalidate_route(self, src: int, dst: int) -> None:
        """Forget the cached base latency for one route (fault-engine hook:
        degraded/re-routed links change it)."""
        self._lat_flat[src * self.num_nodes + dst] = math.nan

    def base_latency(self, src: int, dst: int) -> float:
        """Zero-load wire latency between two nodes."""
        lat = self._lat_flat[src * self.num_nodes + dst]
        if lat != lat:  # nan: not computed yet (or invalidated)
            lat = self.cfg.latency(self.topology.hops(src, dst))
            if self.faults.enabled:
                # Degraded/re-routed routes see a different latency; the
                # fault engine invalidates this cache on state changes.
                lat = self.faults.route_latency(src, dst, lat)
            self._lat_flat[src * self.num_nodes + dst] = lat
        return lat

    def send(self, msg: WireMessage) -> None:
        """Inject ``msg`` and arrange its delivery.

        The send itself is instantaneous for the caller — CPU injection
        overheads are charged by the *library* models, not the fabric.
        ``msg.depart_time`` is stamped at the call; the delivery time is
        resolved at once for loopback, at the end of the injecting epoch
        for wire sends (:meth:`_flush_epoch`), and by the reliable
        transport under a fault plan.
        """
        src = msg.src
        dst = msg.dst
        n = self.num_nodes
        if not (0 <= src < n and 0 <= dst < n):
            self._check_node(src)
            self._check_node(dst)
        col = self._hcols.get(msg.channel)
        handler = col[dst] if col is not None else None
        if handler is None:
            raise NetworkError(
                f"no handler for channel {msg.channel!r} at node {dst}"
            )
        now = self.sim.now
        msg.msg_id = next(self.msg_ids)
        msg.inject_time = now
        if src == dst:
            deliver = now + self.LOOPBACK_LATENCY
            msg.depart_time = now
            msg.deliver_time = deliver
            self._emit_wire(msg, now, deliver, now)
            # Schedule the handler itself — no trampoline per delivery.
            self.sim.call_later(deliver - now, handler, msg)
            self._fin(msg, deliver)
            return
        if self._rel is not None:
            # Fault-injection mode: the reliable transport owns stamping,
            # delivery scheduling, and retransmission for wire traffic.
            # Loopback never touches the wire and stays on the fast path.
            self._rel.send(msg, handler)
            return
        depart = self.nics[src].inject(now, msg.size, msg.msg_class)
        lat = self._lat_flat[src * n + dst]
        if lat != lat:  # not cached yet
            lat = self.base_latency(src, dst)
        arrival = depart + lat
        msg.depart_time = depart
        msg.deliver_time = math.nan
        src_seq = self._src_seq
        seq = src_seq[src]
        src_seq[src] = seq + 1
        pending = self._pending_wire
        if not pending:
            self.sim.at_epoch_end(self._flush_epoch)
        pending.append((src, seq, msg, arrival, handler))

    def _flush_epoch(self) -> None:
        """Eject the epoch's wire sends at their destination NICs.

        Runs at the end of the injecting epoch (``Simulator.at_epoch_end``)
        with the clock still at the shared injection time.  Records are
        ejected in ``(src, seq)`` order — with one inject time this *is*
        the canonical ``(inject, src, seq)`` total order.  Receiver-
        contention bookkeeping (``NicState.eject``) depends on call order,
        so sorting makes equal-timestamp arrivals at one NIC resolve the
        same way whatever order the sends were issued in.  For each record
        the delivery handler is scheduled at ``inject + (deliver -
        inject)``, then its ``_fin`` hint (:meth:`_fin`), in record order,
        so equal-fire-time heap ties are canonical too.
        """
        buf = self._pending_wire
        self._pending_wire = []
        if len(buf) > 1:
            buf.sort(key=_WIRE_KEY)
        sim = self.sim
        nics = self.nics
        now = sim.now
        obs_on = self.obs.enabled
        for src, seq, msg, arrival, handler in buf:
            deliver = nics[msg.dst].eject(
                now, arrival, msg.size, msg.msg_class
            )
            msg.deliver_time = deliver
            if obs_on:
                self._emit_wire(msg, msg.depart_time, deliver, now)
            sim.call_at(now + (deliver - now), handler, msg)
            self._fin(msg, deliver)

    def _fin(self, msg: WireMessage, deliver: float) -> None:
        """Schedule ``msg``'s sender-side completion for its accepted
        delivery at ``deliver``.

        A dict payload may carry ``_fin = (fn, arg, ack)``: ``fn(arg)``
        fires at ``deliver``, plus one route latency back to the sender
        (a hardware ack) when ``ack`` is true; a loopback ack costs one
        :attr:`LOOPBACK_LATENCY`, like the copy it acknowledges.  The route
        latency is read now, when the delivery is resolved: degraded routes
        change it.
        """
        payload = msg.payload
        if type(payload) is dict:
            fin = payload.get("_fin")
            if fin is not None:
                fn, arg, ack = fin
                now = self.sim.now
                if not ack:
                    extra = 0.0
                elif msg.src == msg.dst:
                    extra = self.LOOPBACK_LATENCY
                else:
                    extra = self.base_latency(msg.dst, msg.src)
                self.sim.call_at(now + ((deliver - now) + extra), fn, arg)

    def _emit_wire(self, msg: WireMessage, depart: float, deliver: float, now: float) -> None:
        """Emit the ``wire_msg`` event + fabric instruments for one send."""
        if self.obs.enabled:
            self.obs.emit(
                "wire_msg",
                msg.src,
                key=(msg.src, msg.dst),
                info=(msg.channel, msg.msg_class.name, msg.size, deliver - now),
                time=now,
            )
            self._c_msgs.inc()
            self._h_bytes.observe(msg.size)
            self._h_tx_backlog.observe(depart - now)

    def total_bytes(self) -> int:
        """Total bytes injected into the fabric (diagnostic)."""
        return sum(nic.tx_bytes for nic in self.nics)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise NetworkError(f"node {node} out of range [0, {self.num_nodes})")
