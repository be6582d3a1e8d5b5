"""The fabric: ties NICs and topology together and delivers messages.

Communication libraries register one handler per (node, channel); the
fabric calls ``handler(msg)`` at the simulated delivery time.  Loopback
(src == dst) skips the wire entirely and is delivered after a small
constant memory-copy latency.
"""

from __future__ import annotations

import math
import operator
import warnings
from typing import Callable, Optional

from repro.config import NetworkConfig
from repro.errors import NetworkError
from repro.faults.engine import NULL_FAULTS
from repro.network.message import WireMessage
from repro.network.nic import NicState
from repro.network.topology import FatTreeTopology
from repro.obs.bus import NULL_BUS, ObsBus
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

    #: True when wire sends do not resolve a delivery time at the
    #: ``send()`` call: destination-NIC ejection is deferred to the end of
    #: the injecting epoch and happens in canonical ``(inject, src, seq)``
    #: order.  ``NicState.eject`` depends on call order, so this keeps
    #: equal-timestamp arrivals at one NIC independent of the order the
    #: sends were issued in.  ``send()`` returns ``nan`` for wire messages
    #: and source-side completions are delivery-driven (the ``_fin``
    #: payload hint).  False only when the reliable transport owns
    #: delivery scheduling (fault-injection mode).  Set per instance.
    defers_wire = True

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
        self._set_obs(obs if obs is not None else sim.obs)
        self.faults = faults if faults is not None else NULL_FAULTS
        if self.faults.enabled:
            # Imported lazily: repro.faults.transport itself imports the
            # network layer, and this module loads first on most paths.
            from repro.faults.transport import ReliableTransport

            self._rel: Optional[ReliableTransport] = ReliableTransport(self, self.faults)
            self.faults.bind(self)
            self.defers_wire = False
        else:
            self._rel = None
        #: Per-source-node wire-send sequence numbers: the third component
        #: of the canonical ``(inject, src, seq)`` tie-break key stamped on
        #: every deferred wire send.
        self._src_seq = [0] * num_nodes
        #: Wire sends of the current epoch awaiting destination-NIC
        #: ejection: ``(src, seq, msg, arrival, handler)``, flushed in
        #: ``(src, seq)`` order at epoch end (all share one inject time).
        self._pending_wire: list = []
        #: Per-channel source-side completion appliers (``fn(node, ref)``)
        #: for the ``_fin`` payload hint (see :meth:`register_fin_applier`).
        self._fin_appliers: dict[str, Callable[[int, int], None]] = {}
        #: Deprecated raw-WireMessage log — see :meth:`enable_message_log`.
        self.message_log: Optional[list[WireMessage]] = None  # obs-allow-adhoc

    def _set_obs(self, obs) -> None:
        """Bind the bus and (re)cache the fabric's instruments."""
        self.obs = obs
        self._c_msgs = obs.counter("net.wire_msgs")
        self._h_bytes = obs.histogram("net.msg_bytes")
        self._h_tx_backlog = obs.histogram("net.tx_backlog_s")

    def enable_message_log(self) -> list[WireMessage]:
        """Deprecated: start recording every injected WireMessage.

        New code should attach a :mod:`repro.obs` sink (or query the bus's
        memory index for ``wire_msg`` events) instead.  The shim upgrades a
        null bus to a private enabled one so ``wire_msg`` events flow, and
        still returns the raw-object list for legacy callers.
        """
        warnings.warn(
            "Fabric.enable_message_log is deprecated; use the repro.obs bus "
            "(wire_msg events / net.* instruments) instead",
            DeprecationWarning,
            stacklevel=2,
        )
        if not self.obs.enabled:
            bus = ObsBus()
            bus.bind_clock(self.sim)
            self._set_obs(bus)
        if self.message_log is None:  # obs-allow-adhoc
            self.message_log = []  # obs-allow-adhoc
        return self.message_log  # obs-allow-adhoc

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

    def register_fin_applier(
        self, channel: str, fn: Callable[[int, int], None]
    ) -> None:
        """Install ``fn(node, ref)`` applying a source-side completion.

        Deferred wire sends carry their source-side completion as a
        ``_fin = (ref, extra)`` payload hint; once the destination NIC
        resolves the delivery time the fabric schedules ``fn(src, ref)``
        at ``inject + ((deliver - inject) + extra)``.
        """
        self._fin_appliers[channel] = fn

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

    def send(self, msg: WireMessage) -> float:
        """Inject ``msg``; returns the scheduled delivery time.

        The send itself is instantaneous for the caller — CPU injection
        overheads are charged by the *library* models, not the fabric.

        Wire sends (``src != dst``, faults disabled) return ``nan``: the
        source NIC is charged immediately, but destination-NIC ejection is
        deferred to the end of the injecting epoch and performed in
        canonical ``(inject, src, seq)`` order (see :meth:`_flush_epoch`),
        so the delivery time is not knowable at the call.  Callers use the
        delivery-driven ``_fin`` payload hint for source-side completions
        instead of the return value.
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
        msg.inject_time = now
        if self.message_log is not None:  # obs-allow-adhoc
            self.message_log.append(msg)  # obs-allow-adhoc
        if src == dst:
            deliver = now + self.LOOPBACK_LATENCY
            msg.depart_time = now
            msg.deliver_time = deliver
            self._emit_wire(msg, now, deliver, now)
            # Schedule the handler itself — no trampoline per delivery.
            self.sim.call_later(deliver - now, handler, msg)
            return deliver
        if self._rel is not None:
            # Fault-injection mode: the reliable transport owns stamping,
            # delivery scheduling, and retransmission for wire traffic.
            # Loopback never touches the wire and stays on the fast path.
            return self._rel.send(msg, handler)
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
        return math.nan

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
        inject)`` and any ``_fin`` payload hint becomes a source-side
        completion at ``inject + ((deliver - inject) + extra)``, in record
        order, delivery before fin, so equal-fire-time heap ties are
        canonical too.
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
            payload = msg.payload
            if type(payload) is dict:
                fin = payload.get("_fin")
                if fin is not None:
                    ref, extra = fin
                    sim.call_at(
                        now + ((deliver - now) + extra),
                        self._fin_appliers[msg.channel], src, ref,
                    )

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
