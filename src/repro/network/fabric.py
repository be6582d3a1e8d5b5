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
from typing import Callable, NamedTuple, Optional

from repro.config import NetworkConfig
from repro.errors import NetworkError
from repro.faults.engine import NULL_FAULTS
from repro.network.message import MessageClass, WireMessage
from repro.network.nic import NicState
from repro.network.topology import FatTreeTopology
from repro.obs.bus import NULL_BUS, ObsBus
from repro.sim.core import Simulator
from repro.units import US

__all__ = ["Fabric", "PartitionFabric", "WireRecord", "partition_owner"]

Handler = Callable[[WireMessage], None]

#: Sort key for the epoch flush buffer: ``(src, seq)``.  Seqs are unique
#: per source, so tuple comparison never reaches the message object.
_WIRE_KEY = operator.itemgetter(0, 1)

#: Sort key for the coordinator's global outbox merge: the canonical
#: ``(inject, src, seq)`` total order every engine replays.
WIRE_MERGE_KEY = operator.attrgetter("inject", "src", "seq")


def partition_owner(num_nodes: int, partitions: int) -> list[int]:
    """Block ownership map: ``owner[node]`` = partition index.

    Nodes are distributed in contiguous blocks (partition ``p`` owns ranks
    ``[p*N/P, (p+1)*N/P)``), which keeps the paper's 2D block-cyclic HiCMA
    neighbours mostly partition-local.  Every partition owns at least one
    node; asking for more partitions than nodes is a configuration error.
    """
    if partitions < 1:
        raise NetworkError(f"partitions must be >= 1 (got {partitions})")
    if partitions > num_nodes:
        raise NetworkError(
            f"cannot split {num_nodes} node(s) across {partitions} "
            f"partitions; each partition needs at least one node"
        )
    return [node * partitions // num_nodes for node in range(num_nodes)]


class Fabric:
    """A cluster interconnect connecting ``num_nodes`` nodes.

    With an enabled observability bus every injected message is emitted as a
    ``wire_msg`` event and per-class byte/backlog histograms are maintained;
    with the (default) null bus the instrumentation costs one attribute read
    per send.
    """

    #: Delivery latency of a loopback (shared-memory) message.
    LOOPBACK_LATENCY = 0.4 * US

    #: True on :class:`PartitionFabric`: wire sends are deferred to the
    #: synchronization barrier and completions are delivery-driven.  The
    #: communication libraries branch on this instead of isinstance checks.
    partitioned = False

    #: True when wire sends do not resolve a delivery time at the
    #: ``send()`` call: destination-NIC ejection is deferred — to the end
    #: of the injecting epoch on the serial fabric, to the barrier merge
    #: on :class:`PartitionFabric` — and happens in canonical ``(inject,
    #: src, seq)`` order, so equal-timestamp arrivals at one NIC resolve
    #: identically in both engines.  ``send()`` returns ``nan`` for wire
    #: messages and source-side completions are delivery-driven (the
    #: ``_fin`` payload hint).  False only when the reliable transport
    #: owns delivery scheduling (fault-injection mode).  Set per instance.
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
        #: Per-channel source-side completion appliers (``fn(node, ref)``),
        #: the serial twin of the partition driver's ``_fin_call``.
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
        at ``inject + ((deliver - inject) + extra)`` — the same float
        arithmetic, and the same applier, the partition driver uses for
        barrier FIN notices (``repro.sim.partition._fin_call``).
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
        instead of the return value — exactly as in partitioned mode.
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
        the canonical ``(inject, src, seq)`` total order — so receiver-
        contention bookkeeping (``NicState.eject`` is call-order-sensitive)
        resolves equal-timestamp arrivals identically to the partitioned
        engine's barrier merge.  For each record the delivery handler is
        scheduled at ``inject + (deliver - inject)`` and any ``_fin``
        payload hint becomes a source-side completion at ``inject +
        ((deliver - inject) + extra)`` — both the exact float expressions
        of the partition driver — in record order, delivery before fin, so
        equal-fire-time heap ties also replay identically.
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


class WireRecord(NamedTuple):
    """One deferred wire transmission, as exchanged between partitions.

    The pickled unit of the PDES barrier protocol: everything a receiving
    partition needs to eject the message at the destination NIC and
    schedule its delivery handler bit-identically to the serial kernel.
    The canonical global merge order is the ``(inject, src, seq)`` total
    order (:data:`WIRE_MERGE_KEY`): the same key the serial fabric's
    epoch flush replays, which is what makes equal-timestamp arrivals at
    one destination NIC resolve identically in every engine regardless of
    which partition observed which send.
    """

    #: Fabric injection time (``sim.now`` at the ``send()`` call).
    inject: float
    #: Source node rank.
    src: int
    #: Per-source-node send sequence number (canonical tie-break).
    seq: int
    #: Destination node rank.
    dst: int
    #: Wire arrival time at the destination NIC (tail departure + route
    #: latency); receiver contention is charged by the destination
    #: partition's ``eject`` in canonical order.
    arrival: float
    #: NIC tail-departure time at the source.
    depart: float
    #: Wire size in bytes.
    size: int
    #: ``MessageClass`` value (int, pickle-stable).
    msg_class: int
    #: Library channel (``"mpi"`` / ``"lci"``).
    channel: str
    #: Opaque library payload (must be picklable in partitioned mode).
    payload: object


class PartitionFabric(Fabric):
    """Fabric for one partition worker of a conservative-sync PDES run.

    The worker owns a contiguous block of node ranks (``owner`` maps every
    rank to its partition).  Loopback messages never touch NICs or the
    wire and stay on the serial fast path; **every** wire send — including
    one whose destination happens to live in this partition — is charged
    at the source NIC immediately but *deferred* as a :class:`WireRecord`
    into :attr:`outbox` instead of being delivery-scheduled.  The barrier
    exchange merges all partitions' records in canonical ``(inject, src,
    seq)`` order and hands each destination partition its slice through
    :meth:`apply_delivery`, which ejects at the destination NIC and
    schedules the handler at exactly the serial kernel's event time
    (``inject + (deliver - inject)`` — the same float arithmetic as the
    serial ``call_later(deliver - now)`` path).

    Fault injection is not supported: the fault engine consumes its RNG
    streams in global send order, which no partitioning can reproduce.
    """

    partitioned = True

    def __init__(
        self,
        sim: Simulator,
        num_nodes: int,
        cfg: Optional[NetworkConfig] = None,
        obs: Optional[ObsBus] = None,
        faults=None,
        *,
        owner: Optional[list[int]] = None,
        local_partition: int = 0,
    ):
        super().__init__(sim, num_nodes, cfg, obs, faults)
        if self._rel is not None:
            raise NetworkError(
                "fault injection is incompatible with partitioned execution "
                "(fault RNG streams are consumed in global send order)"
            )
        self.owner = list(owner) if owner is not None else [0] * num_nodes
        if len(self.owner) != num_nodes:
            raise NetworkError(
                f"ownership map covers {len(self.owner)} nodes, "
                f"fabric has {num_nodes}"
            )
        self.local_partition = local_partition
        #: Deferred wire sends since the last barrier, in send order
        #: (``_src_seq`` lives on the base class).
        self.outbox: list[WireRecord] = []

    def owner_of(self, node: int) -> int:
        """The partition index owning ``node``."""
        self._check_node(node)
        return self.owner[node]

    def send(self, msg: WireMessage) -> float:
        """Inject ``msg``; wire sends are deferred to the barrier.

        Loopback returns the real delivery time (serial fast path); a wire
        send returns ``nan`` — its delivery time is not knowable until the
        destination partition ejects it in canonical order.  Partitioned-
        aware callers never use the return value for wire messages.
        """
        self._check_node(msg.src)
        self._check_node(msg.dst)
        col = self._hcols.get(msg.channel)
        handler = col[msg.dst] if col is not None else None
        if handler is None:
            raise NetworkError(
                f"no handler for channel {msg.channel!r} at node {msg.dst}"
            )
        now = self.sim.now
        msg.inject_time = now
        if self.message_log is not None:  # obs-allow-adhoc
            self.message_log.append(msg)  # obs-allow-adhoc
        if msg.src == msg.dst:
            # Loopback (zero-latency self-channel): partition-local by
            # construction — it never reaches a NIC, so it neither enters
            # the lookahead bound nor the barrier exchange.
            deliver = now + self.LOOPBACK_LATENCY
            msg.depart_time = now
            msg.deliver_time = deliver
            self._emit_wire(msg, now, deliver, now)
            self.sim.call_later(deliver - now, handler, msg)
            return deliver
        depart = self.nics[msg.src].inject(now, msg.size, msg.msg_class)
        arrival = depart + self.base_latency(msg.src, msg.dst)
        msg.depart_time = depart
        msg.deliver_time = math.nan
        seq = self._src_seq[msg.src]
        self._src_seq[msg.src] = seq + 1
        self.outbox.append(WireRecord(
            inject=now, src=msg.src, seq=seq, dst=msg.dst, arrival=arrival,
            depart=depart, size=msg.size, msg_class=int(msg.msg_class),
            channel=msg.channel, payload=msg.payload,
        ))
        self._emit_wire(msg, depart, math.nan, now)
        return math.nan

    def take_outbox(self) -> list[WireRecord]:
        """Drain and return the deferred sends since the last barrier."""
        out, self.outbox = self.outbox, []
        return out

    def eject_delivery(
        self, rec: WireRecord
    ) -> tuple[WireMessage, float, float, Handler]:
        """Eject one merged record at its destination NIC.

        Must be called in canonical (coordinator-merged) order across
        *all* records destined to this partition — receiver-contention
        state (``NicState.eject``) is order-sensitive, and the merge
        order replays the serial kernel's send-call order.  Returns
        ``(msg, deliver, when, handler)``: the reconstructed message, its
        NIC delivery time, the exact event time to schedule the handler
        at, and the handler itself.  Scheduling is the *caller's* job —
        the partition driver defers all insertions so that equal-time
        events enter the heap in the serial kernel's scheduling order.
        """
        msg = WireMessage(
            src=rec.src, dst=rec.dst, size=rec.size,
            msg_class=MessageClass(rec.msg_class), payload=rec.payload,
            channel=rec.channel,
        )
        msg.inject_time = rec.inject
        msg.depart_time = rec.depart
        deliver = self.nics[rec.dst].eject(
            rec.inject, rec.arrival, rec.size, msg.msg_class
        )
        msg.deliver_time = deliver
        handler = self._hcols[rec.channel][rec.dst]
        # Replicate the serial float arithmetic exactly: the serial kernel
        # schedules via call_later(deliver - now), so the realised event
        # time is inject + (deliver - inject), not the raw ``deliver``.
        return msg, deliver, rec.inject + (deliver - rec.inject), handler

    def apply_delivery(self, rec: WireRecord) -> tuple[WireMessage, float]:
        """Eject one merged record and schedule its delivery handler
        immediately (see :meth:`eject_delivery` for the ordering
        contract and the deferred-scheduling variant)."""
        msg, deliver, when, handler = self.eject_delivery(rec)
        self.sim.call_at(when, handler, msg)
        return msg, deliver
