"""The deterministic fault-injection engine (and its NULL twin).

A :class:`FaultEngine` is constructed by :class:`~repro.runtime.context.
ParsecContext` from a :class:`~repro.config.FaultConfig` plan and the run's
:class:`~repro.sim.rng.RngStreams`, then bound to the fabric.  It makes every
injection decision — :meth:`judge` is consulted once per wire transmission —
from named RNG streams, so the same ``(seed, plan)`` pair replays
bit-identically (``tools/check_fault_determinism.py`` enforces this).

Route health is modelled per directed (src, dst) pair: a per-route stream
lazily generates flap windows; a transmission inside a window is lost and
marks the route *degraded* (latency × ``degraded_latency_factor``).  After
``breaker_threshold`` flap losses the circuit breaker trips and the fabric
re-routes the pair over an alternate fat-tree path
(:meth:`~repro.network.topology.FatTreeTopology.alternate_hops`), after which
the route no longer flaps — graceful degradation instead of a lost node.

Everything the engine does is visible on the obs bus: ``fault.injected.*`` /
``fault.recovered.*`` counters, ``fault.*`` events, and the transport's
``rel.*`` instruments.  With faults disabled, code holds the shared
:data:`NULL_FAULTS` singleton whose ``enabled`` flag short-circuits every
hook — the same zero-cost NULL-object pattern as ``NULL_BUS``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.config import FaultConfig
from repro.obs.bus import NULL_BUS

if TYPE_CHECKING:  # pragma: no cover
    from repro.lci.device import LciDevice, LciWorld
    from repro.network.fabric import Fabric
    from repro.sim.core import Simulator
    from repro.sim.rng import RngStreams

__all__ = ["FaultEngine", "NullFaultEngine", "NULL_FAULTS"]

#: Wire-fault kinds :meth:`FaultEngine.judge` can inject.
WIRE_FAULT_KINDS = ("drop", "dup", "corrupt", "delay", "flap")


class NullFaultEngine:
    """Disabled fault engine: every hook is a no-op (cf. ``NULL_BUS``)."""

    __slots__ = ()

    enabled = False

    def bind(self, fabric) -> None:
        return None

    def bind_stop(self, stop_check) -> None:
        return None

    def compute_scale(self, node: int) -> float:
        return 1.0

    def route_latency(self, src: int, dst: int, base: float) -> float:
        return base

    def schedule_pool_spikes(self, world) -> None:
        return None

    def quiesce(self) -> None:
        return None


#: Shared singleton used whenever fault injection is off.
NULL_FAULTS = NullFaultEngine()


class _RouteState:
    """Flap/breaker state of one directed (src, dst) route."""

    __slots__ = ("stream", "win_start", "win_end", "flap_losses", "degraded", "rerouted")

    def __init__(self, stream, flap_rate: float, flap_duration: float):
        self.stream = stream
        gap = float(stream.exponential(1.0 / flap_rate))
        self.win_start = gap
        self.win_end = gap + flap_duration
        self.flap_losses = 0
        self.degraded = False
        self.rerouted = False


class FaultEngine:
    """Seeded fault injectors + the knobs the recovery machinery consults."""

    enabled = True

    def __init__(
        self,
        cfg: FaultConfig,
        sim: "Simulator",
        rng: "RngStreams",
        obs=None,
    ):
        self.cfg = cfg
        self.sim = sim
        self.rng = rng
        self.obs = obs if obs is not None else NULL_BUS
        self._wire = rng.get("faults.wire")
        self._rto = rng.get("faults.rto")
        self._fabric: Optional["Fabric"] = None
        self._routes: dict[tuple[int, int], _RouteState] = {}
        self._stragglers = frozenset(cfg.straggler_nodes)
        self._halted = False
        self._stop_check: Optional[Callable[[], bool]] = None
        obs = self.obs
        self._c_injected = {
            k: obs.counter(f"fault.injected.{k}") for k in WIRE_FAULT_KINDS
        }
        self._c_recovered = {
            k: obs.counter(f"fault.recovered.{k}") for k in WIRE_FAULT_KINDS
        }
        self._c_reroutes = obs.counter("fault.reroutes")
        self._c_pool_spikes = obs.counter("fault.injected.pool_spike")
        self._c_stragglers = obs.counter("fault.injected.straggler")
        for node in sorted(self._stragglers):
            self._c_stragglers.inc()
            if obs.enabled:
                obs.emit(
                    "fault.straggler", node, key=node,
                    info=cfg.straggler_factor, time=0.0,
                )

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def bind(self, fabric: "Fabric") -> None:
        """Attach to the fabric whose traffic this engine judges."""
        self._fabric = fabric

    def bind_stop(self, stop_check: Callable[[], bool]) -> None:
        """Install a "run is over" predicate that stops injector chains."""
        self._stop_check = stop_check

    def quiesce(self) -> None:
        """Stop scheduling new injections (outstanding restores still run)."""
        self._halted = True

    # ------------------------------------------------------------------
    # wire-level verdicts
    # ------------------------------------------------------------------

    def judge(
        self, msg, now: float, control: bool = False
    ) -> tuple[bool, bool, bool, float, list]:
        """Fault verdict for one transmission attempt of ``msg``.

        Returns ``(drop, duplicate, corrupt, extra_delay, kinds)``.  Draws a
        fixed number of variates per call so the stream stays aligned no
        matter which branches fire.  A ``control`` message (the transport's
        ACK/NACK probe) is never duplicated, so no ``dup`` is counted for it.
        """
        cfg = self.cfg
        u = self._wire.random(4)
        kinds: list[str] = []
        drop = False
        if cfg.flap_rate > 0 and self._route_down(msg.src, msg.dst, now):
            drop = True
            kinds.append("flap")
            self._count_injected("flap", msg)
        elif u[0] < cfg.drop_rate:
            drop = True
            kinds.append("drop")
            self._count_injected("drop", msg)
        dup = not control and u[1] < cfg.dup_rate
        if dup:
            kinds.append("dup")
            self._count_injected("dup", msg)
        corrupt = (not drop) and u[2] < cfg.corrupt_rate
        if corrupt:
            kinds.append("corrupt")
            self._count_injected("corrupt", msg)
        extra_delay = 0.0
        if cfg.reorder_rate > 0 and u[3] < cfg.reorder_rate and not drop:
            extra_delay = cfg.reorder_delay * float(u[3]) / cfg.reorder_rate
            kinds.append("delay")
            self._count_injected("delay", msg)
        return drop, dup, corrupt, extra_delay, kinds

    def _count_injected(self, kind: str, msg) -> None:
        self._c_injected[kind].inc()
        if self.obs.enabled:
            self.obs.emit(
                f"fault.{kind}", msg.src, key=(msg.src, msg.dst), info=msg.msg_id
            )

    def count_recovered(self, kind: str) -> None:
        """Credit a recovery to the fault kind that necessitated it."""
        self._c_recovered[kind].inc()

    # ------------------------------------------------------------------
    # link flaps, degradation, circuit breaker
    # ------------------------------------------------------------------

    def _route_state(self, src: int, dst: int) -> _RouteState:
        st = self._routes.get((src, dst))
        if st is None:
            # Per-route stream: window schedules are independent of the
            # order in which routes first carry traffic.
            stream = self.rng.get(f"faults.flap.{src}.{dst}")
            st = _RouteState(stream, self.cfg.flap_rate, self.cfg.flap_duration)
            self._routes[(src, dst)] = st
        return st

    def _route_down(self, src: int, dst: int, now: float) -> bool:
        st = self._route_state(src, dst)
        if st.rerouted:
            return False  # traffic avoids the flapping link entirely
        while now >= st.win_end:
            gap = float(st.stream.exponential(1.0 / self.cfg.flap_rate))
            st.win_start = st.win_end + gap
            st.win_end = st.win_start + self.cfg.flap_duration
        if not (st.win_start <= now < st.win_end):
            return False
        st.flap_losses += 1
        if not st.degraded:
            st.degraded = True
            self._invalidate_route(src, dst)
            if self.obs.enabled:
                self.obs.emit(
                    "fault.link_degraded", src, key=(src, dst),
                    info=self.cfg.degraded_latency_factor,
                )
        if st.flap_losses >= self.cfg.breaker_threshold:
            st.rerouted = True
            self._invalidate_route(src, dst)
            self._c_reroutes.inc()
            if self.obs.enabled:
                self.obs.emit("fault.reroute", src, key=(src, dst), info=st.flap_losses)
        return True

    def _invalidate_route(self, src: int, dst: int) -> None:
        if self._fabric is not None:
            self._fabric.invalidate_route(src, dst)

    def route_latency(self, src: int, dst: int, base: float) -> float:
        """Base latency adjusted for this route's health (fabric cache-miss
        hook; the engine invalidates the cache on state transitions)."""
        st = self._routes.get((src, dst))
        if st is None:
            return base
        if st.rerouted:
            fabric = self._fabric
            return fabric.cfg.latency(fabric.topology.alternate_hops(src, dst))
        if st.degraded:
            return base * self.cfg.degraded_latency_factor
        return base

    # ------------------------------------------------------------------
    # stragglers
    # ------------------------------------------------------------------

    def compute_scale(self, node: int) -> float:
        """Task-duration multiplier for ``node`` (1.0 for healthy nodes)."""
        return self.cfg.straggler_factor if node in self._stragglers else 1.0

    # ------------------------------------------------------------------
    # RTO schedule (for the reliable transport)
    # ------------------------------------------------------------------

    def rto_delay(self, attempt: int) -> float:
        """Retransmission timeout before attempt ``attempt + 1``:
        exponential backoff, capped, plus deterministic jitter."""
        cfg = self.cfg
        d = min(cfg.rto * cfg.rto_backoff ** (attempt - 1), cfg.rto_max)
        return d * (1.0 + cfg.rto_jitter * float(self._rto.random()))

    # ------------------------------------------------------------------
    # LCI packet-pool exhaustion spikes
    # ------------------------------------------------------------------

    def schedule_pool_spikes(self, world: "LciWorld") -> None:
        """Arm self-perpetuating pool-confiscation chains on every device."""
        if self.cfg.pool_spike_rate <= 0:
            return
        for dev in world.devices:
            stream = self.rng.get(f"faults.pool.{dev.node}")
            self._arm_spike(dev, stream)

    def _arm_spike(self, dev: "LciDevice", stream) -> None:
        gap = float(stream.exponential(1.0 / self.cfg.pool_spike_rate))
        self.sim.call_later(gap, self._spike, dev, stream)

    def _spike(self, dev: "LciDevice", stream) -> None:
        if self._halted or (self._stop_check is not None and self._stop_check()):
            return  # run is over: let the chain die so the event heap drains
        want = int(dev.costs.packet_pool_size * self.cfg.pool_spike_fraction)
        steal_rx = min(want, dev.rx_packets_free)
        steal_tx = min(want, dev.tx_packets_free)
        if steal_rx or steal_tx:
            dev.rx_packets_free -= steal_rx
            dev.tx_packets_free -= steal_tx
            self._c_pool_spikes.inc()
            if self.obs.enabled:
                self.obs.emit(
                    "fault.pool_spike", dev.node, key=dev.node,
                    info=(steal_rx, steal_tx),
                )
            self.sim.call_later(
                self.cfg.pool_spike_duration, self._unspike, dev, steal_rx, steal_tx
            )
        self._arm_spike(dev, stream)

    def _unspike(self, dev: "LciDevice", steal_rx: int, steal_tx: int) -> None:
        dev.rx_packets_free += steal_rx
        dev.tx_packets_free += steal_tx
        dev._notify()
