"""The top-level runtime context: platform + backend + task graph → stats.

:class:`ParsecContext` assembles a simulated cluster (fabric, one
communication library instance per node, one :class:`NodeRuntime` per node),
executes a :class:`~repro.runtime.taskpool.TaskGraph`, and returns
:class:`RunStats` with the measurements the paper reports: time-to-solution
and end-to-end communication latency ("from send of the ACTIVATE message to
arrival of data for individual flows", §6.4.2), plus per-message latencies
and traffic counters.

Latency measurement can optionally go through simulated drifting node
clocks synchronized with the Hunold-style algorithm (§6.1.3) instead of the
simulator's global clock, to reproduce the paper's measurement methodology
including its small synchronisation error.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.config import FaultConfig, PlatformConfig, scaled_platform
from repro.errors import RuntimeBackendError
from repro.faults.engine import FaultEngine, NULL_FAULTS
from repro.lci.device import LciWorld
from repro.mpi.world import MpiWorld
from repro.network.fabric import Fabric
from repro.obs.bus import NULL_BUS, ObsBus
from repro.runtime.lci_backend import LciBackend
from repro.runtime.mpi_backend import MpiBackend
from repro.runtime.node import NodeRuntime
from repro.runtime.taskpool import TaskGraph
from repro.sim.clock import ClockEnsemble
from repro.sim.core import Event, SchedulePolicy, Simulator
from repro.sim.rng import RngStreams

__all__ = ["ParsecContext", "RunStats"]


@dataclass
class RunStats:
    """Measurements from one task-graph execution."""

    backend: str
    num_nodes: int
    workers_per_node: int
    makespan: float = 0.0
    tasks_executed: int = 0
    #: End-to-end latencies: ACTIVATE send at the multicast root → data
    #: arrival, one sample per (flow, destination node).
    flow_latencies: list = field(default_factory=list)
    #: Per-message (single multicast hop) latencies.
    msg_latencies: list = field(default_factory=list)
    activates_sent: int = 0
    activations_aggregated: int = 0
    wire_bytes: int = 0
    events_processed: int = 0
    busy_time_total: float = 0.0
    #: Observability counters summed across nodes (empty when obs is off).
    obs_counters: dict = field(default_factory=dict)

    @property
    def mean_flow_latency(self) -> float:
        """Mean end-to-end (multicast-root → arrival) latency, seconds."""
        return float(np.mean(self.flow_latencies)) if self.flow_latencies else 0.0

    @property
    def mean_msg_latency(self) -> float:
        """Mean single-hop message latency, seconds."""
        return float(np.mean(self.msg_latencies)) if self.msg_latencies else 0.0

    @property
    def worker_utilization(self) -> float:
        """Fraction of worker-time spent executing tasks."""
        denom = self.makespan * self.workers_per_node * self.num_nodes
        return self.busy_time_total / denom if denom > 0 else 0.0

    def summary(self) -> str:
        """One-paragraph human-readable report."""
        lines = [
            f"backend={self.backend} nodes={self.num_nodes} "
            f"workers/node={self.workers_per_node}",
            f"  time-to-solution: {self.makespan * 1e3:.3f} ms "
            f"({self.tasks_executed} tasks, utilization {self.worker_utilization:.1%})",
        ]
        if self.flow_latencies:
            lines.append(
                f"  end-to-end latency: mean {self.mean_flow_latency * 1e6:.2f} us "
                f"over {len(self.flow_latencies)} flows"
            )
        return "\n".join(lines)


def _scale_time_costs(costs, factor: float):
    """Scale every float (time) field of a frozen cost dataclass."""
    updates = {
        f.name: getattr(costs, f.name) * factor
        for f in dataclasses.fields(costs)
        if isinstance(getattr(costs, f.name), float)
    }
    return dataclasses.replace(costs, **updates)


class ParsecContext:
    """A simulated PaRSEC job on a simulated cluster."""

    def __init__(
        self,
        platform: Optional[PlatformConfig] = None,
        backend: str = "lci",
        multithreaded_activate: bool = False,
        clock_sync: bool = False,
        seed: int = 0,
        native_put: bool = False,
        num_progress_threads: int = 1,
        num_comm_threads: int = 1,
        scheduler: str = "central",
        mpi_put_mode: str = "twosided",
        observability: bool = False,
        faults: Optional[FaultConfig] = None,
        schedule_policy: Optional[SchedulePolicy] = None,
    ):
        if backend not in ("mpi", "lci"):
            raise RuntimeBackendError(f"unknown backend {backend!r}")
        if native_put and backend != "lci":
            raise RuntimeBackendError("native_put requires the LCI backend")
        if num_progress_threads < 1 or num_comm_threads < 1:
            raise RuntimeBackendError("thread counts must be at least 1")
        self.native_put = native_put
        self.num_progress_threads = num_progress_threads
        self.num_comm_threads = num_comm_threads
        #: Scheduler policy: "central" priority queue or "ws" work stealing.
        self.scheduler = scheduler
        #: Observability bus shared by every layer (repro.obs); the disabled
        #: path is a free no-op.
        self.obs = ObsBus() if observability else NULL_BUS
        self.platform = platform or scaled_platform()
        self.backend = backend
        self.multithreaded_activate = multithreaded_activate
        #: ``schedule_policy`` plugs alternative same-timestamp tie-breaking
        #: into the kernel (see :class:`~repro.sim.core.SchedulePolicy`);
        #: ``None`` keeps the default bit-identical FIFO fast path.
        self.sim = Simulator(obs=self.obs, policy=schedule_policy)
        self.obs.bind_clock(self.sim)
        self.rng = RngStreams(seed)
        n = self.platform.num_nodes
        #: Fault-injection engine (NULL_FAULTS unless a plan is passed);
        #: the fabric routes wire traffic through its reliable transport.
        if faults is not None and faults.enabled:
            self.faults = FaultEngine(faults, sim=self.sim, rng=self.rng, obs=self.obs)
        else:
            self.faults = NULL_FAULTS
        self.fabric = Fabric(
            self.sim, n, self.platform.network, faults=self.faults
        )
        penalty = (
            1.0
            if self.platform.dedicated_comm_cores
            else self.platform.runtime.floating_thread_penalty
        )
        backoff = None
        if self.faults.enabled:
            # Fault runs swap the fixed 0.5 us backend retry backoff for an
            # exponential, capped, jittered schedule from the plan.
            fc = self.faults.cfg
            from repro.runtime.comm_engine import BackoffPolicy

            backoff = BackoffPolicy(
                base=0.5e-6,
                factor=fc.retry_backoff_factor,
                max_delay=fc.retry_max_delay,
                jitter=fc.retry_jitter,
                rng=self.rng.get("faults.backend_backoff"),
            )
        if backend == "mpi":
            mpi_costs = _scale_time_costs(self.platform.mpi, penalty)
            self.mpi_world = MpiWorld(
                self.sim, self.fabric, mpi_costs, allow_overtaking=True
            )
            self.engines = [
                MpiBackend(
                    self.sim,
                    self.mpi_world.ranks[r],
                    self.platform.runtime,
                    put_mode=mpi_put_mode,
                    backoff=backoff,
                )
                for r in range(n)
            ]
            self.has_progress_thread = False
        else:
            lci_costs = _scale_time_costs(self.platform.lci, penalty)
            self.lci_world = LciWorld(self.sim, self.fabric, lci_costs)
            self.engines = [
                LciBackend(
                    self.sim,
                    self.lci_world.devices[r],
                    self.platform.runtime,
                    native_put=native_put,
                    backoff=backoff,
                )
                for r in range(n)
            ]
            self.has_progress_thread = True
            self.faults.schedule_pool_spikes(self.lci_world)
        self.faults.bind_stop(lambda: self.stopped)
        #: Per-flow release plans shared by every node's runtime.
        self.flow_plans: dict = {}
        self.nodes = [NodeRuntime(self, r) for r in range(n)]
        # Measurement clocks (§6.1.3 methodology), optional.
        self.clock_sync = clock_sync
        if clock_sync:
            self.clocks = ClockEnsemble(n, rng=self.rng.get("clocks"))
            rtt = 2 * self.fabric.base_latency(0, min(1, n - 1)) if n > 1 else 1e-6
            self.clocks.synchronize(0.0, max(rtt, 1e-6), rng=self.rng.get("clocksync"))
        else:
            self.clocks = None
        # Run state.
        self.stop_event = Event(self.sim)
        self.stopped = False
        self._total_tasks = 0
        self._executed = 0
        self._makespan = 0.0
        self.stats_activates = 0
        self.stats_aggregated = 0
        self.stats_activate_flows = 0
        self._flow_lat: list = []
        self._msg_lat: list = []

    # -- measurement hooks ------------------------------------------------

    def record_flow_latency(self, fid: int, node: int, root: int, true_latency: float) -> None:
        """Record one end-to-end latency sample (via synced clocks if on)."""
        if self.clocks is not None:
            # Reproduce the paper's measurement path: timestamps come from
            # drifting local clocks corrected by the estimated offsets.
            now = self.sim.now
            t_arr = self.clocks.corrected(node, self.clocks.local(node, now))
            t_snd = self.clocks.corrected(root, self.clocks.local(root, now - true_latency))
            sample = t_arr - t_snd
        else:
            sample = true_latency
        self._flow_lat.append(sample)

    def record_msg_latency(self, latency: float) -> None:
        """Record one per-hop message latency sample."""
        self._msg_lat.append(latency)

    def on_task_done(self, task) -> None:
        """Count a task completion; stops the run when all have executed."""
        self._executed += 1
        if self._executed >= self._total_tasks:
            self._makespan = self.sim.now
            self.stopped = True
            self.stop_event.succeed()

    # -- execution ----------------------------------------------------------

    def _partial_stats(self, workers: int) -> RunStats:
        """Measurements salvaged from a run aborted mid-flight (guards).

        ``makespan`` is the simulated clock at the abort — a lower bound on
        the true time-to-solution, clearly partial because
        ``tasks_executed < graph.num_tasks``.
        """
        return RunStats(
            backend=self.backend,
            num_nodes=self.platform.num_nodes,
            workers_per_node=workers,
            makespan=self.sim.now,
            tasks_executed=self._executed,
            flow_latencies=list(self._flow_lat),
            msg_latencies=list(self._msg_lat),
            activates_sent=self.stats_activates,
            activations_aggregated=self.stats_aggregated,
            wire_bytes=self.fabric.total_bytes(),
            events_processed=self.sim.events_processed,
            busy_time_total=sum(nd.busy_time for nd in self.nodes),
            obs_counters=self.obs.counter_totals(),
        )

    def run(
        self,
        graph: TaskGraph,
        until: Optional[float] = None,
        progress=None,
        guards=None,
    ) -> RunStats:
        """Execute ``graph`` to completion and return the statistics.

        ``progress`` installs run-progress heartbeats for the duration of
        the run: pass a :class:`~repro.obs.progress.ProgressReporter`, or
        ``True`` for one with defaults (bus-only, 1 s cadence).  The
        reporter is observational — it cannot change the schedule.

        ``guards`` (a :class:`~repro.supervise.guards.RunGuards`) enforces
        hard budgets — wall-clock deadline, kernel event count, memory
        ceiling, no-progress window — from the same run-loop tick.  On a
        violation the structured :class:`~repro.errors.RunBudgetExceeded`
        / :class:`~repro.errors.NoProgressError` carries a diagnostic
        snapshot plus salvaged partial :class:`RunStats` (``exc.partial``)
        for whatever the run completed before the abort.
        """
        n = self.platform.num_nodes
        graph.validate(num_nodes=n)
        self._total_tasks = graph.num_tasks
        workers = self.platform.workers_for(self.backend, multinode=n > 1)
        for node in self.nodes:
            node.load(graph, workers)
        for node in self.nodes:
            node.start_threads(workers)
        if progress is not None and progress is not False:
            if progress is True:
                from repro.obs.progress import ProgressReporter

                progress = ProgressReporter()
            progress.install(self)
        else:
            progress = None
        # Guards install after progress so they chain (not clobber) its tick.
        if guards is not None and guards.enabled:
            guards.install(self)
        else:
            guards = None
        try:
            self.sim.run(until=until)
        except Exception as exc:
            from repro.errors import SupervisionError

            if isinstance(exc, SupervisionError):
                # Salvage what the aborted run did complete: both kernels
                # guarantee a raising tick leaves the run loop consistent,
                # so the partial stats are well-defined measurements.
                exc.partial = self._partial_stats(workers)
            raise
        finally:
            if guards is not None:
                guards.finish()
            if progress is not None:
                progress.finish()
        if not self.stopped:
            # A crashed comm/progress/worker thread looks like a deadlock
            # from the outside — surface its exception instead.
            for node in self.nodes:
                for proc in node._threads + node._workers:
                    if proc.triggered and not proc.ok:
                        raise RuntimeBackendError(
                            f"thread {proc.name} died: {proc.value!r}"
                        ) from proc.value
            raise RuntimeBackendError(
                f"run did not complete: {self._executed}/{self._total_tasks} "
                f"tasks executed by t={self.sim.now:.6f}s "
                f"(deadlock or insufficient `until`)"
            )
        for node in self.nodes:
            node.stop_threads()
        self.faults.quiesce()  # stop injector chains so the heap drains
        self.sim.run()  # drain remaining events
        return RunStats(
            backend=self.backend,
            num_nodes=n,
            workers_per_node=workers,
            makespan=self._makespan,
            tasks_executed=self._executed,
            flow_latencies=self._flow_lat,
            msg_latencies=self._msg_lat,
            activates_sent=self.stats_activates,
            activations_aggregated=self.stats_aggregated,
            wire_bytes=self.fabric.total_bytes(),
            events_processed=self.sim.events_processed,
            busy_time_total=sum(nd.busy_time for nd in self.nodes),
            obs_counters=self.obs.counter_totals(),
        )
