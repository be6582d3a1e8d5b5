"""Top-level public API: one coherent experiment surface.

:class:`Experiment` is the single entry point — a keyword-only builder
naming any registered workload (see :func:`repro.workloads.workload_names`
and the scenario catalog in ``docs/workloads.md``), a backend
(:class:`BackendKind` or its string value, accepted uniformly), a node
count, a seed, an optional fault plan, and workload-specific parameters.
``.run()`` returns a typed frozen result dataclass
(:class:`PingPongResult`/:class:`OverlapResult`/:class:`HicmaResult` for
the paper benchmarks, :class:`GraphResult` for the scenario workloads).
Workloads resolve through the :mod:`repro.workloads` plugin registry, so
external packages can contribute their own via the ``repro.workloads``
entry-point group.

Heavy imports happen lazily so that ``import repro`` stays fast and so
subsystems can be used independently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import ConfigError

__all__ = [
    "BackendKind",
    "Experiment",
    "Result",
    "PingPongResult",
    "OverlapResult",
    "HicmaResult",
    "GraphResult",
]


class BackendKind(str, enum.Enum):
    """Which PaRSEC communication backend to simulate."""

    MPI = "mpi"
    LCI = "lci"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def _normalize_backend(backend: "BackendKind | str") -> str:
    """Accept a :class:`BackendKind` or its string value, uniformly."""
    try:
        return BackendKind(str(backend)).value
    except ValueError:
        known = ", ".join(k.value for k in BackendKind)
        raise ConfigError(
            f"unknown backend {backend!r} (known: {known})"
        ) from None


@dataclass(frozen=True)
class Result:
    """Common surface of one executed experiment.

    Every workload reports the backend it ran on, the simulated
    time-to-completion, the task count, and end-to-end flow-latency
    statistics; subclasses add workload-specific measurements.
    """

    workload: str
    backend: str
    makespan: float
    tasks: int
    flow_latency: dict = field(default_factory=dict)

    def summary(self) -> str:
        """One-line human-readable report."""
        return (
            f"{self.workload}[{self.backend}]: "
            f"{self.makespan * 1e3:.3f} ms, {self.tasks} tasks"
        )


@dataclass(frozen=True)
class PingPongResult(Result):
    """Windowed ping-pong outcome (paper §6.2): achieved bandwidth."""

    bandwidth: float = 0.0
    iteration_times: tuple = ()
    activates_sent: int = 0

    @property
    def bandwidth_gbit(self) -> float:
        """Bandwidth in Gbit/s (the unit of the paper's Figure 2)."""
        return self.bandwidth * 8 / 1e9

    def summary(self) -> str:
        """One-line human-readable report."""
        return (
            f"{self.workload}[{self.backend}]: "
            f"{self.bandwidth_gbit:.2f} Gbit/s over "
            f"{len(self.iteration_times)} iterations"
        )


@dataclass(frozen=True)
class OverlapResult(Result):
    """Computation/communication overlap outcome (paper §6.3)."""

    flops_per_s: float = 0.0
    total_flops: float = 0.0
    #: Perfect-overlap analytic bound, FLOP/s.
    roofline: float = 0.0
    #: Zero-overlap analytic bound, FLOP/s.
    no_overlap: float = 0.0

    def summary(self) -> str:
        """One-line human-readable report."""
        return (
            f"{self.workload}[{self.backend}]: "
            f"{self.flops_per_s / 1e9:.2f} GFLOP/s sustained "
            f"(roofline {self.roofline / 1e12:.3f} TFLOP/s, "
            f"no overlap {self.no_overlap / 1e12:.3f} TFLOP/s)"
        )


@dataclass(frozen=True)
class HicmaResult(Result):
    """Simulated HiCMA TLR Cholesky outcome (paper §6.4)."""

    time_to_solution: float = 0.0
    msg_latency: dict = field(default_factory=dict)
    activates_sent: int = 0
    wire_bytes: int = 0
    worker_utilization: float = 0.0

    def summary(self) -> str:
        """One-line human-readable report."""
        return (
            f"{self.workload}[{self.backend}]: "
            f"time-to-solution {self.time_to_solution * 1e3:.3f} ms, "
            f"{self.tasks} tasks, {self.wire_bytes / 1e6:.1f} MB wire, "
            f"utilization {self.worker_utilization:.1%}"
        )


@dataclass(frozen=True)
class GraphResult(Result):
    """Outcome of a registered task-graph scenario workload.

    The shared typed result of every catalog workload (``stencil``,
    ``taskbench``, ``ring``, ...): the runtime's common measurements,
    uniformly comparable across scenarios and backends.
    """

    activates_sent: int = 0
    wire_bytes: int = 0
    worker_utilization: float = 0.0
    events_processed: int = 0

    def summary(self) -> str:
        """One-line human-readable report."""
        return (
            f"{self.workload}[{self.backend}]: "
            f"{self.makespan * 1e3:.3f} ms, {self.tasks} tasks, "
            f"{self.wire_bytes / 1e6:.1f} MB wire, "
            f"utilization {self.worker_utilization:.1%}"
        )


class Experiment:
    """One fully described simulation experiment (keyword-only builder).

    ``workload`` names any workload registered with
    :mod:`repro.workloads` (the unknown-name :class:`~repro.errors.
    ConfigError` lists what is actually registered); ``backend`` takes a
    :class:`BackendKind` or its string value; ``nodes``/``seed`` inject
    into the workload config; ``faults`` is a
    :class:`~repro.config.FaultConfig` or a named plan from
    :data:`~repro.faults.plans.FAULT_PLANS`; remaining keyword arguments
    are workload-config fields (e.g. ``fragment_size`` for ping-pong,
    ``width``/``depth``/``pattern`` for taskbench) and are validated
    eagerly against the workload's parameter schema — an unknown name
    raises :class:`~repro.errors.ConfigError` at construction, not at
    run time.
    """

    def __init__(
        self,
        *,
        workload: str,
        backend: "BackendKind | str" = BackendKind.LCI,
        nodes: Optional[int] = None,
        seed: int = 0,
        faults: Any = None,
        **params: Any,
    ):
        from repro.workloads import get_workload

        self._spec = get_workload(workload)
        self.workload = workload
        self.backend = _normalize_backend(backend)
        self.nodes = nodes
        self.seed = seed
        if isinstance(faults, str):
            from repro.faults.plans import fault_plan

            faults = fault_plan(faults)
        self.faults = faults
        self.params = dict(params)
        # Eager validation: building the config surfaces unknown or
        # invalid parameters immediately.
        self._spec.build_config(**self._config_kwargs())

    def _config_kwargs(self) -> dict:
        kwargs = dict(self.params)
        kwargs["seed"] = self.seed
        if self.nodes is not None:
            kwargs["num_nodes"] = self.nodes
        return kwargs

    def config(self):
        """The frozen workload config this experiment will run."""
        return self._spec.build_config(**self._config_kwargs())

    def run(
        self,
        *,
        platform=None,
        schedule_policy=None,
        ctx_observer=None,
        progress=None,
        guards=None,
        observability: bool = False,
    ) -> Result:
        """Execute the experiment and return its typed frozen result.

        ``platform`` overrides the workload's default platform; the other
        hooks pass through to :func:`repro.workloads.runner.run_workload`
        (``progress`` heartbeats and ``guards`` run budgets work on every
        workload; ``observability`` turns on the context's obs bus, which
        ``ctx_observer`` can read back after the run).
        """
        return self._spec.run(
            self.backend,
            self.config(),
            platform,
            faults=self.faults,
            schedule_policy=schedule_policy,
            ctx_observer=ctx_observer,
            progress=progress,
            guards=guards,
            observability=observability,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Experiment(workload={self.workload!r}, backend={self.backend!r}, "
            f"nodes={self.nodes!r}, seed={self.seed!r}, params={self.params!r})"
        )

