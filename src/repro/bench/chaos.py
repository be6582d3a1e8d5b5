"""Chaos benchmark: a workload under a named fault plan.

Runs the same graph twice — once fault-free as the reference, once under the
plan — on the same seed, then checks that the faulty run still *computed the
same thing*: every task executed and every (flow, destination) data arrival
of the reference run happened in the faulty run too.  The report breaks the
injected faults down per kind against the recovery counters the engine and
the reliable transport emit on the obs bus.

The default workload is the small TLR Cholesky job; ``workload=`` points
the harness at any workload registered with :mod:`repro.workloads` — the
graph comes from the spec's task-graph builder, so every workload
(hicma, stencil, taskbench, ring, ...) runs under chaos plans unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import FaultConfig, scaled_platform
from repro.faults.engine import WIRE_FAULT_KINDS
from repro.runtime.context import ParsecContext, RunStats

__all__ = ["ChaosConfig", "ChaosResult", "run_chaos"]


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos-run configuration.

    ``workload`` names any registered workload; ``params`` overrides its
    explore-scale defaults (``matrix_size``/``tile_size`` for ``hicma``).
    """

    plan_name: str
    plan: FaultConfig
    num_nodes: int = 2
    seed: int = 0
    workload: str = "hicma"
    params: dict = field(default_factory=dict)


@dataclass
class ChaosResult:
    """Resilience report for one backend under one plan."""

    backend: str
    plan_name: str
    stats: RunStats
    ref_stats: RunStats
    #: Which registered workload the chaos pair executed.
    workload: str = "hicma"
    #: Injections per fault kind (``fault.injected.*`` counters).
    injected: dict = field(default_factory=dict)
    #: Recoveries credited per fault kind (``fault.recovered.*`` counters).
    recovered: dict = field(default_factory=dict)
    #: Reliable-transport totals (``rel.*`` counters).
    transport: dict = field(default_factory=dict)
    #: Every reference data arrival happened in the faulty run too.
    numerics_ok: bool = False

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    @property
    def slowdown(self) -> float:
        """Faulty-run makespan relative to the fault-free reference."""
        ref = self.ref_stats.makespan
        return self.stats.makespan / ref if ref > 0 else 1.0

    def summary(self) -> str:
        lines = [
            f"chaos[{self.backend}] {self.workload} plan={self.plan_name}: "
            f"TTS={self.stats.makespan * 1e3:.3f} ms "
            f"(fault-free {self.ref_stats.makespan * 1e3:.3f} ms, "
            f"{self.slowdown:.2f}x), {self.stats.tasks_executed} tasks, "
            f"numerics {'OK' if self.numerics_ok else 'MISMATCH'}",
            f"  {'fault kind':<12} {'injected':>8} {'recovered':>9}",
        ]
        for kind in sorted(self.injected):
            lines.append(
                f"  {kind:<12} {self.injected[kind]:>8} "
                f"{self.recovered.get(kind, '-'):>9}"
            )
        t = self.transport
        lines.append(
            "  transport: "
            f"{t.get('rel.retransmits', 0)} retransmits, "
            f"{t.get('rel.acks', 0)} acks, {t.get('rel.nacks', 0)} nacks, "
            f"{t.get('rel.dup_dropped', 0)} dups dropped, "
            f"{t.get('fault.reroutes', 0)} reroutes"
        )
        return "\n".join(lines)


def _arrivals(ctx: ParsecContext) -> set:
    """(flow, node) pairs whose data arrived, from the obs event store."""
    return {
        evt.key for evt in ctx.obs.memory.events if evt.kind == "data_arrival"
    }


def _chaos_graph(cfg: ChaosConfig, platform):
    """The task graph a chaos run executes: the workload's own builder at
    its explore-scale parameters overlaid with ``cfg.params``."""
    from repro.workloads import get_workload

    spec = get_workload(cfg.workload)
    params = dict(spec.explore_params)
    params.update(cfg.params)
    params["num_nodes"] = cfg.num_nodes
    params["seed"] = cfg.seed
    return spec.build_graph(spec.build_config(**params), platform)


def _one_run(cfg: ChaosConfig, backend: str, plan):
    platform = scaled_platform(num_nodes=cfg.num_nodes, cores_per_node=4)
    graph = _chaos_graph(cfg, platform)
    ctx = ParsecContext(
        platform, backend=backend, seed=cfg.seed,
        observability=True, faults=plan,
    )
    stats = ctx.run(graph, until=36_000.0)
    return ctx, stats


def run_chaos(backend: str, cfg: ChaosConfig) -> ChaosResult:
    """Execute the reference + faulty pair and assemble the report."""
    ref_ctx, ref_stats = _one_run(cfg, backend, None)
    ctx, stats = _one_run(cfg, backend, cfg.plan)
    counters = stats.obs_counters
    injected = {
        k: counters.get(f"fault.injected.{k}", 0) for k in WIRE_FAULT_KINDS
    }
    injected["pool_spike"] = counters.get("fault.injected.pool_spike", 0)
    injected["straggler"] = counters.get("fault.injected.straggler", 0)
    recovered = {
        k: counters.get(f"fault.recovered.{k}", 0) for k in WIRE_FAULT_KINDS
    }
    # Duplicates are "recovered" by receiver-side dedup, delays by ordinary
    # delivery — credit them from the transport's own counters.
    recovered["dup"] = counters.get("rel.dup_dropped", 0)
    recovered["delay"] = injected["delay"]
    transport = {
        name: counters.get(name, 0)
        for name in (
            "rel.retransmits", "rel.acks", "rel.nacks",
            "rel.dup_dropped", "rel.recovered", "fault.reroutes",
        )
    }
    numerics_ok = (
        stats.tasks_executed == ref_stats.tasks_executed
        and _arrivals(ref_ctx) <= _arrivals(ctx)
    )
    return ChaosResult(
        backend=backend,
        plan_name=cfg.plan_name,
        workload=cfg.workload,
        stats=stats,
        ref_stats=ref_stats,
        injected=injected,
        recovered=recovered,
        transport=transport,
        numerics_ok=numerics_ok,
    )
