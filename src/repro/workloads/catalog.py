"""The bundled scenario workloads: configs, graph builders, registrations.

Ten parameterized task-graph scenarios beyond the paper's three
benchmarks, all built by :mod:`repro.workloads.generators`: the §2.1
patterns (``chain``/``fanout``/``halo``/``randomdag``/``alltoall``) and
the related-work ones — a FleCSI-like 2D ``stencil``, a collective
``tree``, a nearest-neighbor ``ring``, a spawn-heavy ``forkjoin``, and the
Task Bench-style ``taskbench`` tunable graph.

Each workload is a config dataclass plus a ``_<name>_graph`` adapter from
config to generator call, and nothing else: every spec runs through the
one run path (:func:`~repro.workloads.runner.run_workload`) and, declaring
no result function, reports a :class:`~repro.api.GraphResult`.  So the
whole catalog runs under sweeps, chaos plans, explore, progress reporting
and run guards with no per-workload glue.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codec import DictCodec
from repro.errors import ConfigError
from repro.units import KiB
from repro.workloads.registry import WorkloadSpec, param, register

__all__ = [
    "ChainConfig",
    "FanOutConfig",
    "HaloConfig",
    "RandomDagConfig",
    "AllToAllConfig",
    "StencilConfig",
    "TreeConfig",
    "RingConfig",
    "ForkJoinConfig",
    "TaskBenchConfig",
]


# ---------------------------------------------------------------------------
# §2.1 patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainConfig(DictCodec):
    """One dependency-chain execution."""

    length: int = param(64, "Tasks in the chain.", minimum=1)
    flow_bytes: int = param(64 * KiB, "Bytes per inter-task flow.", minimum=1)
    duration: float = param(5e-6, "Compute seconds per task.")
    num_nodes: int = param(
        2, "Cluster size (chain hops round-robin).", minimum=1)
    seed: int = param(0, "Deterministic simulation seed.")


def _chain_graph(cfg: ChainConfig, platform):
    from repro.workloads.generators import chain

    return chain(cfg.length, cfg.num_nodes, cfg.flow_bytes, cfg.duration)


@dataclass(frozen=True)
class FanOutConfig(DictCodec):
    """One multicast fan-out execution."""

    consumers_per_node: int = param(8, "Consumer tasks per node.", minimum=1)
    flow_bytes: int = param(
        64 * KiB, "Bytes of the multicast payload.", minimum=1)
    duration: float = param(5e-6, "Compute seconds per task.")
    num_nodes: int = param(4, "Cluster size.", minimum=1)
    seed: int = param(0, "Deterministic simulation seed.")


def _fanout_graph(cfg: FanOutConfig, platform):
    from repro.workloads.generators import fan_out

    return fan_out(cfg.consumers_per_node, cfg.num_nodes, cfg.flow_bytes,
                   cfg.duration)


@dataclass(frozen=True)
class HaloConfig(DictCodec):
    """One 1D halo-exchange execution."""

    steps: int = param(8, "Stencil steps (DAG depth).", minimum=1)
    tiles_per_node: int = param(
        4, "Tiles per node (two are boundary tiles).", minimum=1)
    halo_bytes: int = param(32 * KiB, "Bytes per halo/tile flow.")
    duration: float = param(20e-6, "Compute seconds per tile task.")
    num_nodes: int = param(
        4, "Cluster size (periodic ring of nodes).", minimum=2)
    seed: int = param(0, "Deterministic simulation seed.")


def _halo_graph(cfg: HaloConfig, platform):
    from repro.workloads.generators import halo_exchange

    return halo_exchange(cfg.num_nodes, cfg.steps, cfg.tiles_per_node,
                         cfg.halo_bytes, cfg.duration)


@dataclass(frozen=True)
class RandomDagConfig(DictCodec):
    """One irregular layered-DAG execution."""

    layers: int = param(8, "DAG depth (number of layers).", minimum=1)
    width: int = param(16, "Tasks per layer.", minimum=1)
    fan_in: int = param(2, "Random parents drawn per task.", minimum=1)
    flow_bytes: int = param(
        16 * KiB, "Mean bytes per flow (sizes vary ±: 0.25–2×).")
    duration: float = param(
        5e-6, "Mean compute seconds per task (varies 0.5–1.5×).")
    num_nodes: int = param(
        4, "Cluster size (uniform random placement).", minimum=1)
    seed: int = param(0, "Seed for structure, placement, and simulation.")


def _randomdag_graph(cfg: RandomDagConfig, platform):
    from repro.workloads.generators import random_layered_dag

    return random_layered_dag(
        [cfg.width] * cfg.layers, cfg.num_nodes, cfg.fan_in,
        cfg.flow_bytes, cfg.duration, seed=cfg.seed)


@dataclass(frozen=True)
class AllToAllConfig(DictCodec):
    """One all-to-all-rounds execution."""

    rounds: int = param(4, "Exchange rounds (DAG depth).", minimum=1)
    flow_bytes: int = param(64 * KiB, "Bytes per node-to-node flow.")
    duration: float = param(5e-6, "Compute seconds per task.")
    num_nodes: int = param(
        4, "Cluster size (flows scale as nodes squared).", minimum=2)
    seed: int = param(0, "Deterministic simulation seed.")


def _alltoall_graph(cfg: AllToAllConfig, platform):
    from repro.workloads.generators import all_to_all_rounds

    return all_to_all_rounds(cfg.num_nodes, cfg.rounds, cfg.flow_bytes,
                             cfg.duration)


# ---------------------------------------------------------------------------
# Related-work scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StencilConfig(DictCodec):
    """One 2D stencil/halo-exchange execution (FleCSI-like)."""

    grid: int = param(
        16, "Tiles per side (the mesh is grid × grid).", minimum=2)
    steps: int = param(8, "Stencil steps (DAG depth).", minimum=1)
    halo_bytes: int = param(32 * KiB, "Bytes per halo flow.")
    duration: float = param(20e-6, "Compute seconds per tile task.")
    num_nodes: int = param(
        4, "Cluster size (block-row partition; <= grid).", minimum=1)
    seed: int = param(0, "Deterministic simulation seed.")

    def __post_init__(self):
        if self.num_nodes > self.grid:
            raise ConfigError(
                f"stencil grid of {self.grid} rows cannot span "
                f"{self.num_nodes} nodes (at most one node per row)"
            )


def _stencil_graph(cfg: StencilConfig, platform):
    from repro.workloads.generators import stencil2d

    return stencil2d(cfg.grid, cfg.steps, cfg.num_nodes, cfg.halo_bytes,
                     cfg.duration)


@dataclass(frozen=True)
class TreeConfig(DictCodec):
    """One collective-tree execution (reduce/broadcast/allreduce)."""

    fanout: int = param(2, "Tree arity (children per vertex).", minimum=2)
    depth: int = param(4, "Tree depth (leaves = fanout ** depth).", minimum=1)
    rounds: int = param(
        2, "Collective rounds chained back to back.", minimum=1)
    mode: str = param("allreduce", "One of broadcast, reduce, allreduce.",
                      choices=("broadcast", "reduce", "allreduce"))
    payload_bytes: int = param(64 * KiB, "Bytes per tree-edge flow.")
    duration: float = param(5e-6, "Compute seconds per vertex task.")
    num_nodes: int = param(
        4, "Cluster size (vertices placed round-robin).", minimum=1)
    seed: int = param(0, "Deterministic simulation seed.")


def _tree_graph(cfg: TreeConfig, platform):
    from repro.workloads.generators import tree_collective

    return tree_collective(cfg.fanout, cfg.depth, cfg.num_nodes, cfg.rounds,
                           cfg.payload_bytes, cfg.duration, cfg.mode)


@dataclass(frozen=True)
class RingConfig(DictCodec):
    """One nearest-neighbor ring-shift execution."""

    steps: int = param(16, "Shift steps (DAG depth).", minimum=1)
    flow_bytes: int = param(64 * KiB, "Bytes per neighbour flow.")
    duration: float = param(5e-6, "Compute seconds per task.")
    num_nodes: int = param(4, "Ring size (>= 2).", minimum=2)
    seed: int = param(0, "Deterministic simulation seed.")


def _ring_graph(cfg: RingConfig, platform):
    from repro.workloads.generators import ring_shift

    return ring_shift(cfg.num_nodes, cfg.steps, cfg.flow_bytes, cfg.duration)


@dataclass(frozen=True)
class ForkJoinConfig(DictCodec):
    """One recursive fork-join execution."""

    fanout: int = param(3, "Children per fork (and join arity).", minimum=2)
    depth: int = param(4, "Fork levels (leaves = fanout ** depth).", minimum=1)
    flow_bytes: int = param(16 * KiB, "Bytes per fork/join flow.")
    duration: float = param(5e-6, "Compute seconds per task.")
    num_nodes: int = param(
        4, "Cluster size (children scatter round-robin).", minimum=1)
    seed: int = param(0, "Deterministic simulation seed.")


def _forkjoin_graph(cfg: ForkJoinConfig, platform):
    from repro.workloads.generators import fork_join

    return fork_join(cfg.fanout, cfg.depth, cfg.num_nodes, cfg.flow_bytes,
                     cfg.duration)


#: The tunable dependence patterns of
#: :func:`~repro.workloads.generators.taskbench_graph`, mirroring the Task
#: Bench study's named patterns.
TASKBENCH_PATTERNS = (
    "trivial", "serial", "stencil", "fft", "random", "all_to_all",
)


@dataclass(frozen=True)
class TaskBenchConfig(DictCodec):
    """One Task Bench-style tunable-graph execution."""

    width: int = param(16, "Columns (parallel tasks per layer).", minimum=1)
    depth: int = param(16, "Layers (DAG depth).", minimum=1)
    pattern: str = param(
        "stencil", "Dependence pattern: trivial, serial, stencil, fft, "
        "all_to_all, or random.", choices=TASKBENCH_PATTERNS)
    granularity: float = param(5e-6, "Compute seconds per task.", minimum=0)
    flow_bytes: int = param(16 * KiB, "Bytes per dependence flow.")
    fan_in: int = param(
        3, "Parents per task for the random pattern.", minimum=1)
    num_nodes: int = param(
        4, "Cluster size (columns map round-robin).", minimum=1)
    seed: int = param(0, "Seed for the random pattern and simulation.")


def _taskbench_graph(cfg: TaskBenchConfig, platform):
    from repro.workloads.generators import taskbench_graph

    return taskbench_graph(cfg.width, cfg.depth, cfg.pattern, cfg.num_nodes,
                           cfg.granularity, cfg.flow_bytes, cfg.fan_in,
                           cfg.seed)


# ---------------------------------------------------------------------------
# Registrations
# ---------------------------------------------------------------------------

register(WorkloadSpec(
    name="chain",
    description="Single dependency chain round-robin across nodes.",
    details=(
        "The purest latency workload: one task per step, each consuming "
        "the previous step's flow from the neighbouring node, so makespan "
        "is `length` serialized cross-node flow latencies — the directly "
        "interpretable baseline for rendezvous-protocol costs."
    ),
    dag="[t0]@n0 --flow--> [t1]@n1 --flow--> [t2]@n2 --flow--> ...",
    example="python -m repro run chain --nodes 4 --length 128",
    config=ChainConfig,
    graph=_chain_graph,
    explore_params=(("length", 16),),
    tags=("scenario", "latency"),
))

register(WorkloadSpec(
    name="fanout",
    description="One producer multicast to consumers on every node.",
    details=(
        "A single root flow consumed by `consumers_per_node × num_nodes` "
        "tasks — the multicast-tree shape the runtime's ACTIVATE "
        "aggregation targets; stresses one-to-many delivery and duplicate "
        "GET suppression."
    ),
    dag="""\
            [root]@n0
           /   |    \\
        [c]@n0 [c]@n1 [c]@n2 ...  (consumers_per_node per node)""",
    example="python -m repro run fanout --nodes 8 --consumers-per-node 16",
    config=FanOutConfig,
    graph=_fanout_graph,
    explore_params=(("consumers_per_node", 4),),
    tags=("scenario", "multicast"),
))

register(WorkloadSpec(
    name="halo",
    description="1D periodic halo exchange over tiles (bulk-synchronous).",
    details=(
        "Each step every node's boundary tiles exchange halos with both "
        "neighbours, then all tiles compute — regular, bulk-synchronous "
        "traffic, the pattern MPI is optimised for, useful as a contrast "
        "to the runtime-style irregular workloads."
    ),
    dag="""\
step s:   [tile0..tileT]@n0  <-halo->  [tile0..tileT]@n1  <-halo-> ...
             |  (all tiles also feed their own next step)
step s+1: [tile0..tileT]@n0  <-halo->  ...""",
    example="python -m repro run halo --nodes 4 --steps 16",
    config=HaloConfig,
    graph=_halo_graph,
    explore_params=(("steps", 3), ("tiles_per_node", 2)),
    tags=("scenario", "stencil"),
))

register(WorkloadSpec(
    name="randomdag",
    description="Irregular layered DAG, random placement and fan-in.",
    details=(
        "Seeded random task placement, durations, flow sizes, and "
        "fan-in — the nondeterministic communication pattern §2.1 calls "
        "typical of dynamic runtimes, where receivers cannot predict "
        "message sources or sizes."
    ),
    dag="""\
layer 0: [t]@n? [t]@n? ... (width tasks, random nodes)
            \\  X  /        (each task draws fan_in random
layer 1: [t]@n? [t]@n? ...  parents from the layer above)""",
    example="python -m repro run randomdag --nodes 4 --layers 12 --width 24",
    config=RandomDagConfig,
    graph=_randomdag_graph,
    explore_params=(("layers", 3), ("width", 6)),
    tags=("scenario", "irregular"),
))

register(WorkloadSpec(
    name="alltoall",
    description="Every node exchanges one flow with every other, per round.",
    details=(
        "Maximal incast/multicast pressure: each round every node "
        "produces one flow consumed by all peers, so each step moves "
        "`num_nodes²` flows — the dense-collective stress test for "
        "rendezvous queue depth and link contention."
    ),
    dag="""\
round r:   [t]@n0   [t]@n1   [t]@n2
              \\  \\ /  X  \\ /  /      (every flow fans out to
round r+1: [t]@n0   [t]@n1   [t]@n2    every node's next task)""",
    example="python -m repro run alltoall --nodes 8 --rounds 4",
    config=AllToAllConfig,
    graph=_alltoall_graph,
    explore_params=(("rounds", 2),),
    tags=("scenario", "collective"),
))

register(WorkloadSpec(
    name="stencil",
    description="2D periodic stencil with halo exchange (FleCSI-like).",
    details=(
        "A `grid × grid` tile mesh, block-row partitioned across nodes; "
        "each step every tile recomputes from its four von-Neumann "
        "neighbours, pulling halos across the partition boundary — the "
        "radiation-hydro halo-exchange pattern of the FleCSI comparison "
        "(arXiv 2603.05366), where cross-node traffic grows with the "
        "partition perimeter."
    ),
    dag="""\
step s:    [tile i,j] needs (i±1,j) and (i,j±1) from step s-1
node 0:  rows 0..k      | halos cross this boundary
node 1:  rows k+1..2k   | every step""",
    example="python -m repro run stencil --nodes 16",
    config=StencilConfig,
    graph=_stencil_graph,
    explore_params=(("grid", 4), ("steps", 2), ("num_nodes", 2)),
    tags=("scenario", "stencil", "flecsi"),
))

register(WorkloadSpec(
    name="tree",
    description="Collective tree: reduce, broadcast, or allreduce rounds.",
    details=(
        "A `fanout`-ary tree over `fanout**depth` leaves, repeated for "
        "`rounds`: broadcast fans one payload down, reduce gathers leaves "
        "up, allreduce chains both per round — the multicast-tree traffic "
        "ACTIVATE aggregation and duplicate-GET suppression exist for."
    ),
    dag="""\
reduce:   [leaf]x(fanout^depth) -> ... -> [root]
broadcast:        [root] -> ... -> [leaf]x(fanout^depth)
allreduce:  leaves -> [root] -> leaves   (per round)""",
    example="python -m repro run tree --nodes 8 --fanout 4 --depth 3",
    config=TreeConfig,
    graph=_tree_graph,
    explore_params=(("depth", 2), ("rounds", 1)),
    tags=("scenario", "collective"),
))

register(WorkloadSpec(
    name="ring",
    description="Nearest-neighbor ring shift, one flow per node per step.",
    details=(
        "Every step each node consumes its left neighbour's previous flow "
        "plus its own and produces one flow — the shift pattern of ring "
        "allreduce pipelines. Perfectly regular wire traffic: every flow "
        "crosses exactly one link, so per-step latency is directly "
        "comparable across backends."
    ),
    dag="""\
step s:   [t]@n0 -> [t]@n1 -> [t]@n2 -> ... -> (wraps to n0)
             |         |         |     (each also feeds its own
step s+1: [t]@n0 -> [t]@n1 -> [t]@n2    next step)""",
    example="python -m repro run ring --nodes 8 --steps 32",
    config=RingConfig,
    graph=_ring_graph,
    explore_params=(("steps", 4), ("num_nodes", 3)),
    tags=("scenario", "latency"),
))

register(WorkloadSpec(
    name="forkjoin",
    description="Spawn-heavy recursive fork-join over scattered children.",
    details=(
        "The root forks `fanout` children per level down to `depth`, then "
        "joins symmetrically back to one task: `fanout**depth` parallel "
        "leaves with bursts of small ACTIVATE traffic at every fork and "
        "join boundary — the dynamic-spawn pattern where per-message "
        "overheads dominate and MPI aggregation fares worst."
    ),
    dag="""\
[root] -> fanout children -> ... -> fanout^depth leaves
                                        |
[sink] <- joins of fanout  <- ... <-  (mirror tree back up)""",
    example="python -m repro run forkjoin --nodes 8 --fanout 3 --depth 5",
    config=ForkJoinConfig,
    graph=_forkjoin_graph,
    explore_params=(("fanout", 2), ("depth", 3)),
    tags=("scenario", "spawn"),
))

register(WorkloadSpec(
    name="taskbench",
    description="Task Bench-style tunable graph: width × depth × pattern.",
    details=(
        "The parameterized benchmark of the Task Bench methodology (cf. "
        "the Itoyori/HPX/MPI study, arXiv 2601.14608): `width` columns × "
        "`depth` layers with a named dependence pattern between layers "
        "(trivial, serial, stencil, fft, all_to_all, random) and per-task "
        "compute `granularity`. Columns map to nodes round-robin, so "
        "sweeping the axes moves the run continuously between "
        "latency-bound, bandwidth-bound, and compute-bound regimes."
    ),
    dag="""\
layer 0:  [c0] [c1] [c2] ... [cW]
            |  pattern-dependent edges (stencil: c±1;
layer 1:  [c0] [c1] [c2] ... [cW]   fft: butterfly; ...)""",
    example=(
        "python -m repro run taskbench --width 32 --depth 16 "
        "--pattern stencil"
    ),
    config=TaskBenchConfig,
    graph=_taskbench_graph,
    explore_params=(("width", 4), ("depth", 3)),
    tags=("scenario", "taskbench"),
))
