"""The bundled scenario workloads: configs, drivers, and registrations.

Ten parameterized task-graph scenarios beyond the paper's three
benchmarks, all built by :mod:`repro.workloads.generators`: the §2.1
patterns (``chain``/``fanout``/``halo``/``randomdag``/``alltoall``) and
the related-work ones — a FleCSI-like 2D ``stencil``, a collective
``tree``, a nearest-neighbor ``ring``, a spawn-heavy ``forkjoin``, and the
Task Bench-style ``taskbench`` tunable graph.

Each workload is a config dataclass plus a ``_<name>_graph`` adapter from
config to generator call.  All of them share one driver
(:func:`~repro.workloads.runner.run_graph_benchmark`, bound to the
adapter) and one reducer (:func:`~repro.workloads.runner.
freeze_graph_result` → :class:`~repro.api.GraphResult`), so the whole
catalog runs under sweeps, chaos plans, explore, progress reporting and
run guards with no per-workload glue.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.codec import DictCodec
from repro.errors import ConfigError
from repro.units import KiB
from repro.workloads.registry import WorkloadSpec, register
from repro.workloads.runner import run_graph_benchmark

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


def _positive(name: str, value, minimum=1) -> None:
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")


# ---------------------------------------------------------------------------
# §2.1 patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainConfig(DictCodec):
    """One dependency-chain execution."""

    length: int = 64
    flow_bytes: int = 64 * KiB
    duration: float = 5e-6
    num_nodes: int = 2
    seed: int = 0

    def __post_init__(self):
        _positive("length", self.length)
        _positive("flow_bytes", self.flow_bytes)
        _positive("num_nodes", self.num_nodes)


def _chain_graph(cfg: ChainConfig, platform):
    from repro.workloads.generators import chain

    return chain(cfg.length, cfg.num_nodes, cfg.flow_bytes, cfg.duration)


@dataclass(frozen=True)
class FanOutConfig(DictCodec):
    """One multicast fan-out execution."""

    consumers_per_node: int = 8
    flow_bytes: int = 64 * KiB
    duration: float = 5e-6
    num_nodes: int = 4
    seed: int = 0

    def __post_init__(self):
        _positive("consumers_per_node", self.consumers_per_node)
        _positive("flow_bytes", self.flow_bytes)
        _positive("num_nodes", self.num_nodes)


def _fanout_graph(cfg: FanOutConfig, platform):
    from repro.workloads.generators import fan_out

    return fan_out(cfg.consumers_per_node, cfg.num_nodes, cfg.flow_bytes,
                   cfg.duration)


@dataclass(frozen=True)
class HaloConfig(DictCodec):
    """One 1D halo-exchange execution."""

    steps: int = 8
    tiles_per_node: int = 4
    halo_bytes: int = 32 * KiB
    duration: float = 20e-6
    num_nodes: int = 4
    seed: int = 0

    def __post_init__(self):
        _positive("steps", self.steps)
        _positive("tiles_per_node", self.tiles_per_node)
        _positive("num_nodes", self.num_nodes, minimum=2)


def _halo_graph(cfg: HaloConfig, platform):
    from repro.workloads.generators import halo_exchange

    return halo_exchange(cfg.num_nodes, cfg.steps, cfg.tiles_per_node,
                         cfg.halo_bytes, cfg.duration)


@dataclass(frozen=True)
class RandomDagConfig(DictCodec):
    """One irregular layered-DAG execution."""

    layers: int = 8
    width: int = 16
    fan_in: int = 2
    flow_bytes: int = 16 * KiB
    duration: float = 5e-6
    num_nodes: int = 4
    seed: int = 0

    def __post_init__(self):
        _positive("layers", self.layers)
        _positive("width", self.width)
        _positive("fan_in", self.fan_in)
        _positive("num_nodes", self.num_nodes)


def _randomdag_graph(cfg: RandomDagConfig, platform):
    from repro.workloads.generators import random_layered_dag

    return random_layered_dag(
        [cfg.width] * cfg.layers, cfg.num_nodes, cfg.fan_in,
        cfg.flow_bytes, cfg.duration, seed=cfg.seed)


@dataclass(frozen=True)
class AllToAllConfig(DictCodec):
    """One all-to-all-rounds execution."""

    rounds: int = 4
    flow_bytes: int = 64 * KiB
    duration: float = 5e-6
    num_nodes: int = 4
    seed: int = 0

    def __post_init__(self):
        _positive("rounds", self.rounds)
        _positive("num_nodes", self.num_nodes, minimum=2)


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

    grid: int = 16
    steps: int = 8
    halo_bytes: int = 32 * KiB
    duration: float = 20e-6
    num_nodes: int = 4
    seed: int = 0

    def __post_init__(self):
        _positive("grid", self.grid, minimum=2)
        _positive("steps", self.steps)
        _positive("num_nodes", self.num_nodes)
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

    fanout: int = 2
    depth: int = 4
    rounds: int = 2
    mode: str = "allreduce"
    payload_bytes: int = 64 * KiB
    duration: float = 5e-6
    num_nodes: int = 4
    seed: int = 0

    def __post_init__(self):
        _positive("fanout", self.fanout, minimum=2)
        _positive("depth", self.depth)
        _positive("rounds", self.rounds)
        _positive("num_nodes", self.num_nodes)
        if self.mode not in ("broadcast", "reduce", "allreduce"):
            raise ConfigError(
                f"unknown tree mode {self.mode!r} "
                f"(known: broadcast, reduce, allreduce)"
            )


def _tree_graph(cfg: TreeConfig, platform):
    from repro.workloads.generators import tree_collective

    return tree_collective(cfg.fanout, cfg.depth, cfg.num_nodes, cfg.rounds,
                           cfg.payload_bytes, cfg.duration, cfg.mode)


@dataclass(frozen=True)
class RingConfig(DictCodec):
    """One nearest-neighbor ring-shift execution."""

    steps: int = 16
    flow_bytes: int = 64 * KiB
    duration: float = 5e-6
    num_nodes: int = 4
    seed: int = 0

    def __post_init__(self):
        _positive("steps", self.steps)
        _positive("num_nodes", self.num_nodes, minimum=2)


def _ring_graph(cfg: RingConfig, platform):
    from repro.workloads.generators import ring_shift

    return ring_shift(cfg.num_nodes, cfg.steps, cfg.flow_bytes, cfg.duration)


@dataclass(frozen=True)
class ForkJoinConfig(DictCodec):
    """One recursive fork-join execution."""

    fanout: int = 3
    depth: int = 4
    flow_bytes: int = 16 * KiB
    duration: float = 5e-6
    num_nodes: int = 4
    seed: int = 0

    def __post_init__(self):
        _positive("fanout", self.fanout, minimum=2)
        _positive("depth", self.depth)
        _positive("num_nodes", self.num_nodes)


def _forkjoin_graph(cfg: ForkJoinConfig, platform):
    from repro.workloads.generators import fork_join

    return fork_join(cfg.fanout, cfg.depth, cfg.num_nodes, cfg.flow_bytes,
                     cfg.duration)


@dataclass(frozen=True)
class TaskBenchConfig(DictCodec):
    """One Task Bench-style tunable-graph execution."""

    width: int = 16
    depth: int = 16
    pattern: str = "stencil"
    granularity: float = 5e-6
    flow_bytes: int = 16 * KiB
    fan_in: int = 3
    num_nodes: int = 4
    seed: int = 0

    def __post_init__(self):
        from repro.workloads.generators import TASKBENCH_PATTERNS

        _positive("width", self.width)
        _positive("depth", self.depth)
        _positive("fan_in", self.fan_in)
        _positive("num_nodes", self.num_nodes)
        if self.pattern not in TASKBENCH_PATTERNS:
            raise ConfigError(
                f"unknown taskbench pattern {self.pattern!r} "
                f"(known: {', '.join(TASKBENCH_PATTERNS)})"
            )
        if self.granularity < 0:
            raise ConfigError(
                f"granularity must be >= 0, got {self.granularity}"
            )


def _taskbench_graph(cfg: TaskBenchConfig, platform):
    from repro.workloads.generators import taskbench_graph

    return taskbench_graph(cfg.width, cfg.depth, cfg.pattern, cfg.num_nodes,
                           cfg.granularity, cfg.flow_bytes, cfg.fan_in,
                           cfg.seed)


# ---------------------------------------------------------------------------
# Registrations
# ---------------------------------------------------------------------------

_REDUCER = "repro.workloads.runner:freeze_graph_result"

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
    driver=partial(run_graph_benchmark, "chain", _chain_graph),
    reducer=_REDUCER,
    graph=_chain_graph,
    param_docs=(
        ("length", "Tasks in the chain."),
        ("flow_bytes", "Bytes per inter-task flow."),
        ("duration", "Compute seconds per task."),
        ("num_nodes", "Cluster size (chain hops round-robin)."),
        ("seed", "Deterministic simulation seed."),
    ),
    explore_params=(("length", 16),),
    tags=("scenario", "latency"),
    accepts_progress=True,
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
    driver=partial(run_graph_benchmark, "fanout", _fanout_graph),
    reducer=_REDUCER,
    graph=_fanout_graph,
    param_docs=(
        ("consumers_per_node", "Consumer tasks per node."),
        ("flow_bytes", "Bytes of the multicast payload."),
        ("duration", "Compute seconds per task."),
        ("num_nodes", "Cluster size."),
        ("seed", "Deterministic simulation seed."),
    ),
    explore_params=(("consumers_per_node", 4),),
    tags=("scenario", "multicast"),
    accepts_progress=True,
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
    driver=partial(run_graph_benchmark, "halo", _halo_graph),
    reducer=_REDUCER,
    graph=_halo_graph,
    param_docs=(
        ("steps", "Stencil steps (DAG depth)."),
        ("tiles_per_node", "Tiles per node (two are boundary tiles)."),
        ("halo_bytes", "Bytes per halo/tile flow."),
        ("duration", "Compute seconds per tile task."),
        ("num_nodes", "Cluster size (periodic ring of nodes)."),
        ("seed", "Deterministic simulation seed."),
    ),
    explore_params=(("steps", 3), ("tiles_per_node", 2)),
    tags=("scenario", "stencil"),
    accepts_progress=True,
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
    driver=partial(run_graph_benchmark, "randomdag", _randomdag_graph),
    reducer=_REDUCER,
    graph=_randomdag_graph,
    param_docs=(
        ("layers", "DAG depth (number of layers)."),
        ("width", "Tasks per layer."),
        ("fan_in", "Random parents drawn per task."),
        ("flow_bytes", "Mean bytes per flow (sizes vary ±: 0.25–2×)."),
        ("duration", "Mean compute seconds per task (varies 0.5–1.5×)."),
        ("num_nodes", "Cluster size (uniform random placement)."),
        ("seed", "Seed for structure, placement, and simulation."),
    ),
    explore_params=(("layers", 3), ("width", 6)),
    tags=("scenario", "irregular"),
    accepts_progress=True,
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
    driver=partial(run_graph_benchmark, "alltoall", _alltoall_graph),
    reducer=_REDUCER,
    graph=_alltoall_graph,
    param_docs=(
        ("rounds", "Exchange rounds (DAG depth)."),
        ("flow_bytes", "Bytes per node-to-node flow."),
        ("duration", "Compute seconds per task."),
        ("num_nodes", "Cluster size (flows scale as nodes squared)."),
        ("seed", "Deterministic simulation seed."),
    ),
    explore_params=(("rounds", 2),),
    tags=("scenario", "collective"),
    accepts_progress=True,
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
    driver=partial(run_graph_benchmark, "stencil", _stencil_graph),
    reducer=_REDUCER,
    graph=_stencil_graph,
    param_docs=(
        ("grid", "Tiles per side (the mesh is grid × grid)."),
        ("steps", "Stencil steps (DAG depth)."),
        ("halo_bytes", "Bytes per halo flow."),
        ("duration", "Compute seconds per tile task."),
        ("num_nodes", "Cluster size (block-row partition; <= grid)."),
        ("seed", "Deterministic simulation seed."),
    ),
    explore_params=(("grid", 4), ("steps", 2), ("num_nodes", 2)),
    tags=("scenario", "stencil", "flecsi"),
    accepts_progress=True,
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
    driver=partial(run_graph_benchmark, "tree", _tree_graph),
    reducer=_REDUCER,
    graph=_tree_graph,
    param_docs=(
        ("fanout", "Tree arity (children per vertex)."),
        ("depth", "Tree depth (leaves = fanout ** depth)."),
        ("rounds", "Collective rounds chained back to back."),
        ("mode", "One of broadcast, reduce, allreduce."),
        ("payload_bytes", "Bytes per tree-edge flow."),
        ("duration", "Compute seconds per vertex task."),
        ("num_nodes", "Cluster size (vertices placed round-robin)."),
        ("seed", "Deterministic simulation seed."),
    ),
    explore_params=(("depth", 2), ("rounds", 1)),
    tags=("scenario", "collective"),
    accepts_progress=True,
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
    driver=partial(run_graph_benchmark, "ring", _ring_graph),
    reducer=_REDUCER,
    graph=_ring_graph,
    param_docs=(
        ("steps", "Shift steps (DAG depth)."),
        ("flow_bytes", "Bytes per neighbour flow."),
        ("duration", "Compute seconds per task."),
        ("num_nodes", "Ring size (>= 2)."),
        ("seed", "Deterministic simulation seed."),
    ),
    explore_params=(("steps", 4), ("num_nodes", 3)),
    tags=("scenario", "latency"),
    accepts_progress=True,
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
    driver=partial(run_graph_benchmark, "forkjoin", _forkjoin_graph),
    reducer=_REDUCER,
    graph=_forkjoin_graph,
    param_docs=(
        ("fanout", "Children per fork (and join arity)."),
        ("depth", "Fork levels (leaves = fanout ** depth)."),
        ("flow_bytes", "Bytes per fork/join flow."),
        ("duration", "Compute seconds per task."),
        ("num_nodes", "Cluster size (children scatter round-robin)."),
        ("seed", "Deterministic simulation seed."),
    ),
    explore_params=(("fanout", 2), ("depth", 3)),
    tags=("scenario", "spawn"),
    accepts_progress=True,
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
    driver=partial(run_graph_benchmark, "taskbench", _taskbench_graph),
    reducer=_REDUCER,
    graph=_taskbench_graph,
    param_docs=(
        ("width", "Columns (parallel tasks per layer)."),
        ("depth", "Layers (DAG depth)."),
        ("pattern",
         "Dependence pattern: trivial, serial, stencil, fft, "
         "all_to_all, or random."),
        ("granularity", "Compute seconds per task."),
        ("flow_bytes", "Bytes per dependence flow."),
        ("fan_in", "Parents per task for the random pattern."),
        ("num_nodes", "Cluster size (columns map round-robin)."),
        ("seed", "Seed for the random pattern and simulation."),
    ),
    explore_params=(("width", 4), ("depth", 3)),
    tags=("scenario", "taskbench"),
    accepts_progress=True,
))
