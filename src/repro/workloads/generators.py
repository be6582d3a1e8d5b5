"""Task-graph generators for the registered scenario suite.

Two families, each emitting directly onto the columnar
:class:`~repro.runtime.taskpool.TaskGraph` builder so paper-scale
instances stay cheap to construct (the regular ones a whole step at a
time, through :meth:`~repro.runtime.taskpool.TaskGraph.add_tasks` and
:meth:`~repro.runtime.taskpool.TaskGraph.add_flows`):

- the communication patterns §2.1 describes as typical of dynamic
  runtimes — a dependency ``chain``, a multicast ``fan_out``, a 1D
  ``halo_exchange``, an irregular ``random_layered_dag`` and
  ``all_to_all_rounds``;
- the dependence patterns related work sweeps — a FleCSI-like 2D
  stencil with halo exchange, collective-shaped reduce/broadcast trees,
  a nearest-neighbor ring shift, a spawn-heavy fork-join, and a Task
  Bench-style tunable graph (width × depth × dependence pattern × task
  granularity).

All generators are deterministic: the only randomness (the random DAG and
the ``random`` Task Bench pattern) draws from a generator seeded by the
caller.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import BenchmarkError, ConfigError
from repro.runtime.taskpool import TaskGraph
from repro.units import KiB
from repro.workloads.catalog import TASKBENCH_PATTERNS

__all__ = [
    "chain",
    "fan_out",
    "halo_exchange",
    "random_layered_dag",
    "all_to_all_rounds",
    "TASKBENCH_PATTERNS",
    "stencil2d",
    "tree_collective",
    "ring_shift",
    "fork_join",
    "taskbench_graph",
]


def chain(
    length: int, num_nodes: int, flow_bytes: int = 64 * KiB, duration: float = 5e-6
) -> TaskGraph:
    """A single dependency chain bouncing round-robin across nodes —
    the purest latency workload."""
    if length < 1:
        raise BenchmarkError("chain needs at least one task")
    g = TaskGraph()
    prev = None
    for i in range(length):
        inputs = [prev] if prev is not None else []
        t = g.add_task(node=i % num_nodes, duration=duration, inputs=inputs)
        prev = g.add_flow(t, flow_bytes)
    return g


def fan_out(
    consumers_per_node: int,
    num_nodes: int,
    flow_bytes: int = 64 * KiB,
    duration: float = 5e-6,
) -> TaskGraph:
    """One producer, consumers on every node — a multicast-tree workload."""
    g = TaskGraph()
    root = g.add_task(node=0, duration=duration, kind="root")
    flow = g.add_flow(root, flow_bytes)
    for node in range(num_nodes):
        for _ in range(consumers_per_node):
            g.add_task(node=node, duration=duration, inputs=[flow])
    return g


def halo_exchange(
    num_nodes: int,
    steps: int,
    tiles_per_node: int = 4,
    halo_bytes: int = 32 * KiB,
    duration: float = 20e-6,
) -> TaskGraph:
    """A 1D stencil: every step, each node's boundary tiles exchange halos
    with both neighbours (periodic), then compute.  Regular, bulk-
    synchronous-like traffic — the pattern MPI is optimised for, useful as
    a contrast to the runtime-style workloads."""
    if num_nodes < 2:
        raise BenchmarkError("halo exchange needs at least two nodes")
    g = TaskGraph()
    nodes = np.repeat(np.arange(num_nodes), tiles_per_node)
    state = None  # (node, tile) flow ids of the previous step
    for step in range(steps):
        inputs, count = (), 0
        if state is not None:
            # Own tile, then on a boundary tile the neighbour's halo: the
            # left one's last tile for tile 0, else the right one's first.
            halo = np.full_like(state, -1)
            halo[:, -1] = np.roll(state[:, 0], -1)
            halo[:, 0] = np.roll(state[:, -1], 1)
            pairs = np.stack([state, halo], axis=-1).reshape(-1, 2)
            inputs, count = pairs[pairs >= 0], (pairs >= 0).sum(axis=1)
        first = g.add_tasks(nodes, duration, float(steps - step), inputs,
                            count, f"step{step}")
        fid = g.add_flows(np.arange(first, first + len(nodes)), halo_bytes)
        state = np.arange(fid, fid + len(nodes)).reshape(num_nodes, tiles_per_node)
    return g


def random_layered_dag(
    layers: Sequence[int],
    num_nodes: int,
    fan_in: int = 2,
    flow_bytes: int = 16 * KiB,
    duration: float = 5e-6,
    seed: int = 0,
) -> TaskGraph:
    """An irregular layered DAG with random placement and random fan-in —
    the nondeterministic communication pattern of §2.1."""
    rng = np.random.default_rng(seed)
    g = TaskGraph()
    prev_flows: list[int] = []
    for li, width in enumerate(layers):
        new_flows = []
        for _ in range(width):
            if prev_flows:
                take = min(fan_in, len(prev_flows))
                picks = rng.choice(len(prev_flows), size=take, replace=False)
                inputs = [prev_flows[int(i)] for i in picks]
            else:
                inputs = []
            t = g.add_task(
                node=int(rng.integers(num_nodes)),
                duration=duration * float(rng.uniform(0.5, 1.5)),
                inputs=inputs,
                kind=f"layer{li}",
            )
            new_flows.append(g.add_flow(t, int(flow_bytes * rng.uniform(0.25, 2.0))))
        prev_flows = new_flows
    return g


def all_to_all_rounds(
    num_nodes: int,
    rounds: int,
    flow_bytes: int = 64 * KiB,
    duration: float = 5e-6,
) -> TaskGraph:
    """Each round, every node produces one flow consumed by every other
    node — maximal incast/multicast pressure."""
    g = TaskGraph()
    nodes = np.arange(num_nodes)
    inputs, count = (), 0
    for _round in range(rounds):
        first = g.add_tasks(nodes, duration, inputs=inputs, input_counts=count)
        fid = g.add_flows(nodes + first, flow_bytes)
        inputs, count = np.tile(nodes + fid, num_nodes), num_nodes
    # Sink tasks consume the final round everywhere.
    g.add_tasks(nodes, duration, inputs=inputs, input_counts=count)
    return g


def stencil2d(
    grid: int,
    steps: int,
    num_nodes: int,
    halo_bytes: int = 32 * 1024,
    duration: float = 20e-6,
) -> TaskGraph:
    """A 2D periodic stencil: ``grid × grid`` tiles, block-row partitioned.

    Each step every tile recomputes from its own previous state plus the
    four von-Neumann neighbours' halos; tiles on a partition boundary pull
    halos across nodes — the FleCSI-like halo-exchange traffic pattern.
    """
    if grid < 2:
        raise ConfigError("stencil grid must be at least 2 tiles per side")
    if steps < 1:
        raise ConfigError("stencil needs at least one step")
    g = TaskGraph()
    n = grid * grid
    # Block-row decomposition: contiguous rows per node, tiles row-major.
    nodes = np.repeat(np.arange(grid) * num_nodes // grid, grid)
    state = None  # (grid, grid) flow ids of the previous step's tiles
    for step in range(steps):
        inputs, count = (), 0
        if state is not None:
            # Own state, then the north, south, west and east neighbours.
            inputs, count = np.stack([
                state, np.roll(state, 1, 0), np.roll(state, -1, 0),
                np.roll(state, 1, 1), np.roll(state, -1, 1),
            ], axis=-1).ravel(), 5
        first = g.add_tasks(nodes, duration, float(steps - step), inputs,
                            count, f"stencil{step}")
        fid = g.add_flows(np.arange(first, first + n), halo_bytes)
        state = np.arange(fid, fid + n).reshape(grid, grid)
    return g


def tree_collective(
    fanout: int,
    depth: int,
    num_nodes: int,
    rounds: int = 1,
    payload_bytes: int = 64 * 1024,
    duration: float = 5e-6,
    mode: str = "allreduce",
) -> TaskGraph:
    """A ``fanout``-ary collective tree, repeated for ``rounds``.

    ``mode="broadcast"`` fans one flow down to ``fanout**depth`` leaves,
    ``"reduce"`` gathers leaves up to the root, ``"allreduce"`` chains a
    reduce into a broadcast per round — the multicast-tree traffic the
    runtime's ACTIVATE aggregation is built for.  Vertices are placed
    round-robin across nodes in breadth-first order.
    """
    if mode not in ("broadcast", "reduce", "allreduce"):
        raise ConfigError(
            f"unknown tree mode {mode!r} "
            f"(known: broadcast, reduce, allreduce)"
        )
    if fanout < 2:
        raise ConfigError("tree fanout must be at least 2")
    if depth < 1:
        raise ConfigError("tree depth must be at least 1")
    g = TaskGraph()
    placed = 0

    def place() -> int:
        nonlocal placed
        node = placed % num_nodes
        placed += 1
        return node

    def broadcast(root_flow, step: int) -> list:
        """Fan ``root_flow`` down; returns the leaf flows."""
        level = [root_flow]
        for d in range(depth):
            nxt = []
            for flow in level:
                for _ in range(fanout):
                    t = g.add_task(node=place(), duration=duration,
                                   inputs=[flow], kind=f"bcast{step}d{d}")
                    nxt.append(g.add_flow(t, payload_bytes))
            level = nxt
        return level

    def reduce(leaf_flows, step: int):
        """Gather ``leaf_flows`` up; returns the root flow."""
        level = list(leaf_flows)
        d = 0
        while len(level) > 1:
            nxt = []
            for lo in range(0, len(level), fanout):
                group = level[lo:lo + fanout]
                t = g.add_task(node=place(), duration=duration,
                               inputs=group, kind=f"reduce{step}d{d}")
                nxt.append(g.add_flow(t, payload_bytes))
            level = nxt
            d += 1
        return level[0]

    def leaves(step: int) -> list:
        """Independent leaf producers feeding a reduce."""
        out = []
        for _ in range(fanout ** depth):
            t = g.add_task(node=place(), duration=duration,
                           kind=f"leaf{step}")
            out.append(g.add_flow(t, payload_bytes))
        return out

    carry = None
    for r in range(rounds):
        if mode == "broadcast":
            root = g.add_task(node=place(), duration=duration,
                              inputs=[carry] if carry is not None else [],
                              kind=f"root{r}")
            carry_leaves = broadcast(g.add_flow(root, payload_bytes), r)
            # Next round's root waits on one leaf (keeps rounds ordered).
            carry = carry_leaves[0]
        elif mode == "reduce":
            carry = reduce(leaves(r), r)
        else:  # allreduce: reduce up, then broadcast the result back down
            root_flow = reduce(leaves(r), r)
            carry = broadcast(root_flow, r)[0]
    # A sink consumes the final carry so the last flow is observable.
    g.add_task(node=0, duration=0.0, inputs=[carry], kind="sink")
    return g


def ring_shift(
    num_nodes: int,
    steps: int,
    flow_bytes: int = 64 * 1024,
    duration: float = 5e-6,
) -> TaskGraph:
    """A nearest-neighbor ring: every step each node consumes its left
    neighbour's previous flow plus its own, then produces one flow — the
    shift pattern of ring allreduce/halo pipelines.  Every flow crosses
    exactly one link, so the wire traffic is perfectly regular."""
    if num_nodes < 2:
        raise ConfigError("ring needs at least two nodes")
    if steps < 1:
        raise ConfigError("ring needs at least one step")
    g = TaskGraph()
    nodes = np.arange(num_nodes)
    state = None  # flow ids of the previous step, by node
    for step in range(steps):
        # Own previous flow, then the left neighbour's.
        inputs = () if state is None else \
            np.stack([state, np.roll(state, 1)], axis=1).ravel()
        first = g.add_tasks(nodes, duration, float(steps - step), inputs,
                            0 if state is None else 2, f"ring{step}")
        state = nodes + g.add_flows(nodes + first, flow_bytes)
    return g


def fork_join(
    fanout: int,
    depth: int,
    num_nodes: int,
    flow_bytes: int = 16 * 1024,
    duration: float = 5e-6,
) -> TaskGraph:
    """A spawn-heavy recursive fork-join.

    The root forks ``fanout`` children per level down to ``depth``, then
    the tree joins symmetrically back to a single task — ``fanout**depth``
    parallel leaves with bursts of small ACTIVATE traffic at every fork
    and join boundary, the dynamic-runtime pattern MPI aggregation handles
    worst.  Children scatter round-robin across nodes.
    """
    if fanout < 2:
        raise ConfigError("fork-join fanout must be at least 2")
    if depth < 1:
        raise ConfigError("fork-join depth must be at least 1")
    g = TaskGraph()
    placed = 0

    def place() -> int:
        nonlocal placed
        node = placed % num_nodes
        placed += 1
        return node

    root = g.add_task(node=place(), duration=duration, kind="fork0")
    level = [g.add_flow(root, flow_bytes)]
    for d in range(depth):
        nxt = []
        for flow in level:
            for _ in range(fanout):
                t = g.add_task(node=place(), duration=duration,
                               inputs=[flow], kind=f"fork{d + 1}")
                nxt.append(g.add_flow(t, flow_bytes))
        level = nxt
    d = 0
    while len(level) > 1:
        nxt = []
        for lo in range(0, len(level), fanout):
            t = g.add_task(node=place(), duration=duration,
                           inputs=level[lo:lo + fanout], kind=f"join{d}")
            nxt.append(g.add_flow(t, flow_bytes))
        level = nxt
        d += 1
    g.add_task(node=0, duration=0.0, inputs=level, kind="sink")
    return g


def _layer_inputs(pattern: str, prev, layer: int, fan_in: int, rng):
    """Input flow ids, back to back, and per-task input counts of layer
    ``layer`` (> 0), whose previous layer's flows are ``prev``."""
    width = len(prev)
    cols = np.arange(width)
    if pattern == "trivial":
        return (), 0
    if pattern == "serial":
        return prev, 1
    if pattern == "all_to_all":
        return np.tile(prev, width), width
    if pattern == "random":
        # Per task, in column order: a seeded draw of fan_in distinct
        # previous columns, read in ascending order.
        take = min(fan_in, width)
        picks = [np.sort(rng.choice(width, size=take, replace=False))
                 for _ in range(width)]
        return prev[np.concatenate(picks)], take
    if pattern == "stencil":
        deps = np.stack([cols - 1, cols, cols + 1], axis=1)
    else:  # "fft": the column and its butterfly partner, if in range
        span = max(1, width.bit_length() - 1)
        deps = np.stack([cols, cols ^ (1 << ((layer - 1) % span))], axis=1)
    valid = (deps >= 0) & (deps < width)
    return prev[deps[valid]], valid.sum(axis=1)


def taskbench_graph(
    width: int,
    depth: int,
    pattern: str,
    num_nodes: int,
    granularity: float = 5e-6,
    flow_bytes: int = 16 * 1024,
    fan_in: int = 3,
    seed: int = 0,
) -> TaskGraph:
    """A Task Bench-style tunable graph: ``width`` columns × ``depth``
    layers with a named dependence ``pattern`` between consecutive layers
    and per-task compute ``granularity``.

    Columns map to nodes round-robin, so any cross-column dependence is a
    cross-node flow; sweeping width × depth × pattern × granularity moves
    the workload continuously between latency-bound, bandwidth-bound and
    compute-bound regimes — the axis the Task Bench comparisons sweep.
    """
    if pattern not in TASKBENCH_PATTERNS:
        raise ConfigError(
            f"unknown taskbench pattern {pattern!r} "
            f"(known: {', '.join(TASKBENCH_PATTERNS)})"
        )
    if width < 1 or depth < 1:
        raise ConfigError("taskbench width and depth must be at least 1")
    if fan_in < 1:
        raise ConfigError("taskbench fan_in must be at least 1")
    rng = np.random.default_rng(seed)
    g = TaskGraph()
    nodes = np.arange(width) % num_nodes
    prev = None  # flow ids of the previous layer, by column
    for layer in range(depth):
        inputs, count = ((), 0) if prev is None else \
            _layer_inputs(pattern, prev, layer, fan_in, rng)
        first = g.add_tasks(nodes, granularity, float(depth - layer), inputs,
                            count, f"tb{layer}")
        fid = g.add_flows(np.arange(first, first + width), flow_bytes)
        prev = np.arange(fid, fid + width)
    return g
