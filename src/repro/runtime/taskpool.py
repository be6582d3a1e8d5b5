"""Distributed task graphs: tasks, dataflows, and validation.

A :class:`TaskGraph` is the static description of a computation the runtime
executes (PaRSEC would generate it from a parameterized task graph; our
workload generators build it explicitly):

- a :class:`TaskSpec` runs on a fixed node for ``duration`` simulated
  seconds once every input flow's data is available on that node;
- a :class:`FlowSpec` is one output datum of a task, consumed by zero or
  more other tasks; consumers on other nodes receive it through the
  ACTIVATE / GET DATA / put protocol of the paper's Fig. 1.

Storage layout
--------------
Paper-scale graphs (NT = 150 → ~574k tasks, ~585k flows, ~1.5M dependence
edges) made an object-per-task design the memory and build-time bottleneck,
so the graph is **columnar**: one flat ``array`` per field (placement,
duration, priority, kind id, flow size, flow producer) plus CSR adjacency
for task inputs, built incrementally by :meth:`TaskGraph.add_task`.  The
derived adjacency — task → output flows and flow → consumer tasks — is
computed once by :meth:`TaskGraph.freeze` with two stable counting sorts
(NumPy), preserving exactly the id-ordered tuples the old per-object
append produced.  :class:`TaskSpec`/:class:`FlowSpec` remain available as
lightweight *views* over the columns (``graph.tasks[i].duration`` etc.),
so existing call sites and tests keep working; hot runtime paths read the
columns directly.

Tests may still overwrite ``task.inputs``/``task.outputs``/
``flow.consumers`` wholesale (e.g. to wire a deliberate cycle); such
assignments land in small override maps consulted by every accessor and do
*not* re-derive the other direction — matching the old independent-field
semantics.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, Optional

from repro.errors import RuntimeBackendError

__all__ = ["FlowSpec", "TaskSpec", "TaskGraph"]

_INF = float("inf")


class TaskSpec:
    """View of one task: node placement, compute duration, priority, flows.

    A thin proxy over the graph's columnar storage — constructing one is
    O(1) and carries no data of its own.
    """

    __slots__ = ("_g", "task_id")

    def __init__(self, graph: "TaskGraph", task_id: int):
        self._g = graph
        self.task_id = task_id

    @property
    def node(self) -> int:
        """Node the task is placed on."""
        return self._g._t_node[self.task_id]

    @property
    def duration(self) -> float:
        """Compute time in simulated seconds."""
        return self._g._t_dur[self.task_id]

    @property
    def priority(self) -> float:
        """Scheduling priority (higher runs earlier)."""
        return self._g._t_prio[self.task_id]

    @property
    def kind(self) -> str:
        """Task kind label (e.g. ``potrf``/``trsm``/``gemm``)."""
        return self._g._kind_names[self._g._t_kind[self.task_id]]

    @property
    def inputs(self) -> tuple[int, ...]:
        """Flow ids this task consumes."""
        return self._g.task_inputs(self.task_id)

    @inputs.setter
    def inputs(self, value: Iterable[int]) -> None:
        self._g._in_override[self.task_id] = tuple(value)
        self._g._validated = None

    @property
    def outputs(self) -> tuple[int, ...]:
        """Flow ids this task produces, in creation order."""
        return self._g.task_outputs(self.task_id)

    @outputs.setter
    def outputs(self, value: Iterable[int]) -> None:
        self._g._out_override[self.task_id] = tuple(value)
        self._g._frozen = False  # re-derive the local-flow column
        self._g._validated = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Task({self.task_id} {self.kind}@{self.node})"


class FlowSpec:
    """View of one dataflow: ``size`` bytes produced by ``producer``,
    consumed by the tasks in ``consumers``.  A thin proxy over the graph's
    columnar storage."""

    __slots__ = ("_g", "flow_id")

    def __init__(self, graph: "TaskGraph", flow_id: int):
        self._g = graph
        self.flow_id = flow_id

    @property
    def size(self) -> int:
        """Payload size in bytes."""
        return self._g._f_size[self.flow_id]

    @property
    def producer(self) -> int:
        """Task id that produces this flow."""
        return self._g._f_prod[self.flow_id]

    @property
    def consumers(self) -> tuple[int, ...]:
        """Consumer task ids, in registration order."""
        return self._g.flow_consumers(self.flow_id)

    @consumers.setter
    def consumers(self, value: Iterable[int]) -> None:
        self._g._cons_override[self.flow_id] = tuple(value)
        self._g._frozen = False  # re-derive the local-flow column
        self._g._validated = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Flow({self.flow_id}, {self.size}B, {self.producer}->{list(self.consumers)})"


class _SpecMap:
    """Read-only id → view mapping over a graph column (dict-compatible)."""

    __slots__ = ("_g",)

    def __init__(self, graph: "TaskGraph"):
        self._g = graph

    def _count(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def _view(self, key: int):  # pragma: no cover - abstract
        raise NotImplementedError

    def __getitem__(self, key: int):
        if not 0 <= key < self._count():
            raise KeyError(key)
        return self._view(key)

    def __len__(self) -> int:
        return self._count()

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._count()))

    def __contains__(self, key) -> bool:
        return isinstance(key, int) and 0 <= key < self._count()

    def keys(self):
        """Ids, ascending."""
        return range(self._count())

    def values(self):
        """Views, in id order."""
        return (self._view(i) for i in range(self._count()))

    def items(self):
        """``(id, view)`` pairs, in id order."""
        return ((i, self._view(i)) for i in range(self._count()))

    def get(self, key: int, default=None):
        """Dict-style get."""
        if key in self:
            return self._view(key)
        return default


class _TaskMap(_SpecMap):
    __slots__ = ()

    def _count(self) -> int:
        return len(self._g._t_node)

    def _view(self, key: int) -> TaskSpec:
        return TaskSpec(self._g, key)


class _FlowMap(_SpecMap):
    __slots__ = ()

    def _count(self) -> int:
        return len(self._g._f_size)

    def _view(self, key: int) -> FlowSpec:
        return FlowSpec(self._g, key)


class TaskGraph:
    """A complete task graph in columnar storage.

    Build with :meth:`add_task` / :meth:`add_flow` (ids are assigned
    automatically), then :meth:`validate` before execution.  The derived
    adjacency (task outputs, flow consumers) is computed lazily by
    :meth:`freeze` on first use and invalidated by further construction.
    """

    __slots__ = (
        "tasks", "flows",
        "_t_node", "_t_dur", "_t_prio", "_t_kind",
        "_kind_names", "_kind_ids",
        "_in_ptr", "_in_flat",
        "_f_size", "_f_prod",
        "_out_ptr", "_out_flat", "_cons_ptr", "_cons_flat", "_f_local",
        "_in_override", "_out_override", "_cons_override",
        "_frozen", "_validated",
    )

    def __init__(self) -> None:
        #: Dict-like view: task id → :class:`TaskSpec`.
        self.tasks = _TaskMap(self)
        #: Dict-like view: flow id → :class:`FlowSpec`.
        self.flows = _FlowMap(self)
        # Task columns.
        self._t_node = array("q")
        self._t_dur = array("d")
        self._t_prio = array("d")
        self._t_kind = array("i")
        self._kind_names: list[str] = []
        self._kind_ids: dict[str, int] = {}
        # Task-input CSR, appended as tasks arrive (inputs are known then).
        self._in_ptr = array("q", [0])
        self._in_flat = array("q")
        # Flow columns.
        self._f_size = array("q")
        self._f_prod = array("q")
        # Derived CSR (built by freeze()).
        self._out_ptr: Optional[array] = None
        self._out_flat: Optional[array] = None
        self._cons_ptr: Optional[array] = None
        self._cons_flat: Optional[array] = None
        #: One byte per flow, set when every consumer runs on the
        #: producer's node (see :meth:`flow_is_local`).
        self._f_local: Optional[bytes] = None
        # Wholesale-assignment escape hatches (tests wiring cycles etc.).
        self._in_override: dict[int, tuple] = {}
        self._out_override: dict[int, tuple] = {}
        self._cons_override: dict[int, tuple] = {}
        self._frozen = False
        #: Memo of the last successful validate() arguments, cleared by
        #: construction and by spec-view assignment — lets callers validate
        #: eagerly without the runtime re-paying the Kahn pass.
        self._validated: Optional[tuple] = None

    # -- construction ----------------------------------------------------

    def add_task(
        self,
        node: int,
        duration: float,
        priority: float = 0.0,
        inputs: Iterable[int] = (),
        kind: str = "task",
    ) -> int:
        """Add a task; returns its id.  ``inputs`` are existing flow ids;
        consumer lists of those flows are updated automatically.

        Only existing flows are accepted, and :meth:`add_flow` accepts only
        an existing producer, so every input edge runs from a lower task id
        to a higher one: id order is a topological order (see
        :meth:`validate`).
        """
        tid = len(self._t_node)
        if not (0 <= duration < _INF and -_INF < priority < _INF):
            if duration < 0:
                raise RuntimeBackendError(f"task {tid}: negative duration")
            raise RuntimeBackendError(
                f"task {tid}: non-finite duration {duration!r} "
                f"or priority {priority!r}"
            )
        num_flows = len(self._f_size)
        in_flat = self._in_flat
        n_in = 0
        for fid in inputs:
            if not 0 <= fid < num_flows:
                raise RuntimeBackendError(f"task {tid}: unknown input flow {fid}")
            in_flat.append(fid)
            n_in += 1
        self._in_ptr.append(self._in_ptr[-1] + n_in)
        self._t_node.append(node)
        self._t_dur.append(duration)
        self._t_prio.append(priority)
        kid = self._kind_ids.get(kind)
        if kid is None:
            kid = self._kind_ids[kind] = len(self._kind_names)
            self._kind_names.append(kind)
        self._t_kind.append(kid)
        self._frozen = False
        self._validated = None
        return tid

    def add_flow(self, producer: int, size: int) -> int:
        """Add an output flow to task ``producer``; returns the flow id."""
        if not 0 <= producer < len(self._t_node):
            raise RuntimeBackendError(f"flow producer task {producer} unknown")
        fid = len(self._f_size)
        if size < 0:
            raise RuntimeBackendError(f"flow {fid}: negative size")
        self._f_size.append(size)
        self._f_prod.append(producer)
        self._frozen = False
        self._validated = None
        return fid

    def freeze(self) -> "TaskGraph":
        """Derive the output/consumer CSR adjacency from the build columns.

        Two stable counting sorts: flows sorted by producer give each
        task's outputs in flow-id order; input-CSR positions sorted by flow
        give each flow's consumers in task-id order — exactly the append
        order the old per-object tuples had.  The same pass derives the
        local-flow column (:meth:`flow_is_local`).  Idempotent; re-run
        automatically after further :meth:`add_task`/:meth:`add_flow` or
        an ``outputs``/``consumers`` override.
        """
        if self._frozen:
            return self
        import numpy as np

        num_tasks = len(self._t_node)
        num_flows = len(self._f_size)
        prod = np.frombuffer(self._f_prod, dtype=np.int64) if num_flows else \
            np.empty(0, dtype=np.int64)
        out_counts = np.bincount(prod, minlength=max(num_tasks, 1))
        out_ptr = np.zeros(num_tasks + 1, dtype=np.int64)
        np.cumsum(out_counts[:num_tasks], out=out_ptr[1:])
        out_flat = np.argsort(prod, kind="stable")
        in_flat = np.frombuffer(self._in_flat, dtype=np.int64) if len(self._in_flat) \
            else np.empty(0, dtype=np.int64)
        in_ptr = np.frombuffer(self._in_ptr, dtype=np.int64)
        owner = np.repeat(np.arange(num_tasks, dtype=np.int64), np.diff(in_ptr))
        # Before the consumer sort: its temporaries outlive this one's.
        f_local = self._local_flows(prod, in_flat, owner)
        order = np.argsort(in_flat, kind="stable")
        cons_flat = owner[order]
        cons_counts = np.bincount(in_flat, minlength=max(num_flows, 1))
        cons_ptr = np.zeros(num_flows + 1, dtype=np.int64)
        np.cumsum(cons_counts[:num_flows], out=cons_ptr[1:])
        # Store as array('q'): indexing yields plain Python ints, so flow
        # ids never leak NumPy scalars into payload dicts or JSON codecs.
        self._out_ptr = _as_q(out_ptr)
        self._out_flat = _as_q(out_flat)
        self._cons_ptr = _as_q(cons_ptr)
        self._cons_flat = _as_q(cons_flat)
        self._f_local = f_local
        self._frozen = True
        return self

    def _local_flows(self, prod, in_flat, owner) -> bytes:
        """The local-flow column: byte ``fid`` is 1 when every consumer of
        flow ``fid`` runs on its producer's node (vacuously so with no
        consumers), so releasing it never leaves that node.

        ``in_flat``/``owner`` are the input edges (flow, consumer task).
        Node ids are compared as int32 to halve the per-edge temporaries.
        """
        import numpy as np

        num_flows = len(prod)
        local = np.ones(num_flows, dtype=np.uint8)
        if len(in_flat):
            node32 = np.frombuffer(self._t_node, dtype=np.int64).astype(np.int32)
            remote = node32[owner] != node32[prod][in_flat]
            local[in_flat[remote]] = 0
        num_tasks = len(self._t_node)
        t_node = self._t_node
        for fid, consumers in self._cons_override.items():
            if 0 <= fid < num_flows:
                home = t_node[self._f_prod[fid]]
                local[fid] = all(
                    0 <= tid < num_tasks and t_node[tid] == home
                    for tid in consumers
                )
        # A flow listed by an outputs override may be released on another
        # node than its producer's: leave it to the general release path.
        for outputs in self._out_override.values():
            for fid in outputs:
                if 0 <= fid < num_flows:
                    local[fid] = 0
        return local.tobytes()

    # -- columnar accessors ----------------------------------------------

    def task_node(self, tid: int) -> int:
        """Node placement of task ``tid``."""
        return self._t_node[tid]

    def task_duration(self, tid: int) -> float:
        """Compute duration of task ``tid``."""
        return self._t_dur[tid]

    def task_priority(self, tid: int) -> float:
        """Scheduling priority of task ``tid``."""
        return self._t_prio[tid]

    def task_kind(self, tid: int) -> str:
        """Kind label of task ``tid``."""
        return self._kind_names[self._t_kind[tid]]

    def task_inputs(self, tid: int) -> tuple[int, ...]:
        """Input flow ids of task ``tid`` (registration order)."""
        override = self._in_override
        if override:
            hit = override.get(tid)
            if hit is not None:
                return hit
        return tuple(self._in_flat[self._in_ptr[tid]:self._in_ptr[tid + 1]])

    def input_count(self, tid: int) -> int:
        """Number of input flows of task ``tid`` (no tuple allocation)."""
        override = self._in_override
        if override:
            hit = override.get(tid)
            if hit is not None:
                return len(hit)
        return self._in_ptr[tid + 1] - self._in_ptr[tid]

    def task_outputs(self, tid: int) -> tuple[int, ...]:
        """Output flow ids of task ``tid`` (creation order)."""
        return tuple(self.outputs_of(tid))

    def outputs_of(self, tid: int):
        """Output flow ids of task ``tid`` as a flat int sequence."""
        override = self._out_override
        if override:
            hit = override.get(tid)
            if hit is not None:
                return hit
        if not self._frozen:
            self.freeze()
        return self._out_flat[self._out_ptr[tid]:self._out_ptr[tid + 1]]

    def flow_size(self, fid: int) -> int:
        """Payload bytes of flow ``fid``."""
        return self._f_size[fid]

    def flow_producer(self, fid: int) -> int:
        """Producer task id of flow ``fid``."""
        return self._f_prod[fid]

    def flow_is_local(self, fid: int) -> bool:
        """True when every consumer of flow ``fid`` runs on its producer's
        node: the flow is released without any communication."""
        if not self._frozen:
            self.freeze()
        return bool(self._f_local[fid])

    def flow_consumers(self, fid: int) -> tuple[int, ...]:
        """Consumer task ids of flow ``fid`` (registration order)."""
        return tuple(self.consumers_of(fid))

    def consumers_of(self, fid: int):
        """Consumer task ids of flow ``fid`` as a flat int sequence."""
        override = self._cons_override
        if override:
            hit = override.get(fid)
            if hit is not None:
                return hit
        if not self._frozen:
            self.freeze()
        return self._cons_flat[self._cons_ptr[fid]:self._cons_ptr[fid + 1]]

    def task_ids_on(self, node: int) -> list[int]:
        """Ids of the tasks placed on ``node``, ascending."""
        import numpy as np

        if not len(self._t_node):
            return []
        col = np.frombuffer(self._t_node, dtype=np.int64)
        return np.nonzero(col == node)[0].tolist()

    # -- queries ---------------------------------------------------------

    @property
    def num_tasks(self) -> int:
        """Number of tasks in the graph."""
        return len(self._t_node)

    @property
    def num_flows(self) -> int:
        """Number of dataflows in the graph."""
        return len(self._f_size)

    def nodes_used(self) -> set[int]:
        """Set of node ids any task is placed on."""
        return set(self._t_node)

    def source_tasks(self) -> list[int]:
        """Tasks with no inputs — initially ready."""
        return [
            tid for tid in range(len(self._t_node)) if self.input_count(tid) == 0
        ]

    def consumer_nodes(self, flow) -> set[int]:
        """Nodes on which this flow's consumers run (flow id or view)."""
        fid = flow if isinstance(flow, int) else flow.flow_id
        t_node = self._t_node
        return {t_node[tid] for tid in self.consumers_of(fid)}

    def total_remote_bytes(self) -> int:
        """Bytes that must cross the network at least once (one copy per
        remote consumer node, ignoring multicast-tree forwarding)."""
        import numpy as np

        num_flows = len(self._f_size)
        if not num_flows:
            return 0
        if self._cons_override or self._in_override:
            total = 0
            t_node = self._t_node
            for fid in range(num_flows):
                src = t_node[self._f_prod[fid]]
                remote = {n for n in self.consumer_nodes(fid) if n != src}
                total += self._f_size[fid] * len(remote)
            return total
        self.freeze()
        cons_ptr = np.frombuffer(self._cons_ptr, dtype=np.int64)
        cons_flat = np.frombuffer(self._cons_flat, dtype=np.int64) \
            if len(self._cons_flat) else np.empty(0, dtype=np.int64)
        if not len(cons_flat):
            return 0
        t_node = np.frombuffer(self._t_node, dtype=np.int64)
        fid_rep = np.repeat(
            np.arange(num_flows, dtype=np.int64), np.diff(cons_ptr)
        )
        cnode = t_node[cons_flat]
        stride = int(t_node.max()) + 1
        unique = np.unique(fid_rep * stride + cnode)
        ufid, unode = unique // stride, unique % stride
        sizes = np.frombuffer(self._f_size, dtype=np.int64)
        remote = unode != t_node[np.frombuffer(self._f_prod, dtype=np.int64)][ufid]
        return int(sizes[ufid[remote]].sum())

    # -- validation ------------------------------------------------------

    def validate(self, num_nodes: Optional[int] = None) -> None:
        """Check structural invariants; raises RuntimeBackendError.

        A graph built only through :meth:`add_task`/:meth:`add_flow` is
        acyclic by construction, which one vectorised comparison confirms
        (:meth:`_inputs_precede`).  Once any ``inputs``/``outputs``/
        ``consumers`` override is set, or if that comparison fails, the
        Kahn pass decides instead and names the tasks it cannot drain.

        A repeat call with the same ``num_nodes`` on an unmodified graph
        is a no-op (structural edits through :meth:`add_task` /
        :meth:`add_flow` or spec-view assignment clear the memo).
        """
        if self._validated == (num_nodes,):
            return
        if not len(self._t_node):
            raise RuntimeBackendError("empty task graph")
        import numpy as np

        if num_nodes is not None:
            nodes = np.frombuffer(self._t_node, dtype=np.int64)
            misplaced = np.flatnonzero((nodes < 0) | (nodes >= num_nodes))
            del nodes  # a live view would pin the column against appends
            if len(misplaced):
                tid = int(misplaced[0])
                raise RuntimeBackendError(
                    f"task {tid} placed on node {self._t_node[tid]} "
                    f"outside [0, {num_nodes})"
                )
        overridden = self._in_override or self._out_override or self._cons_override
        if overridden or not self._inputs_precede():
            num_flows = len(self._f_size)
            for tid, inputs in self._in_override.items():
                for fid in inputs:
                    if not 0 <= fid < num_flows:
                        raise RuntimeBackendError(
                            f"task {tid}: missing input flow {fid}"
                        )
            if not self.source_tasks():
                raise RuntimeBackendError("task graph has no source tasks (cycle?)")
            self._check_acyclic()
        self._validated = (num_nodes,)

    def _inputs_precede(self) -> bool:
        """True when every input flow's producer has a lower id than its
        consumer, which :meth:`add_task`/:meth:`add_flow` guarantee.  Id
        order is then a topological order and task 0 a source, so the
        graph is acyclic without a Kahn pass."""
        import numpy as np

        if not len(self._in_flat):
            return True
        in_flat = np.frombuffer(self._in_flat, dtype=np.int64)
        in_ptr = np.frombuffer(self._in_ptr, dtype=np.int64)
        owner = np.repeat(np.arange(len(self._t_node), dtype=np.int64), np.diff(in_ptr))
        prod = np.frombuffer(self._f_prod, dtype=np.int64)
        return bool((prod[in_flat] < owner).all())

    def _check_acyclic(self) -> None:
        """Kahn's algorithm over the task-dependency relation."""
        num_tasks = len(self._t_node)
        indeg = [self.input_count(tid) for tid in range(num_tasks)]
        ready = [tid for tid in range(num_tasks) if indeg[tid] == 0]
        seen = 0
        while ready:
            tid = ready.pop()
            seen += 1
            for fid in self.outputs_of(tid):
                for consumer in self.consumers_of(fid):
                    d = indeg[consumer] - 1
                    indeg[consumer] = d
                    if d == 0:
                        ready.append(consumer)
        if seen != num_tasks:
            raise RuntimeBackendError(self._cycle_detail(indeg))

    def _cycle_detail(self, indeg: list) -> str:
        """Name the tasks the Kahn pass could not drain (cycle members or
        their downstream closure), so the offending wiring is findable."""
        remaining = [tid for tid, d in enumerate(indeg) if d > 0]
        sample = ", ".join(
            f"task {tid} ({self.task_kind(tid)}@n{self._t_node[tid]}, "
            f"{indeg[tid]} unmet input{'s' if indeg[tid] != 1 else ''})"
            for tid in remaining[:8]
        )
        more = f", and {len(remaining) - 8} more" if len(remaining) > 8 else ""
        return (
            f"task graph has a cycle ({len(remaining)} tasks unreachable): "
            f"{sample}{more}"
        )


def _as_q(np_array) -> array:
    """Copy an int64 NumPy array into a plain ``array('q')``."""
    out = array("q")
    out.frombytes(np_array.tobytes())
    return out
