"""Distributed task graphs: tasks, dataflows, and validation.

A :class:`TaskGraph` is the static description of a computation the runtime
executes (PaRSEC would generate it from a parameterized task graph; our
workload generators build it explicitly):

- a task runs on a fixed node for ``duration`` simulated seconds once every
  input flow's data is available on that node;
- a flow is one output datum of a task, consumed by zero or more later
  tasks; consumers on other nodes receive it through the ACTIVATE /
  GET DATA / put protocol of the paper's Fig. 1.

Storage layout
--------------
Paper-scale graphs (NT = 150 → ~574k tasks, ~585k flows, ~1.5M dependence
edges) made an object-per-task design the memory and build-time bottleneck,
so the graph is **columnar** and append-only: one flat ``array`` per field
(placement, duration, priority, kind id, flow size, flow producer) plus CSR
adjacency for task inputs, appended by :meth:`TaskGraph.add_task` and
:meth:`TaskGraph.add_flow` or their array-at-a-time twins
:meth:`TaskGraph.add_tasks` and :meth:`TaskGraph.add_flows`, its only
mutators.  The derived adjacency —
task → output flows and flow → consumer tasks — is computed once by
:meth:`TaskGraph.freeze` with two stable counting sorts (NumPy), in id
order.  Every field has one accessor: scalar ``task_*``/``flow_*`` readers
and the flat int slices :meth:`~TaskGraph.inputs_of`,
:meth:`~TaskGraph.outputs_of` and :meth:`~TaskGraph.consumers_of`.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Optional

from repro.errors import RuntimeBackendError

__all__ = ["TaskGraph"]

_INF = float("inf")


class TaskGraph:
    """A complete task graph in columnar storage.

    Build with :meth:`add_task` / :meth:`add_flow`, or a whole batch at a
    time with :meth:`add_tasks` / :meth:`add_flows` (ids are assigned
    automatically), then :meth:`validate` before execution.  The derived
    adjacency (task outputs, flow consumers) is computed lazily by
    :meth:`freeze` on first use and invalidated by further construction.
    """

    __slots__ = (
        "_t_node", "_t_dur", "_t_prio", "_t_kind",
        "_kind_names", "_kind_ids",
        "_in_ptr", "_in_flat",
        "_f_size", "_f_prod",
        "_out_ptr", "_out_flat", "_cons_ptr", "_cons_flat", "_f_local",
        "_frozen", "_validated",
    )

    def __init__(self) -> None:
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
        self._frozen = False
        #: Memo of the last successful validate() arguments, cleared by
        #: construction — lets callers validate eagerly without the runtime
        #: re-paying the checks.
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
            raise _timing_error(tid, duration, priority)
        num_flows = len(self._f_size)
        in_flat = self._in_flat
        n_in = 0
        for fid in inputs:
            if not 0 <= fid < num_flows:
                del in_flat[len(in_flat) - n_in:]  # leave the graph unchanged
                raise RuntimeBackendError(f"task {tid}: unknown input flow {fid}")
            in_flat.append(fid)
            n_in += 1
        self._in_ptr.append(self._in_ptr[-1] + n_in)
        self._t_node.append(node)
        self._t_dur.append(duration)
        self._t_prio.append(priority)
        self._t_kind.append(self._kind_id(kind))
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

    def add_tasks(
        self,
        nodes,
        duration,
        priority=0.0,
        inputs=(),
        input_counts=0,
        kind="task",
    ) -> int:
        """Add one task per entry of ``nodes``; returns the first new id.

        The array-at-a-time twin of :meth:`add_task`; a batch's ids are
        consecutive.  Each argument is a
        sequence or NumPy array with one entry per task; ``duration``,
        ``priority``, ``input_counts`` and ``kind`` may also be scalars,
        broadcast to every task.  ``inputs`` holds the batch's input flow
        ids back to back: each task reads the next ``input_counts`` of
        them.  The batch passes the checks of :meth:`add_task` called once
        per task in order, and raises the error that sequence would raise
        first; a rejected batch leaves the graph unchanged.
        """
        import numpy as np

        tid = len(self._t_node)
        node_col = _column(nodes, None, "nodes", np.int64)
        n = len(node_col)
        dur = _column(duration, n, "duration", np.float64)
        prio = _column(priority, n, "priority", np.float64)
        counts = _column(input_counts, n, "input_counts", np.int64)
        flat = _column(inputs, None, "inputs", np.int64)
        ends = np.cumsum(counts)
        if (counts < 0).any() or (ends[-1] if n else 0) != len(flat):
            raise RuntimeBackendError(
                f"input_counts must be non-negative and sum to the "
                f"{len(flat)} inputs given"
            )
        bad_timing = np.flatnonzero(
            ~((dur >= 0) & (dur < _INF) & (prio > -_INF) & (prio < _INF))
        )
        unknown = np.flatnonzero((flat < 0) | (flat >= len(self._f_size)))
        if len(bad_timing) or len(unknown):
            # The first bad row; within a row timing is checked first.
            row = n if not len(unknown) else \
                int(np.searchsorted(ends, unknown[0], side="right"))
            if len(bad_timing) and bad_timing[0] <= row:
                row = int(bad_timing[0])
                raise _timing_error(tid + row, float(dur[row]), float(prio[row]))
            raise RuntimeBackendError(
                f"task {tid + row}: unknown input flow {int(flat[unknown[0]])}"
            )
        if not n:
            return tid  # register no kind name for an empty batch
        kinds = self._kind_column(kind, n)
        _extend(self._t_node, node_col)
        _extend(self._t_dur, dur)
        _extend(self._t_prio, prio)
        _extend(self._t_kind, kinds)
        _extend(self._in_flat, flat)
        _extend(self._in_ptr, ends + self._in_ptr[-1])
        self._frozen = False
        self._validated = None
        return tid

    def add_flows(self, producers, size) -> int:
        """Add one flow per entry of ``producers``; returns the first id.

        The array-at-a-time twin of :meth:`add_flow`; a batch's ids are
        consecutive.  ``size`` is a scalar, broadcast to every flow, or
        one entry per flow.  Checks
        and errors are those of :meth:`add_flow` called once per flow in
        order; a rejected batch leaves the graph unchanged.
        """
        import numpy as np

        fid = len(self._f_size)
        prod = _column(producers, None, "producers", np.int64)
        sizes = _column(size, len(prod), "size", np.int64)
        bad = np.flatnonzero(
            (prod < 0) | (prod >= len(self._t_node)) | (sizes < 0)
        )
        if len(bad):
            row = int(bad[0])
            if not 0 <= prod[row] < len(self._t_node):
                raise RuntimeBackendError(
                    f"flow producer task {int(prod[row])} unknown"
                )
            raise RuntimeBackendError(f"flow {fid + row}: negative size")
        _extend(self._f_size, sizes)
        _extend(self._f_prod, prod)
        self._frozen = False
        self._validated = None
        return fid

    def _kind_column(self, kind, n: int):
        """Kind ids (int32) of ``n`` tasks labelled ``kind`` — one name or
        one per task — registering new names in order of first use."""
        import numpy as np

        if isinstance(kind, str):
            return np.full(n, self._kind_id(kind), dtype=np.int32)
        names, first, inverse = np.unique(
            np.asarray(kind, dtype=str), return_index=True, return_inverse=True
        )
        if len(inverse) != n:
            raise RuntimeBackendError(f"kind: {len(inverse)} entries for {n} tasks")
        ids = np.empty(len(names), dtype=np.int32)
        for u in np.argsort(first):
            ids[u] = self._kind_id(str(names[u]))
        return ids[inverse]

    def _kind_id(self, kind: str) -> int:
        kid = self._kind_ids.get(kind)
        if kid is None:
            kid = self._kind_ids[kind] = len(self._kind_names)
            self._kind_names.append(kind)
        return kid

    def freeze(self) -> "TaskGraph":
        """Derive the output/consumer CSR adjacency from the build columns.

        Two stable counting sorts: flows sorted by producer give each
        task's outputs in flow-id order; input-CSR positions sorted by flow
        give each flow's consumers in task-id order.  The same pass derives
        the local-flow column (:meth:`flow_is_local`).  Idempotent; re-run
        automatically after further construction.
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

        local = np.ones(len(prod), dtype=np.uint8)
        if len(in_flat):
            node32 = np.frombuffer(self._t_node, dtype=np.int64).astype(np.int32)
            remote = node32[owner] != node32[prod][in_flat]
            local[in_flat[remote]] = 0
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

    def input_count(self, tid: int) -> int:
        """Number of input flows of task ``tid`` (no slice allocation)."""
        return self._in_ptr[tid + 1] - self._in_ptr[tid]

    def inputs_of(self, tid: int):
        """Input flow ids of task ``tid`` (flat int slice, registration order)."""
        return self._in_flat[self._in_ptr[tid]:self._in_ptr[tid + 1]]

    def outputs_of(self, tid: int):
        """Output flow ids of task ``tid`` (flat int slice, creation order)."""
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

    def consumers_of(self, fid: int):
        """Consumer task ids of flow ``fid`` (flat int slice, task-id order)."""
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

    def total_remote_bytes(self) -> int:
        """Bytes that must cross the network at least once (one copy per
        remote consumer node, ignoring multicast-tree forwarding)."""
        import numpy as np

        num_flows = len(self._f_size)
        if not num_flows:
            return 0
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

        The graph must be non-empty and, given ``num_nodes``, place every
        task on a node in ``[0, num_nodes)``.  A graph built through
        :meth:`add_task`/:meth:`add_flow` (or :meth:`add_tasks`/
        :meth:`add_flows`) is acyclic by construction:
        every input flow's producer has a lower id than its consumer, so
        id order is a topological order.  One vectorised comparison
        confirms it and names the first edge that breaks it.

        A repeat call with the same ``num_nodes`` on an unmodified graph
        is a no-op (construction clears the memo).
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
        late = self._first_late_edge()
        if late is not None:
            task, flow, producer = late
            raise RuntimeBackendError(
                f"task {task} reads input flow {flow} of task {producer}, "
                f"which does not precede it (a cycle or an out-of-order edge)"
            )
        self._validated = (num_nodes,)

    def _first_late_edge(self) -> Optional[tuple[int, int, int]]:
        """The first ``(task, input flow, producer)`` whose producer does
        not have a lower id than the task, or None when id order is a
        topological order (as construction ensures)."""
        import numpy as np

        if not len(self._in_flat):
            return None
        in_flat = np.frombuffer(self._in_flat, dtype=np.int64)
        owner = np.repeat(
            np.arange(len(self._t_node), dtype=np.int64),
            np.diff(np.frombuffer(self._in_ptr, dtype=np.int64)),
        )
        prod = np.frombuffer(self._f_prod, dtype=np.int64)[in_flat]
        late = np.flatnonzero(prod >= owner)
        if not len(late):
            return None
        edge = int(late[0])
        return int(owner[edge]), int(in_flat[edge]), int(prod[edge])


def _timing_error(tid: int, duration: float, priority: float) -> RuntimeBackendError:
    """The error for task ``tid``'s negative or non-finite duration, or
    non-finite priority."""
    if duration < 0:
        return RuntimeBackendError(f"task {tid}: negative duration")
    return RuntimeBackendError(
        f"task {tid}: non-finite duration {duration!r} or priority {priority!r}"
    )


def _column(values, n: Optional[int], name: str, dtype):
    """``values`` as a 1-D NumPy column of ``dtype``: ``n`` entries, a
    scalar broadcast to ``n``, or any length when ``n`` is None.  Integer
    columns accept only integer input (no silent float truncation)."""
    import numpy as np

    col = np.asarray(values)
    if dtype is np.int64 and col.size and col.dtype.kind not in "iu":
        raise RuntimeBackendError(f"{name}: integers expected, got {col.dtype}")
    if col.ndim == 0 and n is not None:
        return np.full(n, col, dtype=dtype)
    if col.ndim != 1 or (n is not None and len(col) != n):
        expected = "a 1-D sequence" if n is None else f"{n} entries"
        raise RuntimeBackendError(f"{name}: shape {col.shape}, expected {expected}")
    return np.ascontiguousarray(col, dtype=dtype)


def _extend(column: array, values) -> None:
    """Append the 1-D NumPy array ``values`` (of ``column``'s item type)
    to ``column``, copying straight from its buffer."""
    import numpy as np

    column.frombytes(memoryview(np.ascontiguousarray(values)).cast("B"))


def _as_q(np_array) -> array:
    """Copy an int64 NumPy array into a plain ``array('q')``."""
    out = array("q")
    _extend(out, np_array)
    return out
