"""Task-graph construction pinned by column digests, validation by
construction, and the array-at-a-time builder calls' parity with the
scalar ones.

Each corpus case builds a graph and compares the SHA-256 over its build
columns and kind names (``column_digest`` of
``tools/check_paper_scale_budget.py``) with the value recorded before the
builders were rewritten for speed: every task id, flow id, float, priority
and placement must stay bit-identical.  The dense Cholesky case pins the
graph of the former dense builder, now ``band=nt``.
"""

import importlib.util
import pathlib
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import RuntimeBackendError
from repro.hicma.dag import build_tlr_cholesky_graph
from repro.runtime import TaskGraph
from repro.workloads import get_workload

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _tool():
    path = ROOT / "tools" / "check_paper_scale_budget.py"
    spec = importlib.util.spec_from_file_location("paper_scale_budget", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


column_digest = _tool().column_digest


def _workload_graph(name, **params):
    spec = get_workload(name)
    cfg = spec.build_config(**params)
    return spec.build_graph(cfg, spec.context_options(cfg)["platform"])


#: Case id -> (builder, tasks, flows, column digest).  The hicma, stencil
#: and taskbench-a2a cases are the perf/run.py workloads' graphs.
CORPUS = {
    "hicma/perf-full": (
        lambda: _workload_graph("hicma", num_nodes=16, matrix_size=36000, tile_size=900),
        11480, 12259,
        "e5917c47ac64c2db63b73e9dbac9f491844bb933855e07e44c4d137fedeac34e",
    ),
    "hicma/perf-smoke": (
        lambda: _workload_graph("hicma", num_nodes=16, matrix_size=10800, tile_size=900),
        364, 429,
        "b7b375557f316e27c2521f4ff3aa40e2c666764bd0b59dae8d6f577b6851b541",
    ),
    "hicma/band3": (
        lambda: build_tlr_cholesky_graph(10, 960, num_nodes=4, band=3),
        220, 247,
        "911cf5bc20dd5d7b3f4f01169b3e93c3f24c83000348886d7ed0ce956e4e7397",
    ),
    "dense-cholesky/nt8": (
        lambda: build_tlr_cholesky_graph(8, 1200, num_nodes=4, band=8),
        120, 119,
        "a0381c78b9b99ac9558548d817a264d2e6f4d56431c345472c1221246adf7481",
    ),
    "stencil/perf": (
        lambda: _workload_graph("stencil", num_nodes=8, grid=64, steps=6),
        24576, 24576,
        "22ba375053a7c83643964aac8dda16ec28d23fd0bdb2f4a5cfff9f856b4b78f8",
    ),
    "taskbench/perf-a2a": (
        lambda: _workload_graph("taskbench", num_nodes=8, width=64, depth=24,
                                pattern="all_to_all", flow_bytes=4096),
        1536, 1536,
        "b96f5ccf1688131b085fc5d2994716e80c4dda65b89c096e6ff8442aaad33746",
    ),
    "taskbench/random": (
        lambda: _workload_graph("taskbench", num_nodes=4, width=16, depth=8,
                                pattern="random", fan_in=3, seed=7),
        128, 128,
        "7f84945a2a80834837fb737a61625ce0852747769999aaab453faf216add6bc8",
    ),
    "taskbench/trivial": (
        lambda: _workload_graph("taskbench", num_nodes=4, width=12, depth=10,
                                pattern="trivial"),
        120, 120,
        "06bc64257563641250a05408b6a70f0c950b1244fd0b91d807791b652ab67628",
    ),
    "taskbench/serial": (
        lambda: _workload_graph("taskbench", num_nodes=4, width=12, depth=10,
                                pattern="serial"),
        120, 120,
        "48c5ee363b06e7fd81011ec028b372bc39e0ac1766fb78a18c87f366eb0984db",
    ),
    "taskbench/stencil": (
        lambda: _workload_graph("taskbench", num_nodes=4, width=12, depth=10,
                                pattern="stencil"),
        120, 120,
        "cb40a6bbc2cfb319f86dd3a254f60bd97df59e734b2e5afc63147cebd26887be",
    ),
    "taskbench/fft": (
        lambda: _workload_graph("taskbench", num_nodes=4, width=12, depth=10,
                                pattern="fft"),
        120, 120,
        "ee4662c307dd4e8e9c87365c19a91a8708639412bbb5ac5d9da949ccfe5d0443",
    ),
    "halo": (
        lambda: _workload_graph("halo"),
        128, 128,
        "4d470ea49aa0907207c8b7ae40d42b6118e72d28053ca0275abb4a79fe1d9aa9",
    ),
    "alltoall": (
        lambda: _workload_graph("alltoall"),
        20, 16,
        "8b7f951f67db07392f642be04d232e72c48da629d5e93018297cd4a7c8479c8f",
    ),
    "ring": (
        lambda: _workload_graph("ring"),
        64, 64,
        "bc5735a414389df7726a85501908c91b5ed259dedbeb66187932f28d03601102",
    ),
    "forkjoin": (
        lambda: _workload_graph("forkjoin"),
        162, 161,
        "3e8e5b5b8de4791a335090252ec696e42a58b258da03427c7fcf187713f2a7c5",
    ),
    "tree/allreduce": (
        lambda: _workload_graph("tree"),
        123, 122,
        "e88f2e9d8803d8a7939c15ac9f93196ccdabd482d4ef63dd30f115cf96f6c6b2",
    ),
    "tree/broadcast": (
        lambda: _workload_graph("tree", mode="broadcast"),
        63, 62,
        "4e0292a00008f36a82c15c9348f816fce876b18356b231110110475c37b45474",
    ),
    "randomdag": (
        lambda: _workload_graph("randomdag", seed=3),
        128, 128,
        "c27cfabf9a80283f56f2f8224980a9efe8580022a19483b437c91364166b9f9f",
    ),
}


@pytest.mark.parametrize("case", sorted(CORPUS))
def test_graph_matches_pinned_digest(case):
    build, tasks, flows, digest = CORPUS[case]
    graph = build()
    assert (graph.num_tasks, graph.num_flows) == (tasks, flows)
    assert column_digest(graph) == digest


# ----------------------------------------------------------------------
# validation by construction
# ----------------------------------------------------------------------

@st.composite
def _built_graphs(draw):
    """A random DAG built only through add_task/add_flow."""
    g = TaskGraph()
    num_nodes = draw(st.integers(1, 4))
    for _ in range(draw(st.integers(1, 20))):
        inputs = draw(st.lists(
            st.integers(0, g.num_flows - 1), max_size=4,
        )) if g.num_flows else []
        tid = g.add_task(draw(st.integers(0, num_nodes - 1)), 1e-6,
                         draw(st.floats(-1e9, 1e9)), inputs)
        for _ in range(draw(st.integers(0, 3))):
            g.add_flow(tid, draw(st.integers(0, 4096)))
    return g, num_nodes


def _kahn_drains(graph):
    """Kahn's algorithm over the task-dependency relation: True when
    every task can be drained, i.e. the graph is acyclic."""
    indeg = [graph.input_count(tid) for tid in range(graph.num_tasks)]
    ready = [tid for tid, d in enumerate(indeg) if d == 0]
    seen = 0
    while ready:
        tid = ready.pop()
        seen += 1
        for fid in graph.outputs_of(tid):
            for consumer in graph.consumers_of(fid):
                indeg[consumer] -= 1
                if indeg[consumer] == 0:
                    ready.append(consumer)
    return seen == graph.num_tasks


class TestValidateByConstruction:
    @settings(max_examples=200, deadline=None)
    @given(_built_graphs())
    def test_built_graphs_validate_and_kahn_agrees(self, case):
        graph, num_nodes = case
        graph.validate(num_nodes=num_nodes)
        assert _kahn_drains(graph)  # the Kahn pass reaches the same verdict
        assert graph.input_count(0) == 0

    @settings(max_examples=200, deadline=None)
    @given(_built_graphs(), st.data())
    def test_fast_path_never_passes_what_kahn_rejects(self, case, data):
        """Rewire flow producers behind the builder's back (a cycle may
        appear): validate() passes only graphs Kahn drains, and a
        rejection names an edge whose producer does not precede it."""
        graph, num_nodes = case
        if graph.num_flows:
            for fid in data.draw(st.lists(
                    st.integers(0, graph.num_flows - 1), max_size=3)):
                graph._f_prod[fid] = data.draw(
                    st.integers(0, graph.num_tasks - 1))
        try:
            graph.validate(num_nodes=num_nodes)
        except RuntimeBackendError as exc:
            task, flow, producer = map(int, re.match(
                r"task (\d+) reads input flow (\d+) of task (\d+)", str(exc)
            ).groups())
            assert flow in graph.inputs_of(task)
            assert graph.flow_producer(flow) == producer >= task
        else:
            assert _kahn_drains(graph)

    def test_order_violation_names_first_edge(self):
        """A producer rewritten behind the builder's back (here a cycle
        b <- c <- b) fails validate(), naming the first late edge."""
        g = TaskGraph()
        a = g.add_task(0, 0.0)
        fa = g.add_flow(a, 1)
        b = g.add_task(0, 0.0, 0.0, [fa], "trsm")
        fb = g.add_flow(b, 1)
        c = g.add_task(0, 0.0, 0.0, [fb], "gemm")
        g._f_prod[fa] = c
        assert not _kahn_drains(g)
        with pytest.raises(RuntimeBackendError, match=(
                rf"^task {b} reads input flow {fa} of task {c}, which does "
                r"not precede it \(a cycle or an out-of-order edge\)$")):
            g.validate()

    def test_misplaced_task_named_first(self):
        g = TaskGraph()
        for node in (0, 1, 7, 9):
            g.add_task(node, 0.0)
        with pytest.raises(RuntimeBackendError,
                           match=r"^task 2 placed on node 7 outside \[0, 2\)$"):
            g.validate(num_nodes=2)


# ----------------------------------------------------------------------
# array-at-a-time construction: parity with add_task/add_flow
# ----------------------------------------------------------------------

_INF, _NAN = float("inf"), float("nan")


@st.composite
def _batches(draw):
    """Build steps ``(tasks, flows)``: each task a (node, duration,
    priority, inputs, kind) row reading flows of earlier steps, each flow
    a (producer, size) row."""
    steps, num_tasks, num_flows = [], 0, 0
    for _ in range(draw(st.integers(1, 5))):
        tasks = draw(st.lists(st.tuples(
            st.integers(0, 3), st.floats(0.0, 1e-3), st.floats(-1e9, 1e9),
            st.lists(st.integers(0, max(num_flows - 1, 0)),
                     max_size=4 if num_flows else 0),
            st.sampled_from(["potrf", "trsm", "gemm"]),
        ), max_size=6))
        num_tasks += len(tasks)
        flows = draw(st.lists(
            st.tuples(st.integers(0, max(num_tasks - 1, 0)), st.integers(0, 4096)),
            max_size=6 if num_tasks else 0,
        ))
        num_flows += len(flows)
        steps.append((tasks, flows))
    return steps


@st.composite
def _invalid_batches(draw):
    """:func:`_batches` with one or two rows made invalid: a bad
    duration, priority or input flow, or a bad producer or size."""
    steps = draw(_batches())
    cells = [(part, r) for tasks_flows in steps for part in tasks_flows
             for r in range(len(part))]
    assume(cells)
    for _ in range(draw(st.integers(1, 2))):
        rows_of, r = draw(st.sampled_from(cells))
        row = list(rows_of[r])
        if len(row) == 5:  # a task
            field = draw(st.sampled_from(["duration", "priority", "input"]))
            if field == "duration":
                row[1] = draw(st.sampled_from([-1e-6, -_INF, _INF, _NAN]))
            elif field == "priority":
                row[2] = draw(st.sampled_from([-_INF, _INF, _NAN]))
            else:
                at = draw(st.integers(0, len(row[3])))
                row[3] = row[3][:at] + [draw(st.sampled_from([-1, 10**6]))] + row[3][at:]
        elif draw(st.booleans()):
            row[0] = draw(st.sampled_from([-1, 10**6]))  # unknown producer
        else:
            row[1] = -1  # negative size
        rows_of[r] = tuple(row)
    return steps


def _build_scalar(steps, g=None):
    g = TaskGraph() if g is None else g
    for tasks, flows in steps:
        for node, duration, priority, inputs, kind in tasks:
            g.add_task(node, duration, priority, inputs, kind)
        for producer, size in flows:
            g.add_flow(producer, size)
    return g


def _bulk_tasks(g, tasks):
    """One add_tasks call, passing a uniform column as a scalar to cover
    broadcasting."""
    if tasks:
        nodes, durs, prios, inputs, kinds = zip(*tasks)
        g.add_tasks(
            nodes,
            durs[0] if len(set(durs)) == 1 else durs,
            prios,
            [fid for row in inputs for fid in row],
            [len(row) for row in inputs],
            kinds[0] if len(set(kinds)) == 1 else kinds,
        )


def _bulk_flows(g, flows):
    """One add_flows call, a uniform size passed as a scalar."""
    if flows:
        producers, sizes = zip(*flows)
        g.add_flows(producers, sizes[0] if len(set(sizes)) == 1 else sizes)


class TestBulkConstruction:
    @settings(max_examples=200, deadline=None)
    @given(_batches())
    def test_same_columns_as_scalar_calls(self, steps):
        bulk = TaskGraph()
        for tasks, flows in steps:
            _bulk_tasks(bulk, tasks)
            _bulk_flows(bulk, flows)
        assert column_digest(bulk) == column_digest(_build_scalar(steps))

    @settings(max_examples=300, deadline=None)
    @given(_invalid_batches())
    def test_same_first_error_as_scalar_calls(self, steps):
        """Both paths reject the same first task or flow, word for word,
        and a rejected batch leaves the bulk-built graph unchanged."""
        scalar_error = bulk_error = None
        scalar = TaskGraph()
        try:
            _build_scalar(steps, scalar)
        except RuntimeBackendError as exc:
            scalar_error = str(exc)
        # A rejected add_task appends no input: the CSR stays aligned.
        assert scalar._in_ptr[-1] == len(scalar._in_flat)
        bulk = TaskGraph()
        calls = [(add, rows) for tasks, flows in steps
                 for add, rows in ((_bulk_tasks, tasks), (_bulk_flows, flows))]
        for add, rows in calls:
            before = column_digest(bulk)
            try:
                add(bulk, rows)
            except RuntimeBackendError as exc:
                bulk_error = str(exc)
                assert column_digest(bulk) == before
                break
        assert bulk_error == scalar_error
