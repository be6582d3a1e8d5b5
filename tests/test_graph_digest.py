"""Task-graph construction pinned by column digests, and validation by
construction.

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
from hypothesis import given, settings
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
