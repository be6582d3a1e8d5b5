"""Tests for the task-graph model."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import scaled_platform
from repro.errors import RuntimeBackendError
from repro.runtime import ParsecContext, TaskGraph
from repro.runtime.node import binomial_tree, build_flow_plan
from repro.units import KiB
from repro.workloads.generators import random_layered_dag


class TestTaskGraphConstruction:
    def test_add_task_and_flow(self):
        g = TaskGraph()
        a = g.add_task(node=0, duration=1e-6)
        f = g.add_flow(a, 4 * KiB)
        b = g.add_task(node=1, duration=1e-6, inputs=[f])
        assert g.num_tasks == 2
        assert g.num_flows == 1
        assert tuple(g.consumers_of(f)) == (b,)
        assert tuple(g.outputs_of(a)) == (f,)
        assert tuple(g.inputs_of(b)) == (f,)

    def test_unknown_input_flow_rejected(self):
        g = TaskGraph()
        with pytest.raises(RuntimeBackendError, match="unknown input flow"):
            g.add_task(node=0, duration=0, inputs=[99])

    def test_unknown_producer_rejected(self):
        g = TaskGraph()
        with pytest.raises(RuntimeBackendError, match="unknown"):
            g.add_flow(5, 100)

    def test_negative_duration_rejected(self):
        g = TaskGraph()
        with pytest.raises(RuntimeBackendError, match="negative duration"):
            g.add_task(node=0, duration=-1.0)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf")])
    def test_non_finite_duration_rejected(self, duration):
        # A NaN duration used to run in zero simulated time, an infinite
        # one to surface only as a deadlock at run time.
        g = TaskGraph()
        with pytest.raises(RuntimeBackendError, match="task 0: non-finite"):
            g.add_task(node=0, duration=duration)
        assert g.num_tasks == 0

    @pytest.mark.parametrize("priority", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_priority_rejected(self, priority):
        # A NaN priority makes every ready-heap comparison false.
        g = TaskGraph()
        with pytest.raises(RuntimeBackendError, match="task 0: non-finite"):
            g.add_task(node=0, duration=1e-6, priority=priority)

    def test_negative_flow_size_rejected(self):
        g = TaskGraph()
        a = g.add_task(node=0, duration=0)
        with pytest.raises(RuntimeBackendError, match="negative size"):
            g.add_flow(a, -5)

    def test_source_tasks(self):
        g = TaskGraph()
        a = g.add_task(node=0, duration=0)
        f = g.add_flow(a, 1)
        g.add_task(node=0, duration=0, inputs=[f])
        assert [t for t in range(g.num_tasks) if g.input_count(t) == 0] == [a]

    def test_consumer_nodes(self):
        g = TaskGraph()
        a = g.add_task(node=0, duration=0)
        f = g.add_flow(a, 1)
        g.add_task(node=1, duration=0, inputs=[f])
        g.add_task(node=2, duration=0, inputs=[f])
        g.add_task(node=1, duration=0, inputs=[f])
        assert {g.task_node(t) for t in g.consumers_of(f)} == {1, 2}

    def test_total_remote_bytes(self):
        g = TaskGraph()
        a = g.add_task(node=0, duration=0)
        f = g.add_flow(a, 1000)
        g.add_task(node=0, duration=0, inputs=[f])  # local: free
        g.add_task(node=1, duration=0, inputs=[f])
        g.add_task(node=2, duration=0, inputs=[f])
        assert g.total_remote_bytes() == 2000


class TestValidation:
    def test_empty_graph_rejected(self):
        with pytest.raises(RuntimeBackendError, match="empty"):
            TaskGraph().validate()

    def test_bad_node_placement_rejected(self):
        g = TaskGraph()
        g.add_task(node=5, duration=0)
        with pytest.raises(RuntimeBackendError, match="outside"):
            g.validate(num_nodes=2)

    def test_valid_dag_passes(self):
        g = TaskGraph()
        a = g.add_task(node=0, duration=0)
        f = g.add_flow(a, 1)
        g.add_task(node=0, duration=0, inputs=[f])
        g.validate(num_nodes=1)

    def test_cycle_detected(self):
        g = TaskGraph()
        a = g.add_task(node=0, duration=0)
        fa = g.add_flow(a, 1)
        b = g.add_task(node=0, duration=0, inputs=[fa])
        # Make b the producer of its own input, behind add_flow's back.
        g._f_prod[fa] = b
        with pytest.raises(RuntimeBackendError, match="cycle"):
            g.validate()

    def test_validate_memo_cleared_by_structural_edits(self):
        g = TaskGraph()
        a = g.add_task(node=0, duration=0)
        g.validate(num_nodes=1)
        g.validate(num_nodes=1)  # memo hit: no-op
        g.add_task(node=5, duration=0)
        with pytest.raises(RuntimeBackendError, match="outside"):
            g.validate(num_nodes=1)


class TestBinomialTree:
    def test_single_node(self):
        assert binomial_tree([7]) == (7, ())

    def test_two_nodes(self):
        assert binomial_tree([0, 1]) == (0, ((1, ()),))

    def test_four_nodes_structure(self):
        root, children = binomial_tree([0, 1, 2, 3])
        assert root == 0
        assert [c[0] for c in children] == [1, 2]
        # Node 2's subtree contains 3.
        assert children[1] == (2, ((3, ()),))

    def test_all_members_covered_once(self):
        nodes = list(range(13))
        tree = binomial_tree(nodes)
        seen = []

        def walk(spec):
            seen.append(spec[0])
            for child in spec[1]:
                walk(child)

        walk(tree)
        assert sorted(seen) == nodes

    def test_depth_is_logarithmic(self):
        tree = binomial_tree(list(range(32)))

        def depth(spec):
            return 1 + max((depth(c) for c in spec[1]), default=0)

        assert depth(tree) == 6  # ceil(log2(32)) + 1 levels of nodes

    def test_empty_rejected(self):
        with pytest.raises(RuntimeBackendError):
            binomial_tree([])


# ----------------------------------------------------------------------
# the local-flow column
# ----------------------------------------------------------------------

@st.composite
def _small_graphs(draw):
    """A random small DAG on up to 3 nodes whose tasks read up to four
    earlier flows, so some flows stay home and some go remote."""
    g = TaskGraph()
    num_nodes = draw(st.integers(1, 3))
    for _ in range(draw(st.integers(1, 12))):
        inputs = draw(st.lists(
            st.integers(0, g.num_flows - 1), max_size=4, unique=True,
        )) if g.num_flows else []
        tid = g.add_task(node=draw(st.integers(0, num_nodes - 1)),
                         duration=1e-6,
                         priority=draw(st.sampled_from([0.0, 1.0, 2.0])),
                         inputs=inputs)
        for _ in range(draw(st.integers(0, 2))):
            g.add_flow(tid, 64)
    return g


class TestLocalFlowColumn:
    @settings(max_examples=200, deadline=None)
    @given(_small_graphs())
    def test_byte_set_exactly_when_plan_stays_home(self, graph):
        for fid in range(graph.num_flows):
            home = graph.task_node(graph.flow_producer(fid))
            plan = build_flow_plan(graph, fid, home)
            stays_home = plan.pending == 1 and set(plan.by_node) <= {home}
            assert graph.flow_is_local(fid) == stays_home, fid

    @pytest.mark.parametrize("backend", ["lci", "mpi"])
    def test_plan_free_release_changes_nothing(self, backend, monkeypatch):
        """A run with the column is bit-identical to one that sends every
        flow down the plan path, and drains every protocol map."""
        def run():
            graph = random_layered_dag([4, 6, 6, 4], num_nodes=3, seed=5)
            ctx = ParsecContext(scaled_platform(num_nodes=3, cores_per_node=3),
                                backend=backend)
            stats = ctx.run(graph, until=30.0)
            return graph, stats, [node.quiescence_report() for node in ctx.nodes]

        graph, stats, reports = run()
        assert 0 < sum(map(graph.flow_is_local, range(graph.num_flows))) \
            < graph.num_flows
        for report in reports:
            assert all(v == 0 for k, v in report.items() if k != "flows_retired")
        # Every node of a flow's multicast tree retires it exactly once.
        assert sum(r["flows_retired"] for r in reports) == sum(
            build_flow_plan(graph, fid, graph.task_node(graph.flow_producer(fid)))
            .pending for fid in range(graph.num_flows)
        )
        monkeypatch.setattr(TaskGraph, "_local_flows",
                            lambda self, prod, *_: bytes(len(prod)))
        plan_graph, plan_stats, plan_reports = run()
        assert not any(map(plan_graph.flow_is_local, range(plan_graph.num_flows)))
        assert dataclasses.asdict(stats) == dataclasses.asdict(plan_stats)
        assert reports == plan_reports
