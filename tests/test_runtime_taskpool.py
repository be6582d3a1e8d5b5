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
        assert g.flows[f].consumers == (b,)
        assert g.tasks[a].outputs == (f,)
        assert g.tasks[b].inputs == (f,)

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
        assert g.source_tasks() == [a]

    def test_consumer_nodes(self):
        g = TaskGraph()
        a = g.add_task(node=0, duration=0)
        f = g.add_flow(a, 1)
        g.add_task(node=1, duration=0, inputs=[f])
        g.add_task(node=2, duration=0, inputs=[f])
        g.add_task(node=1, duration=0, inputs=[f])
        assert g.consumer_nodes(g.flows[f]) == {1, 2}

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
        fb = g.add_flow(b, 1)
        # Manually wire a back-edge a <- b to create a cycle.
        g.tasks[a].inputs = (fb,)
        g.flows[fb].consumers = (a,)
        with pytest.raises(RuntimeBackendError, match="no source|cycle"):
            g.validate()

    def test_cycle_diagnostics_name_remaining_tasks(self):
        g = TaskGraph()
        src = g.add_task(node=0, duration=0)
        fs = g.add_flow(src, 1)
        a = g.add_task(node=0, duration=0, inputs=[fs], kind="potrf")
        fa = g.add_flow(a, 1)
        b = g.add_task(node=1, duration=0, inputs=[fa], kind="trsm")
        fb = g.add_flow(b, 1)
        # Back-edge b -> a: a and b form a cycle, src stays a source.
        g.tasks[a].inputs = (fs, fb)
        g.flows[fb].consumers = (a,)
        with pytest.raises(RuntimeBackendError) as exc:
            g.validate()
        msg = str(exc.value)
        assert "2 tasks unreachable" in msg
        assert f"task {a} (potrf@n0" in msg
        assert f"task {b} (trsm@n1" in msg

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
    """A random small DAG on up to 3 nodes, some flows with a wholesale
    consumer override, as ``(graph, overridden flow ids)``."""
    g = TaskGraph()
    num_nodes = draw(st.integers(1, 3))
    for _ in range(draw(st.integers(1, 12))):
        inputs = draw(st.lists(
            st.integers(0, g.num_flows - 1), max_size=3, unique=True,
        )) if g.num_flows else []
        tid = g.add_task(node=draw(st.integers(0, num_nodes - 1)),
                         duration=1e-6,
                         priority=draw(st.sampled_from([0.0, 1.0, 2.0])),
                         inputs=inputs)
        for _ in range(draw(st.integers(0, 2))):
            g.add_flow(tid, 64)
    overridden = set()
    if g.num_flows:
        g.freeze()  # an override assigned after a freeze must still count
        for fid in draw(st.lists(st.integers(0, g.num_flows - 1),
                                 max_size=3, unique=True)):
            g.flows[fid].consumers = draw(st.lists(
                st.integers(0, g.num_tasks - 1), max_size=4, unique=True,
            ))
            overridden.add(fid)
    return g, overridden


class TestLocalFlowColumn:
    @settings(max_examples=200, deadline=None)
    @given(_small_graphs())
    def test_byte_set_exactly_when_plan_stays_home(self, case):
        graph, _overridden = case
        graph.freeze()
        for fid in range(graph.num_flows):
            home = graph.task_node(graph.flow_producer(fid))
            plan = build_flow_plan(graph, fid, home)
            stays_home = plan.pending == 1 and set(plan.by_node) <= {home}
            assert graph.flow_is_local(fid) == stays_home, fid

    def test_outputs_override_takes_the_general_path(self):
        g = TaskGraph()
        a = g.add_task(node=0, duration=1e-6)
        b = g.add_task(node=1, duration=1e-6)
        f = g.add_flow(a, 64)
        g.add_task(node=0, duration=1e-6, inputs=[f])
        assert g.flow_is_local(f)
        g.tasks[b].outputs = (f,)  # now released from node 1
        assert not g.flow_is_local(f)

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
