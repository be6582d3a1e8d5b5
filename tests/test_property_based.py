"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hicma.lowrank import compress_dense, recompress
from repro.hicma.ranks import RankModel
from repro.hicma.dag import build_tlr_cholesky_graph, expected_task_count
from repro.mpi.matching import Envelope, MatchEngine
from repro.mpi.requests import PersistentRecvRequest, RecvRequest, Request, RequestArray
from repro.mpi.world import MpiWorld
from repro.network import Fabric
from repro.runtime.node import binomial_tree, build_flow_plan
from repro.sim.core import Simulator
from repro.sim.primitives import Store, PriorityStore
from repro.units import bytes_per_s_from_gbit, gbit_per_s


class TestSimulatorProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=50))
    def test_timeouts_fire_in_sorted_order(self, delays):
        sim = Simulator()
        fired = []

        def waiter(d):
            yield sim.timeout(d)
            fired.append(d)

        for d in delays:
            sim.process(waiter(d))
        sim.run()
        assert fired == sorted(delays)
        assert sim.now == pytest.approx(max(delays))

    @given(st.lists(st.integers(), min_size=0, max_size=100))
    def test_store_is_fifo(self, items):
        sim = Simulator()
        store = Store(sim)
        for item in items:
            store.try_put(item)
        out = []
        while True:
            ok, item = store.try_get()
            if not ok:
                break
            out.append(item)
        assert out == items

    @given(
        st.lists(
            st.tuples(st.integers(-100, 100), st.integers()),
            min_size=0,
            max_size=100,
        )
    )
    def test_priority_store_orders_by_key_then_fifo(self, entries):
        sim = Simulator()
        store = PriorityStore(sim)
        for prio, payload in entries:
            store.try_put((prio, (prio, payload)))
        out = []
        while True:
            ok, item = store.try_get()
            if not ok:
                break
            out.append(item)
        keys = [k for k, _p in out]
        assert keys == sorted(keys)
        # Stability: among equal keys, insertion order is preserved.
        for key in set(keys):
            got = [e for e in out if e[0] == key]
            expect = [e for e in entries if e[0] == key]
            assert got == expect


class TestMatchingProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["post", "arrive"]),
                st.integers(0, 2),  # src
                st.integers(0, 2),  # tag
                st.booleans(),  # wildcard src (posts only)
            ),
            max_size=60,
        )
    )
    def test_conservation_and_compatibility(self, ops):
        """No message is lost or duplicated, and every match is compatible."""
        sim = Simulator()
        engine = MatchEngine()
        matches = []
        n_posts = 0
        n_arrivals = 0
        for op, src, tag, wild in ops:
            if op == "post":
                n_posts += 1
                recv = RecvRequest(sim, 0, None if wild else src, tag, 1 << 20)
                env = engine.post_recv(recv)
                if env is not None:
                    matches.append((recv, env))
            else:
                n_arrivals += 1
                env = Envelope(src=src, tag=tag, size=1, kind="eager")
                recv = engine.arrive(env)
                if recv is not None:
                    matches.append((recv, env))
        assert len(matches) + engine.posted_count == n_posts
        assert len(matches) + engine.unexpected_count == n_arrivals
        for recv, env in matches:
            assert recv.src is None or recv.src == env.src
            assert recv.tag is None or recv.tag == env.tag
        # Nothing left unmatched that *could* match.
        for env in engine.unexpected:
            for recv in engine.posted:
                assert not (
                    (recv.src is None or recv.src == env.src)
                    and (recv.tag is None or recv.tag == env.tag)
                )

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=30))
    def test_fifo_per_source_tag(self, payloads):
        """Same-(src, tag) messages match posted receives in arrival order."""
        sim = Simulator()
        engine = MatchEngine()
        for i, _ in enumerate(payloads):
            engine.arrive(Envelope(src=0, tag=7, size=1, kind="eager", payload=i))
        got = []
        for _ in payloads:
            recv = RecvRequest(sim, 0, 0, 7, 1 << 20)
            env = engine.post_recv(recv)
            assert env is not None
            got.append(env.payload)
        assert got == list(range(len(payloads)))


    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["post", "post", "arrive", "arrive", "cancel"]),
                st.one_of(st.none(), st.integers(0, 2)),  # src (None: ANY_SOURCE)
                st.one_of(st.none(), st.integers(0, 2)),  # tag (None: ANY_TAG)
                st.integers(0, 40),  # which posted receive a cancel picks
            ),
            max_size=80,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_indexed_engine_equals_linear_walk(self, ops):
        """The indexed engine returns the partner, ``walked`` count and
        audit calls of a plain linear walk, after every operation.
        ``walked`` feeds simulated time, so it must be exact."""
        sim = Simulator()
        engine = MatchEngine()
        ref = _LinearMatch()
        log = []
        engine.audit = lambda op, recv, env: log.append(_ids(op, recv, env))
        for op, src, tag, pick in ops:
            if op == "post":
                recv = RecvRequest(sim, 0, src, tag, 1 << 20)
                got, want = engine.post_recv(recv), ref.post_recv(recv)
            elif op == "arrive":
                env = Envelope(src=src or 0, tag=tag or 0, size=1, kind="eager")
                got, want = engine.arrive(env), ref.arrive(env)
            else:
                posted = ref.posted
                recv = posted[pick % len(posted)] if posted else RecvRequest(sim, 0, src, tag, 1)
                got, want = engine.cancel(recv), ref.cancel(recv)
            assert got is want
            assert engine.take_walked() == ref.take_walked()
            assert log == ref.log
            assert [id(r) for r in engine.posted] == [id(r) for r in ref.posted]
            assert [id(e) for e in engine.unexpected] == [id(e) for e in ref.unexpected]
            assert engine.posted_count == len(ref.posted)
            assert engine.unexpected_count == len(ref.unexpected)
        assert engine.max_posted == ref.max_posted
        assert engine.max_unexpected == ref.max_unexpected


def _ids(op, recv, env):
    return (op, None if recv is None else id(recv), None if env is None else id(env))


class _LinearMatch:
    """Reference matcher: the linear queue walk of a real MPI library."""

    def __init__(self):
        self.posted = []
        self.unexpected = []
        self.walked = 0
        self.max_posted = 0
        self.max_unexpected = 0
        self.log = []

    @staticmethod
    def _fits(recv, env):
        return (recv.src is None or recv.src == env.src) and (
            recv.tag is None or recv.tag == env.tag
        )

    def post_recv(self, recv):
        for i, env in enumerate(self.unexpected):
            self.walked += 1
            if self._fits(recv, env):
                del self.unexpected[i]
                self.log.append(_ids("post", recv, env))
                return env
        self.posted.append(recv)
        self.max_posted = max(self.max_posted, len(self.posted))
        self.log.append(_ids("post", recv, None))
        return None

    def arrive(self, env):
        for i, recv in enumerate(self.posted):
            self.walked += 1
            if self._fits(recv, env):
                del self.posted[i]
                self.log.append(_ids("arrive", recv, env))
                return recv
        self.unexpected.append(env)
        self.max_unexpected = max(self.max_unexpected, len(self.unexpected))
        self.log.append(_ids("arrive", None, env))
        return None

    def cancel(self, recv):
        for i, queued in enumerate(self.posted):
            if queued is recv:
                del self.posted[i]
                self.log.append(_ids("cancel", recv, None))
                return True
        return False

    def take_walked(self):
        n, self.walked = self.walked, 0
        return n


class TestRequestArrayProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["fixed", "append", "complete", "complete", "testsome",
                     "rearm", "remove", "wait"]
                ),
                st.integers(0, 40),
                st.booleans(),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_testsome_equals_scan(self, ops):
        """Testsome over a completion-tracked array reports what a scan
        of the array would, and charges for the same active count."""
        sim = Simulator()
        world = MpiWorld(sim, Fabric(sim, 2))
        rank = world.ranks[0]
        costs = world.costs
        arr = RequestArray()
        fixed, tail = [], []
        for op, k, flag in ops:
            entries = fixed + tail
            if op == "fixed":
                if k % 5 == 0:
                    req = None  # a hole
                elif flag:
                    req = PersistentRecvRequest(sim, next(world.req_ids), None, 1, 64)
                    if k % 2:
                        req._rearm()
                        if k % 4 == 3:
                            req._complete()  # matched inside its first start()
                else:
                    req = Request(sim, next(world.req_ids))
                    if k % 2:
                        req._complete()
                arr._add_fixed(req)
                fixed.append(req)
            elif op == "append":
                req = Request(sim, next(world.req_ids))
                if flag:
                    req._complete()  # e.g. an eager send, done before enrolment
                arr._append(req)
                tail.append(req)
            elif op == "complete":
                cands = [r for r in entries if r is not None and r.active and not r.done]
                if cands:
                    cands[k % len(cands)]._complete()
            elif op == "rearm":
                cands = [r for r in entries if isinstance(r, PersistentRecvRequest)
                         and (r.done or not r.active)]
                if cands:
                    cands[k % len(cands)]._rearm()
            elif op == "remove":
                if tail:
                    j = k % len(tail)
                    assert arr._pop(len(fixed) + j) is tail.pop(j)
            elif op == "wait":
                cands = [r for r in entries if r is not None and r.done]
                if cands:
                    cands[k % len(cands)]._deactivate()
            else:
                want = [i for i, r in enumerate(entries)
                        if r is not None and r.active and r.done]
                active = sum(1 for r in entries if r is not None and r.active)
                t0 = sim.now
                got = sim.run_process(rank.testsome(arr))
                assert got == want
                assert sim.now - t0 == pytest.approx(
                    costs.testsome_base + costs.testsome_per_request * active
                )
            entries = fixed + tail
            assert len(arr) == len(entries)
            assert all(a is b for a, b in zip(arr._fixed + arr._tail, entries))
            assert arr._active == sum(1 for r in entries if r is not None and r.active)


class TestLowRankProperties:
    @given(
        st.integers(4, 24),  # m
        st.integers(4, 24),  # n
        st.integers(1, 4),  # true rank
        st.integers(0, 10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_compression_error_bound(self, m, n, k, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
        tol = 1e-9
        lr = compress_dense(a, tol=tol)
        err = np.linalg.norm(lr.to_dense() - a)
        scale = np.linalg.norm(a) + 1.0
        assert err <= 1e-6 * scale
        assert lr.rank <= min(m, n, k + 1)

    @given(st.integers(2, 20), st.integers(1, 5), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_recompression_never_increases_rank_needed(self, n, k, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((n, k))
        v = rng.standard_normal((n, k))
        # Duplicate the representation: rank 2k factors of a rank-k matrix.
        lr = recompress(np.hstack([u, u]), np.hstack([v, -0.5 * v]), tol=1e-12)
        assert lr.rank <= min(k, n)
        expect = 0.5 * u @ v.T
        assert np.allclose(lr.to_dense(), expect, atol=1e-8 * (1 + abs(expect).max()))


class TestTreeProperties:
    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=64, unique=True))
    def test_binomial_tree_covers_each_node_once(self, nodes):
        tree = binomial_tree(nodes)
        seen = []

        def walk(spec):
            seen.append(spec[0])
            for child in spec[1]:
                walk(child)

        walk(tree)
        assert sorted(seen) == sorted(nodes)
        assert seen[0] == nodes[0]

    @given(st.integers(1, 256))
    def test_binomial_tree_depth_logarithmic(self, n):
        tree = binomial_tree(list(range(n)))

        def depth(spec):
            return 1 + max((depth(c) for c in spec[1]), default=0)

        assert depth(tree) <= int(np.ceil(np.log2(n))) + 1


class TestRankModelProperties:
    @given(st.integers(2, 400), st.integers(100, 10_000), st.integers(1, 200))
    @settings(max_examples=50, deadline=None)
    def test_rank_bounds_and_decay(self, nt, tile, maxrank):
        model = RankModel(nt, tile, maxrank)
        prev = None
        for d in range(1, min(nt, 20)):
            r = model.rank(0, d)
            assert 1 <= r <= maxrank
            if prev is not None:
                assert r <= prev
            prev = r

    @given(st.integers(2, 50), st.integers(100, 5000))
    @settings(max_examples=25, deadline=None)
    def test_symmetry(self, nt, tile):
        model = RankModel(nt, tile)
        for d in range(1, min(nt, 8)):
            assert model.rank(0, d) == model.rank(d, 0)


class TestDagProperties:
    @given(st.integers(1, 8), st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_cholesky_graph_valid_for_any_shape(self, nt, num_nodes):
        g = build_tlr_cholesky_graph(nt, 256, num_nodes=num_nodes)
        g.validate(num_nodes=num_nodes)
        assert g.num_tasks == expected_task_count(nt)

    @given(st.integers(2, 7))
    @settings(max_examples=10, deadline=None)
    def test_two_flow_conserves_volume(self, nt):
        g1 = build_tlr_cholesky_graph(nt, 512, num_nodes=4, two_flow=False)
        g2 = build_tlr_cholesky_graph(nt, 512, num_nodes=4, two_flow=True)
        assert g2.total_remote_bytes() == g1.total_remote_bytes()


class TestUnitsProperties:
    @given(st.floats(min_value=1e-3, max_value=1e6))
    def test_gbit_round_trip(self, gbit):
        assert gbit_per_s(bytes_per_s_from_gbit(gbit)) == pytest.approx(gbit)


@st.composite
def _plan_graphs(draw):
    """A random layered DAG whose tasks read up to six flows of any
    earlier layer, repeats allowed: consumer lists span layers and nodes
    and may name a task twice."""
    from repro.runtime import TaskGraph

    num_nodes = draw(st.integers(1, 6))
    # Signed zeros and ties pin max()'s keep-the-first-maximum rule.
    prios = st.sampled_from([0.0, -0.0, 1.0, 1.0, 2.5, -3.0])
    g = TaskGraph()
    earlier: list = []
    for width in draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)):
        new = []
        for _ in range(width):
            inputs = (
                draw(st.lists(st.sampled_from(earlier), max_size=6))
                if earlier else []
            )
            t = g.add_task(
                node=draw(st.integers(0, num_nodes - 1)), duration=1e-6,
                priority=draw(prios), inputs=inputs,
            )
            new.append(g.add_flow(t, draw(st.integers(0, 1 << 20))))
        earlier += new
    return g, num_nodes


class TestFlowPlanProperties:
    """A release plan must reproduce the per-release consumer scan it
    replaced: local consumers, multicast children, priority, size."""

    @given(_plan_graphs())
    @settings(max_examples=60, deadline=None)
    def test_plan_matches_per_release_scan(self, graph_spec):
        import math

        g, num_nodes = graph_spec
        t_node, t_prio = g._t_node, g._t_prio
        for fid in range(g.num_flows):
            consumers = g.consumers_of(fid)
            root = t_node[g.flow_producer(fid)]
            plan = build_flow_plan(g, fid, root)
            # The scan _release_flow ran on every releasing node.
            remote = sorted({t_node[tid] for tid in consumers} - {root})
            children = binomial_tree([root] + remote)[1] if remote else ()
            prio = max((t_prio[tid] for tid in consumers), default=0.0)
            for rank in range(num_nodes):
                local = [tid for tid in consumers if t_node[tid] == rank]
                assert list(plan.by_node.get(rank, ())) == local
            assert plan.children == children
            assert plan.prio == prio
            assert math.copysign(1.0, plan.prio) == math.copysign(1.0, prio)
            assert plan.size == g.flow_size(fid)
            assert plan.pending == 1 + len(remote)


class TestRuntimeExecutionProperties:
    """Random layered DAGs must complete on both backends with identical
    task counts — communication management must never change *what* runs."""

    @staticmethod
    def _random_graph(draw_spec):
        from repro.runtime import TaskGraph

        layer_sizes, placements, fan = draw_spec
        g = TaskGraph()
        prev_flows = []
        pi = 0
        for li, size in enumerate(layer_sizes):
            new_flows = []
            for i in range(size):
                inputs = []
                if prev_flows:
                    take = min(fan, len(prev_flows))
                    inputs = [prev_flows[(i + j) % len(prev_flows)] for j in range(take)]
                node = placements[pi % len(placements)]
                pi += 1
                t = g.add_task(node=node, duration=2e-6, inputs=set(inputs), kind=f"l{li}")
                new_flows.append(g.add_flow(t, 16 * 1024))
            prev_flows = new_flows
        return g

    @given(
        st.tuples(
            st.lists(st.integers(1, 4), min_size=1, max_size=4),  # layers
            st.lists(st.integers(0, 2), min_size=1, max_size=8),  # placements
            st.integers(1, 2),  # fan-in
        )
    )
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_dags_complete_on_both_backends(self, spec):
        from repro.config import scaled_platform
        from repro.runtime import ParsecContext

        counts = {}
        for backend in ("mpi", "lci"):
            g = self._random_graph(spec)
            ctx = ParsecContext(
                scaled_platform(num_nodes=3, cores_per_node=2), backend=backend
            )
            stats = ctx.run(g, until=10.0)
            counts[backend] = (stats.tasks_executed, g.num_tasks)
            assert stats.tasks_executed == g.num_tasks
        assert counts["mpi"] == counts["lci"]
