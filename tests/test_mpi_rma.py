"""Tests for MPI RMA dynamic windows and the RMA put mode (§4.2.2's
unexplored alternative, implemented here as an ablation)."""

import itertools

import pytest

from repro.config import scaled_platform
from repro.errors import MpiError, RuntimeBackendError
from repro.mpi import MpiWorld
from repro.network import Fabric
from repro.runtime import ParsecContext, TaskGraph
from repro.sim.core import Simulator
from repro.units import KiB, MiB


def make_world(n=2):
    sim = Simulator()
    fabric = Fabric(sim, n)
    return sim, MpiWorld(sim, fabric)


class TestRmaPrimitives:
    def test_rma_put_completes_without_target_cpu(self):
        sim, world = make_world()
        r0, r1 = world.ranks

        def origin():
            yield from r0.win_attach(1 * MiB)  # symmetric usage
            req = yield from r0.rma_put(1, 1 * MiB, payload="remote-write")
            assert not req.done
            yield from r0.flush(req)
            return (req.done, sim.now)

        done, t = sim.run_process(origin())
        assert done
        # Transfer at line rate plus latencies; target never called MPI.
        assert t > 1 * MiB / world.fabric.cfg.bandwidth
        assert r1.pending_incoming == 0  # nothing for the target's software

    def test_attach_detach_charge_time(self):
        sim, world = make_world()
        r0 = world.ranks[0]

        def proc():
            yield from r0.win_attach(4 * KiB)
            yield from r0.win_detach()
            return sim.now

        t = sim.run_process(proc())
        assert t == pytest.approx(
            world.costs.win_attach + world.costs.win_detach
        )

    def test_invalid_target_rejected(self):
        sim, world = make_world()

        def proc():
            yield from world.ranks[0].rma_put(7, 64)

        with pytest.raises(MpiError, match="RMA target"):
            sim.run_process(proc())

    def test_flush_returns_immediately_if_done(self):
        sim, world = make_world()
        r0 = world.ranks[0]

        def proc():
            req = yield from r0.rma_put(1, 4 * KiB)
            yield sim.timeout(1e-3)  # let it complete on its own
            t0 = sim.now
            yield from r0.flush(req)
            return sim.now - t0

        dt = sim.run_process(proc())
        assert dt == pytest.approx(world.costs.rma_flush)


class TestRmaPutMode:
    def graph(self, n=12, size=256 * KiB):
        g = TaskGraph()
        for _ in range(n):
            t = g.add_task(node=0, duration=2e-6)
            f = g.add_flow(t, size)
            g.add_task(node=1, duration=2e-6, inputs=[f])
        return g

    def test_rma_mode_completes_workload(self):
        ctx = ParsecContext(
            scaled_platform(num_nodes=2, cores_per_node=4),
            backend="mpi",
            mpi_put_mode="rma",
        )
        g = self.graph()
        stats = ctx.run(g, until=10.0)
        assert stats.tasks_executed == g.num_tasks

    def test_rma_mode_slower_than_twosided(self):
        """The paper's rationale for not using MPI RMA: dynamic-window
        attach/detach plus the extra notification round cost more than the
        emulated two-sided put."""
        lat = {}
        for mode in ("twosided", "rma"):
            ctx = ParsecContext(
                scaled_platform(num_nodes=2, cores_per_node=4),
                backend="mpi",
                mpi_put_mode=mode,
            )
            lat[mode] = ctx.run(self.graph(), until=10.0).mean_flow_latency
        assert lat["rma"] > lat["twosided"]

    def test_unknown_put_mode_rejected(self):
        from repro.runtime.mpi_backend import MpiBackend

        sim, world = make_world()
        with pytest.raises(RuntimeBackendError, match="put mode"):
            MpiBackend(sim, world.ranks[0], itertools.count(1000), put_mode="windows95")

    def test_multicast_works_under_rma(self):
        g = TaskGraph()
        t = g.add_task(node=0, duration=1e-6)
        f = g.add_flow(t, 128 * KiB)
        for node in range(4):
            g.add_task(node=node, duration=1e-6, inputs=[f])
        ctx = ParsecContext(
            scaled_platform(num_nodes=4, cores_per_node=4),
            backend="mpi",
            mpi_put_mode="rma",
        )
        stats = ctx.run(g, until=10.0)
        assert stats.tasks_executed == 5
