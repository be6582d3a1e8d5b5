"""Sender-side completion timing on every delivery path.

A sender learns that its data has gone from a completion that follows the
delivery the receiver accepted: the LCI FIN of a direct (RDMA) send or put,
the MPI rendezvous ``SendRequest``, the MPI RMA flush.  These tests pin the
simulated times of those completions for loopback sends (a node sending to
itself, which no workload does) and check the ordering rule under a fault
plan that drops data messages.
"""

import pytest

from repro.config import scaled_platform
from repro.faults import fault_plan
from repro.lci import LciWorld
from repro.lci.device import LciDevice
from repro.mpi import MpiWorld
from repro.mpi.world import MpiRank
from repro.network import Fabric
from repro.runtime import ParsecContext
from repro.sim.core import PARK, Simulator
from repro.units import KiB
from repro.workloads import get_workload


@pytest.fixture
def hw_log(monkeypatch):
    """Log every LCI hardware completion as ``(node, kind, time)``."""
    log = []
    push = LciDevice._push_hw

    def logged(self, record):
        log.append((self.node, record[0], self.sim.now))
        push(self, record)

    monkeypatch.setattr(LciDevice, "_push_hw", logged)
    return log


@pytest.fixture
def mpi_log(monkeypatch):
    """Log every MPI send/RMA request completion as ``(kind, time)``."""
    log = []
    send, rma = MpiRank._complete_send, MpiRank._complete_rma

    def logged_send(self, sreq):
        log.append(("send", self.sim.now))
        send(self, sreq)

    def logged_rma(self, req):
        log.append(("rma", self.sim.now))
        rma(self, req)

    monkeypatch.setattr(MpiRank, "_complete_send", logged_send)
    monkeypatch.setattr(MpiRank, "_complete_rma", logged_rma)
    return log


def _lci_loopback(main_body):
    """Run ``main_body(dev, done)`` on node 0 of a 2-node LCI world with a
    progress thread driving node 0 until ``done`` holds two entries."""
    sim = Simulator()
    world = LciWorld(sim, Fabric(sim, 2))
    dev = world.devices[0]
    done = []

    def progress(me):
        while len(done) < 2:
            worked = yield from dev.progress()
            if not worked and dev.park(me[0]):
                yield PARK

    me = []
    me.append(sim.process(progress(me)))
    sim.process(main_body(dev, done))
    sim.run()
    return done


class TestLoopback:
    def test_lci_sendd_recvd(self, hw_log):
        def main(dev, done):
            yield from dev.recvd(
                0, 5, 64 * KiB, comp=lambda rec: done.append(("recvd", dev.sim.now))
            )
            yield from dev.sendd(
                0, 5, 64 * KiB, data="x",
                comp=lambda rec: done.append(("sendd", dev.sim.now)),
            )

        done = _lci_loopback(main)
        assert hw_log == [(0, "rcomp", 3.3e-06), (0, "fin", 3.7e-06)]
        assert done == [("recvd", 3.5000000000000004e-06), ("sendd", 3.9e-06)]

    def test_lci_putd(self, hw_log):
        def main(dev, done):
            dev.put_handler = lambda rec: done.append(("put", dev.sim.now))
            yield from dev.putd(
                0, 9, 64 * KiB, data="y",
                comp=lambda rec: done.append(("putd", dev.sim.now)),
            )

        done = _lci_loopback(main)
        assert hw_log == [(0, "pcomp", 1.2499999999999999e-06), (0, "fin", 1.6499999999999999e-06)]
        assert done == [("put", 1.4499999999999999e-06), ("putd", 1.8499999999999999e-06)]

    def test_mpi_rendezvous_isend(self, mpi_log):
        sim = Simulator()
        world = MpiWorld(sim, Fabric(sim, 2))
        r0 = world.ranks[0]
        size = world.costs.rendezvous_threshold + 1

        def main():
            rreq = yield from r0.irecv(0, 3, size)
            sreq = yield from r0.isend(0, 3, size, payload="z")
            assert sreq.protocol == "rndv"
            yield from r0.wait(rreq)
            t_recv = sim.now
            yield from r0.wait(sreq)
            return t_recv, sim.now

        assert sim.run_process(main()) == (1.2e-05, 1.2e-05)
        assert mpi_log == [("send", 1.1e-05)]

    def test_mpi_rma_put_flush(self, mpi_log):
        sim = Simulator()
        world = MpiWorld(sim, Fabric(sim, 2))
        r0 = world.ranks[0]

        def main():
            req = yield from r0.rma_put(0, 64 * KiB, payload="w")
            yield from r0.flush(req)
            return sim.now

        assert sim.run_process(main()) == 1.6e-06
        assert mpi_log == [("rma", 1.4e-06)]


class TestFaultMode:
    def test_mpi_rendezvous_send_completes_after_its_data_lands(self, monkeypatch):
        """Under a drop plan no rendezvous ``SendRequest`` completes before
        the receiver has accepted its data."""
        sreq_of: dict[int, int] = {}  # rreq id -> sreq id, from the CTS
        landed: set[int] = set()
        early: list[int] = []
        on_cts, on_wire = MpiRank._on_cts, MpiRank._on_wire
        complete = MpiRank._complete_send

        def logged_cts(self, p):
            sreq_of[p["rreq"]] = p["sreq"]
            return on_cts(self, p)

        def logged_wire(self, msg):
            if msg.payload["kind"] == "rdata":
                landed.add(sreq_of[msg.payload["rreq"]])
            on_wire(self, msg)

        def logged_complete(self, sreq):
            if sreq.req_id not in landed:
                early.append(sreq.req_id)
            complete(self, sreq)

        monkeypatch.setattr(MpiRank, "_on_cts", logged_cts)
        monkeypatch.setattr(MpiRank, "_on_wire", logged_wire)
        monkeypatch.setattr(MpiRank, "_complete_send", logged_complete)
        # The `python -m repro chaos --plan drop --workload hicma
        # --backend mpi` run.
        platform = scaled_platform(num_nodes=2, cores_per_node=4)
        spec = get_workload("hicma")
        params = dict(
            spec.explore_params, matrix_size=7200, tile_size=1200,
            num_nodes=2, seed=0,
        )
        graph = spec.build_graph(spec.build_config(**params), platform)
        ctx = ParsecContext(
            platform, backend="mpi", seed=0, faults=fault_plan("drop")
        )
        ctx.run(graph, until=36_000.0)
        assert landed
        assert early == []
