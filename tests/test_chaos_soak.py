"""End-to-end chaos soak: both backends survive a mixed fault plan with
correct numerics and zero leaked protocol state at shutdown."""

import dataclasses

import pytest

from repro.bench.chaos import ChaosConfig, _arrivals, _one_run, run_chaos
from repro.faults import fault_plan

# The soak matrix is small, so crank the loss rates well above the stock
# "chaos" plan to guarantee every injector actually fires.
PLAN = dataclasses.replace(fault_plan("chaos"), drop_rate=0.08,
                           dup_rate=0.05, corrupt_rate=0.05)
CFG = ChaosConfig(plan_name="chaos", plan=PLAN, num_nodes=2, seed=1,
                  params={"matrix_size": 4800, "tile_size": 1200})


def assert_no_leaks(ctx, backend):
    rel = ctx.fabric._rel
    assert rel is not None and rel.inflight_count == 0
    if backend == "lci":
        for dev in ctx.lci_world.devices:
            assert dev.tx_packets_free == dev.costs.packet_pool_size
            assert dev.rx_packets_free == dev.costs.packet_pool_size
            assert dev.send_slots_free == dev.costs.direct_slots
            assert dev.recv_slots_free == dev.costs.direct_slots
            assert not dev._send_ops and not dev._recv_ops
            assert not dev._rx_am and not dev._rx_proto
    else:
        for rank in ctx.mpi_world.ranks:
            assert not rank._sends and not rank._rndv_recvs


@pytest.mark.parametrize("backend", ["mpi", "lci"])
class TestChaosSoak:
    def test_mixed_plan_completes_with_correct_numerics(self, backend):
        ref_ctx, ref_stats = _one_run(CFG, backend, None)
        ctx, stats = _one_run(CFG, backend, CFG.plan)
        assert stats.tasks_executed == ref_stats.tasks_executed
        # Every flow that arrived in the clean run also arrived under chaos.
        assert _arrivals(ref_ctx) <= _arrivals(ctx)
        assert_no_leaks(ctx, backend)
        # Faults were actually exercised, and faults cost time, never help.
        totals = ctx.obs.counter_totals()
        injected = sum(v for k, v in totals.items()
                       if k.startswith("fault.injected."))
        assert injected > 0
        assert stats.makespan >= ref_stats.makespan

    def test_run_chaos_reports_recovery(self, backend):
        res = run_chaos(backend, CFG)
        assert res.numerics_ok
        assert res.total_injected > 0
        assert res.recovered.get("drop", 0) > 0
        assert "injected" in res.summary()


#: The CLI's default chaos pair (``python -m repro chaos``: hicma N=7200,
#: tile 1200, 2 nodes, seed 0): tasks, makespan and injections per
#: backend, which the registry's hicma graph builder must reproduce.
#: ``dup`` counts duplicated data copies only (ACK/NACK probes are never
#: duplicated).
DEFAULT_PAIR = {
    "mpi": (56, 0.002264557792789068,
            {"corrupt": 4, "delay": 11, "drop": 2, "dup": 0, "flap": 3,
             "pool_spike": 0, "straggler": 1}),
    "lci": (56, 0.0019332319124704535,
            {"corrupt": 4, "delay": 11, "drop": 2, "dup": 1, "flap": 0,
             "pool_spike": 1, "straggler": 1}),
}


@pytest.mark.parametrize("backend", ["mpi", "lci"])
def test_default_chaos_pair_pinned(backend):
    cfg = ChaosConfig(plan_name="chaos", plan=fault_plan("chaos"),
                      params={"matrix_size": 7200, "tile_size": 1200})
    res = run_chaos(backend, cfg)
    assert (res.stats.tasks_executed, res.stats.makespan,
            res.injected) == DEFAULT_PAIR[backend]
