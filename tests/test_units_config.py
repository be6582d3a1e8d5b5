"""Tests for units helpers, configuration, and the dense-Cholesky substrate."""

import dataclasses
import os

import pytest

from repro.config import (
    ComputeConfig,
    FaultConfig,
    LciCosts,
    MpiCosts,
    NetworkConfig,
    PlatformConfig,
    RuntimeCosts,
    expanse_platform,
    paper_scale_enabled,
    scaled_platform,
)
from repro.errors import ConfigError
from repro.hicma.dag import build_tlr_cholesky_graph, expected_task_count
from repro.units import (
    GiB,
    KiB,
    MiB,
    bytes_per_s_from_gbit,
    fmt_rate,
    fmt_size,
    fmt_time,
    gbit_per_s,
)


class TestUnits:
    def test_binary_sizes(self):
        assert KiB == 1024 and MiB == 1024**2 and GiB == 1024**3

    def test_gbit_conversion(self):
        assert gbit_per_s(12.5e9) == pytest.approx(100.0)
        assert bytes_per_s_from_gbit(100.0) == pytest.approx(12.5e9)

    @pytest.mark.parametrize(
        "nbytes,expect",
        [(512, "512 B"), (4 * KiB, "4 KiB"), (3 * MiB, "3 MiB"), (2 * GiB, "2 GiB")],
    )
    def test_fmt_size(self, nbytes, expect):
        assert fmt_size(nbytes) == expect

    @pytest.mark.parametrize(
        "t,needle", [(0.0, "0 s"), (5e-6, "us"), (3e-3, "ms"), (2.5, "s")]
    )
    def test_fmt_time(self, t, needle):
        assert needle in fmt_time(t)

    def test_fmt_rate(self):
        assert fmt_rate(12.5e9) == "100.0 Gbit/s"


class TestPlatformConfig:
    def test_expanse_matches_table1(self):
        p = expanse_platform()
        assert p.cores_per_node == 128
        assert gbit_per_s(p.network.bandwidth) == pytest.approx(100.0)

    def test_workers_reserved_for_comm_threads(self):
        p = expanse_platform()
        assert p.workers_for("mpi") == 127
        assert p.workers_for("lci") == 126
        assert p.workers_for("lci", multinode=False) == 128

    def test_scaled_platform_preserves_node_compute(self):
        full = expanse_platform()
        scaled = scaled_platform(cores_per_node=8)
        node_flops_full = full.cores_per_node * full.compute.flops_per_core
        node_flops_scaled = scaled.cores_per_node * scaled.compute.flops_per_core
        assert node_flops_scaled == pytest.approx(node_flops_full)

    def test_with_nodes(self):
        p = expanse_platform(2).with_nodes(16)
        assert p.num_nodes == 16
        assert p.cores_per_node == 128

    def test_network_latency_grows_with_hops(self):
        net = NetworkConfig()
        assert net.latency(4) > net.latency(2) > net.latency(0)

    def test_cost_dataclasses_frozen(self):
        for costs in (MpiCosts(), LciCosts(), RuntimeCosts(), ComputeConfig()):
            with pytest.raises(dataclasses.FrozenInstanceError):
                costs.__class__.__dict__  # touch
                object.__setattr__  # noqa
                setattr(costs, dataclasses.fields(costs)[0].name, 0)

    def test_calibration_documented_ratio(self):
        """The MPI:LCI per-operation cost ratios must keep the granularity
        ratio near the paper's 2.83x (guard against constant drift)."""
        mpi, lci = MpiCosts(), LciCosts()
        # Aggregate "control path" costs used per fragment (see config.py).
        mpi_path = (
            2 * mpi.eager_send + 2 * mpi.post_request + 3 * mpi.match
            + 2 * mpi.testsome_base + mpi.restart_persistent
        )
        lci_path = (
            2 * lci.buffered_send + lci.direct_post + 4 * lci.cq_pop
            + 4 * lci.completion_drain + 2 * lci.handler_dispatch
        )
        assert 2.0 <= mpi_path / lci_path <= 4.0

    def test_paper_scale_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        assert paper_scale_enabled() is False
        monkeypatch.setenv("REPRO_PAPER_SCALE", "1")
        assert paper_scale_enabled() is True
        monkeypatch.setenv("REPRO_PAPER_SCALE", "0")
        assert paper_scale_enabled() is False


class TestConfigValidation:
    """__post_init__ must reject impossible calibration values with a
    ConfigError naming the offending field."""

    def test_network_negative_latency(self):
        with pytest.raises(ConfigError, match="NetworkConfig.hop_latency"):
            NetworkConfig(hop_latency=-1e-6)
        with pytest.raises(ConfigError, match="NetworkConfig.wire_latency"):
            NetworkConfig(wire_latency=-1.0)

    def test_network_zero_bandwidth(self):
        with pytest.raises(ConfigError, match="NetworkConfig.bandwidth"):
            NetworkConfig(bandwidth=0)

    def test_network_bad_topology(self):
        with pytest.raises(ConfigError, match="NetworkConfig.fat_tree_levels"):
            NetworkConfig(fat_tree_levels=0)
        with pytest.raises(ConfigError, match="NetworkConfig.nodes_per_leaf"):
            NetworkConfig(nodes_per_leaf=0)

    def test_mpi_negative_cost(self):
        with pytest.raises(ConfigError, match="MpiCosts.eager_send"):
            MpiCosts(eager_send=-1e-9)

    def test_lci_negative_cost(self):
        with pytest.raises(ConfigError, match="LciCosts.buffered_send"):
            LciCosts(buffered_send=-1e-9)

    def test_lci_zero_packet_pool(self):
        with pytest.raises(ConfigError, match="LciCosts.packet_pool_size"):
            LciCosts(packet_pool_size=0)
        with pytest.raises(ConfigError, match="LciCosts.direct_slots"):
            LciCosts(direct_slots=0)

    def test_lci_buffered_below_immediate(self):
        with pytest.raises(ConfigError, match="buffered_max"):
            LciCosts(immediate_max=1024, buffered_max=512)

    def test_fault_rates_must_be_probabilities(self):
        with pytest.raises(ConfigError, match="FaultConfig.drop_rate"):
            FaultConfig(drop_rate=1.5)
        with pytest.raises(ConfigError, match="FaultConfig.corrupt_rate"):
            FaultConfig(corrupt_rate=-0.1)

    def test_fault_misc_bounds(self):
        with pytest.raises(ConfigError, match="FaultConfig.rto"):
            FaultConfig(rto=0.0)
        with pytest.raises(ConfigError, match="rto_max"):
            FaultConfig(rto=1e-3, rto_max=1e-4)
        with pytest.raises(ConfigError, match="straggler_factor"):
            FaultConfig(straggler_factor=0.5)
        with pytest.raises(ConfigError, match="straggler_nodes"):
            FaultConfig(straggler_nodes=(-1,))

    def test_valid_configs_still_construct(self):
        # Constructions the test-suite and calibration actually use.
        NetworkConfig()
        MpiCosts()
        LciCosts(packet_pool_size=1)
        LciCosts(direct_slots=1)
        LciCosts(packet_pool_size=2, buffered_send=1e-9, copy_per_byte=0.0)
        FaultConfig()
        FaultConfig(enabled=False)


class TestDenseCholeskyGraph:
    """The dense (DPLASMA) Cholesky: the TLR builder with `band=nt`."""

    def test_task_count(self):
        g = build_tlr_cholesky_graph(6, 512, num_nodes=2, band=6)
        assert g.num_tasks == expected_task_count(6)

    def test_validates(self):
        g = build_tlr_cholesky_graph(5, 512, num_nodes=4, band=5)
        g.validate(num_nodes=4)

    def test_flows_are_dense_sized(self):
        b = 512
        g = build_tlr_cholesky_graph(4, b, num_nodes=2, band=4)
        for fid in range(g.num_flows):
            assert g.flow_size(fid) == b * b * 8

    def test_more_traffic_than_tlr(self):
        dense = build_tlr_cholesky_graph(8, 1200, num_nodes=4, band=8)
        tlr = build_tlr_cholesky_graph(8, 1200, num_nodes=4)
        assert dense.total_remote_bytes() > 5 * tlr.total_remote_bytes()

    def test_runs_on_runtime(self):
        from repro.config import scaled_platform
        from repro.runtime import ParsecContext

        g = build_tlr_cholesky_graph(5, 1200, num_nodes=2, band=5)
        ctx = ParsecContext(scaled_platform(num_nodes=2, cores_per_node=4))
        stats = ctx.run(g, until=60.0)
        assert stats.tasks_executed == g.num_tasks
