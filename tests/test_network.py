"""Unit tests for the network substrate (topology, NIC, fabric, NetPIPE)."""

import pytest

from repro.config import NetworkConfig
from repro.errors import NetworkError
from repro.network import Fabric, FatTreeTopology, MessageClass, NicState, WireMessage
from repro.network.netpipe import netpipe_bandwidth_curve, netpipe_rtt
from repro.sim.core import Simulator
from repro.units import KiB, MiB, US, gbit_per_s


class TestTopology:
    def test_loopback_zero_hops(self):
        topo = FatTreeTopology(32)
        assert topo.hops(3, 3) == 0

    def test_same_leaf_two_hops(self):
        topo = FatTreeTopology(32, nodes_per_leaf=16)
        assert topo.hops(0, 15) == 2

    def test_cross_leaf_four_hops(self):
        topo = FatTreeTopology(32, nodes_per_leaf=16, levels=2)
        assert topo.hops(0, 16) == 4

    def test_deeper_tree_adds_hops(self):
        topo = FatTreeTopology(64, nodes_per_leaf=16, levels=3)
        assert topo.hops(0, 63) == 6

    def test_symmetry(self):
        topo = FatTreeTopology(64, nodes_per_leaf=8)
        for a, b in [(0, 7), (0, 8), (5, 60)]:
            assert topo.hops(a, b) == topo.hops(b, a)

    def test_out_of_range_rejected(self):
        topo = FatTreeTopology(4)
        with pytest.raises(NetworkError):
            topo.hops(0, 4)

    def test_invalid_config_rejected(self):
        with pytest.raises(NetworkError):
            FatTreeTopology(0)
        with pytest.raises(NetworkError):
            FatTreeTopology(4, nodes_per_leaf=0)
        with pytest.raises(NetworkError):
            FatTreeTopology(4, levels=0)


class TestNicState:
    def setup_method(self):
        self.cfg = NetworkConfig()
        self.nic = NicState(self.cfg)

    def test_serialization_is_size_over_bandwidth(self):
        size = 1 * MiB
        assert self.nic.serialization(size) == pytest.approx(size / self.cfg.bandwidth)

    def test_tiny_message_pays_gap(self):
        assert self.nic.serialization(8) == pytest.approx(self.cfg.message_gap)

    def test_data_messages_serialize_fifo(self):
        size = 1 * MiB
        ser = self.nic.serialization(size)
        d1 = self.nic.inject(0.0, size, MessageClass.DATA)
        d2 = self.nic.inject(0.0, size, MessageClass.DATA)
        assert d1 == pytest.approx(ser)
        assert d2 == pytest.approx(2 * ser)

    def test_control_bypasses_inflight_data(self):
        big = 8 * MiB
        self.nic.inject(0.0, big, MessageClass.DATA)
        ctrl_depart = self.nic.inject(0.0, 256, MessageClass.CONTROL)
        # Control leaves after its own serialization, not after the data.
        assert ctrl_depart < 2 * US
        # ...and the data channel got pushed back by the stolen bandwidth.
        assert self.nic.tx_data_busy > self.nic.serialization(big)

    def test_rx_single_stream_not_delayed(self):
        size = 1 * MiB
        ser = self.nic.serialization(size)
        arrival = 5 * ser
        deliver = self.nic.eject(0.0, arrival, size, MessageClass.DATA)
        assert deliver == pytest.approx(arrival)

    def test_rx_incast_queues(self):
        size = 1 * MiB
        ser = self.nic.serialization(size)
        arrival = 2 * ser
        d1 = self.nic.eject(0.0, arrival, size, MessageClass.DATA)
        d2 = self.nic.eject(0.0, arrival, size, MessageClass.DATA)
        assert d1 == pytest.approx(arrival)
        assert d2 == pytest.approx(arrival + ser)

    def test_counters(self):
        self.nic.inject(0.0, 100, MessageClass.DATA)
        self.nic.eject(0.0, 1.0, 200, MessageClass.DATA)
        assert (self.nic.tx_bytes, self.nic.rx_bytes) == (100, 200)
        assert (self.nic.tx_msgs, self.nic.rx_msgs) == (1, 1)


class TestFabric:
    def test_delivery_invokes_handler_with_latency(self):
        sim = Simulator()
        fabric = Fabric(sim, 2)
        seen = []
        fabric.register_handler(1, "t", lambda m: seen.append((sim.now, m.msg_id)))
        msg = WireMessage(src=0, dst=1, size=64, msg_class=MessageClass.CONTROL, channel="t")
        fabric.send(msg)
        sim.run()
        assert len(seen) == 1
        t, _ = seen[0]
        # At least base latency, well under a millisecond.
        assert fabric.base_latency(0, 1) <= t < 1e-3

    def test_loopback_skips_wire(self):
        sim = Simulator()
        fabric = Fabric(sim, 2)
        seen = []
        fabric.register_handler(0, "t", lambda m: seen.append(sim.now))
        fabric.send(WireMessage(src=0, dst=0, size=1 * MiB, msg_class=MessageClass.DATA, channel="t"))
        sim.run()
        assert seen == [pytest.approx(Fabric.LOOPBACK_LATENCY)]
        assert fabric.nics[0].tx_bytes == 0

    def test_unregistered_handler_rejected(self):
        sim = Simulator()
        fabric = Fabric(sim, 2)
        msg = WireMessage(src=0, dst=1, size=1, msg_class=MessageClass.CONTROL, channel="x")
        with pytest.raises(NetworkError):
            fabric.send(msg)

    def test_duplicate_handler_rejected(self):
        sim = Simulator()
        fabric = Fabric(sim, 2)
        fabric.register_handler(0, "t", lambda m: None)
        with pytest.raises(NetworkError):
            fabric.register_handler(0, "t", lambda m: None)

    def test_large_transfer_time_close_to_line_rate(self):
        sim = Simulator()
        cfg = NetworkConfig()
        fabric = Fabric(sim, 2, cfg)
        done = []
        fabric.register_handler(1, "t", lambda m: done.append(sim.now))
        size = 8 * MiB
        fabric.send(WireMessage(src=0, dst=1, size=size, msg_class=MessageClass.DATA, channel="t"))
        sim.run()
        expect = size / cfg.bandwidth + fabric.base_latency(0, 1)
        assert done[0] == pytest.approx(expect, rel=1e-6)

    def test_in_order_delivery_same_pair_same_class(self):
        sim = Simulator()
        fabric = Fabric(sim, 2)
        order = []
        fabric.register_handler(1, "t", lambda m: order.append(m.payload))
        for i in range(10):
            fabric.send(
                WireMessage(src=0, dst=1, size=4 * KiB, msg_class=MessageClass.DATA, channel="t", payload=i)
            )
        sim.run()
        assert order == list(range(10))

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            WireMessage(src=0, dst=1, size=-1, msg_class=MessageClass.DATA)

    def test_enable_message_log_warns_at_caller(self):
        """The deprecation shim must blame the *caller's* line (stacklevel=2),
        not fabric.py, or every report points at the shim itself."""
        import warnings

        sim = Simulator()
        fabric = Fabric(sim, 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            log = fabric.enable_message_log()
        assert log == []
        deps = [w for w in caught if issubclass(w.category, DeprecationWarning)]
        assert len(deps) == 1
        assert deps[0].filename == __file__

    def test_total_bytes(self):
        sim = Simulator()
        fabric = Fabric(sim, 3)
        fabric.register_handler(1, "t", lambda m: None)
        fabric.send(WireMessage(src=0, dst=1, size=100, msg_class=MessageClass.DATA, channel="t"))
        fabric.send(WireMessage(src=2, dst=1, size=50, msg_class=MessageClass.DATA, channel="t"))
        sim.run()
        assert fabric.total_bytes() == 150


class TestNicTieBreak:
    @staticmethod
    def _deliveries(send_order):
        """Send two same-timestamp 4 KiB messages into node 2's NIC from
        ranks 0 and 1 (in ``send_order``) inside one epoch; return the
        per-source delivery times."""
        sim = Simulator()
        fabric = Fabric(sim, 4)
        fabric.register_handler(2, "t", lambda msg: None)
        sent = {}

        def send_all():
            for src in send_order:
                sent[src] = WireMessage(
                    src=src, dst=2, size=4 * KiB,
                    msg_class=MessageClass.CONTROL, channel="t",
                )
                fabric.send(sent[src])

        sim.call_soon(send_all)
        sim.run()
        assert sent[0].inject_time == sent[1].inject_time  # a genuine tie
        return {src: msg.deliver_time for src, msg in sent.items()}

    def test_equal_timestamp_ejection_order_is_canonical(self):
        # Destination-NIC ejection is order-sensitive (receiver
        # contention); the canonical (inject, src, seq) order must make
        # the outcome independent of which source's send() ran first.
        first = self._deliveries([0, 1])
        assert first[0] != first[1]  # the NIC really serialized them
        assert first == self._deliveries([1, 0])


class TestNetpipe:
    def test_rtt_small_message_is_microseconds(self):
        rtt = netpipe_rtt(8)
        assert 1 * US < rtt < 10 * US

    def test_bandwidth_monotone_in_size(self):
        curve = netpipe_bandwidth_curve([4 * KiB, 64 * KiB, 1 * MiB, 8 * MiB])
        bws = [bw for _s, bw in curve]
        assert bws == sorted(bws)

    def test_large_messages_near_line_rate(self):
        cfg = NetworkConfig()
        ((_, bw),) = netpipe_bandwidth_curve([8 * MiB], cfg)
        assert gbit_per_s(bw) > 0.9 * gbit_per_s(cfg.bandwidth)

    def test_small_messages_latency_bound(self):
        ((_, bw),) = netpipe_bandwidth_curve([64])
        # 64 B over ~1.5 µs one-way ≈ tens of MB/s, far from line rate.
        assert gbit_per_s(bw) < 1.0
