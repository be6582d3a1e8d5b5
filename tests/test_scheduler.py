"""Tests for the central priority scheduler."""

from repro.config import scaled_platform
from repro.runtime import ParsecContext, TaskGraph
from repro.runtime.scheduler import CentralScheduler
from repro.sim.core import Simulator
from repro.units import KiB


class TestCentralScheduler:
    def test_priority_order(self):
        sim = Simulator()
        sched = CentralScheduler(sim)
        sched.push(-5.0, "high")
        sched.push(-1.0, "low")

        def worker():
            a = yield from sched.pop()
            b = yield from sched.pop()
            return (a, b)

        assert sim.run_process(worker()) == ("high", "low")


class TestSchedulerIntegration:
    def graph(self):
        g = TaskGraph()
        for _ in range(40):
            t = g.add_task(node=0, duration=5e-6)
            f = g.add_flow(t, 8 * KiB)
            g.add_task(node=1, duration=5e-6, inputs=[f])
        return g

    def test_completes_workload(self):
        ctx = ParsecContext(
            scaled_platform(num_nodes=2, cores_per_node=4),
            backend="lci",
        )
        g = self.graph()
        stats = ctx.run(g, until=10.0)
        assert stats.tasks_executed == g.num_tasks
