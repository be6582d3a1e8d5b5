"""Tests for the repro.workloads plugin registry and scenario suite.

Covers the registration contract (duplicate/invalid names, schema
completeness), parameter validation through ``build_config``, builtin
bit-identity (the registry path must produce exactly what the historical
direct-driver path produced, on both simulation kernels), the new DAG
generators' structure and determinism, end-to-end execution of the
catalog scenarios on both backends, and a dummy third-party plugin driven
through the sweep engine and the schedule explorer.
"""

import dataclasses

import pytest

import repro
from repro.codec import DictCodec
from repro.config import SweepConfig, scaled_platform
from repro.errors import ConfigError, ExploreError, SweepError
from repro.workloads import (
    WorkloadSpec,
    freeze_graph_result,
    get_workload,
    register,
    run_graph_benchmark,
    unregister,
    workload_names,
    workload_specs,
)
from repro.workloads.generators import (
    TASKBENCH_PATTERNS,
    fork_join,
    ring_shift,
    stencil2d,
    taskbench_graph,
    tree_collective,
)

KiB = 1024
MiB = 1024 * 1024

#: Everything the catalog modules register out of the box.
EXPECTED_BUILTINS = {
    "pingpong", "overlap", "hicma",
    "chain", "fanout", "halo", "randomdag", "alltoall",
    "stencil", "tree", "ring", "forkjoin", "taskbench",
}


class TestRegistry:
    def test_bundled_workloads_registered(self):
        assert EXPECTED_BUILTINS <= set(workload_names())

    def test_specs_sorted_and_named(self):
        specs = workload_specs()
        assert [s.name for s in specs] == sorted(s.name for s in specs)

    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            register(WorkloadSpec(name="pingpong", description="dup"))

    @pytest.mark.parametrize("name", ["", "bad name", "semi;colon", "a/b"])
    def test_invalid_name_rejected(self, name):
        with pytest.raises(ConfigError, match="invalid workload name"):
            register(WorkloadSpec(name=name, description="x"))

    def test_non_spec_rejected(self):
        with pytest.raises(ConfigError, match="expected a WorkloadSpec"):
            register(object())

    def test_unknown_workload_lists_known(self):
        with pytest.raises(ConfigError, match="pingpong"):
            get_workload("no_such_workload")

    def test_every_spec_is_self_documenting(self):
        """The catalog contract: every spec carries complete metadata."""
        for spec in workload_specs():
            assert spec.description
            assert spec.example.startswith(f"python -m repro run {spec.name}")
            params = spec.params()  # raises on any undocumented field
            names = {p.name for p in params}
            assert {"num_nodes", "seed"} <= names
            assert all(p.doc for p in params)

    def test_undocumented_field_raises(self):
        @dataclasses.dataclass(frozen=True)
        class Cfg:
            knob: int = 1

        spec = WorkloadSpec(name="x", description="x", config=Cfg,
                            param_docs=())
        with pytest.raises(ConfigError, match="no param_docs entry"):
            spec.params()

    def test_param_docs_for_unknown_field_raises(self):
        @dataclasses.dataclass(frozen=True)
        class Cfg:
            knob: int = 1

        spec = WorkloadSpec(name="x", description="x", config=Cfg,
                            param_docs=(("knob", "k"), ("ghost", "g")))
        with pytest.raises(ConfigError, match="unknown field"):
            spec.params()

    def test_entry_point_discovery_isolates_broken_plugins(self, recwarn):
        from repro.workloads import registry as reg

        good = WorkloadSpec(name="ep_good", description="entry-point spec")

        class _EP:
            def __init__(self, name, obj=None, broken=False):
                self.name = name
                self._obj, self._broken = obj, broken

            def load(self):
                if self._broken:
                    raise RuntimeError("plugin import exploded")
                return self._obj

        import importlib.metadata as ilm

        orig = ilm.entry_points
        try:
            ilm.entry_points = lambda group=None: [
                _EP("good", good), _EP("bad", broken=True),
            ]
            reg._load_entry_points()
        finally:
            ilm.entry_points = orig
        try:
            assert get_workload("ep_good") is good
            assert any("bad" in str(w.message) for w in recwarn.list)
        finally:
            unregister("ep_good")


class TestParamValidation:
    def test_unknown_parameter_names_valid_set(self):
        with pytest.raises(ConfigError, match="does not accept"):
            get_workload("chain").build_config(width=9)

    def test_value_validation_is_configs_job(self):
        with pytest.raises(ConfigError, match="length"):
            get_workload("chain").build_config(length=0)

    def test_taskbench_pattern_validated(self):
        with pytest.raises(ConfigError, match="pattern"):
            get_workload("taskbench").build_config(pattern="butterfly")

    def test_tree_mode_validated(self):
        with pytest.raises(ConfigError, match="mode"):
            get_workload("tree").build_config(mode="scatter")

    def test_progress_rejected_without_support(self):
        spec = get_workload("pingpong")
        cfg = spec.build_config(fragment_size=256 * KiB)
        with pytest.raises(ConfigError, match="progress"):
            spec.run("lci", cfg, progress=lambda *_: None)

    def test_hicma_accepts_progress(self):
        assert get_workload("hicma").accepts_progress
        # So does every catalog workload: they share the graph driver.
        for spec in workload_specs():
            if "scenario" in spec.tags:
                assert spec.accepts_progress, spec.name


class TestBuiltinBitIdentity:
    """The registry path must be indistinguishable from the historical
    direct-driver path, result for result."""

    def test_pingpong_registry_equals_experiment(self):
        spec = get_workload("pingpong")
        cfg = spec.build_config(fragment_size=256 * KiB,
                                total_bytes=1 * MiB, iterations=3)
        via_registry = spec.freeze(spec.run("lci", cfg), "lci")
        via_api = repro.Experiment(
            workload="pingpong", backend="lci", fragment_size=256 * KiB,
            total_bytes=1 * MiB, iterations=3,
        ).run()
        assert via_registry == via_api

    def test_overlap_registry_equals_direct_driver(self):
        from repro.bench.overlap import OverlapConfig, run_overlap_benchmark

        spec = get_workload("overlap")
        cfg = spec.build_config(fragment_size=1 * MiB, total_bytes=4 * MiB)
        assert isinstance(cfg, OverlapConfig)
        via_registry = spec.run("mpi", cfg)
        direct = run_overlap_benchmark("mpi", cfg)
        assert via_registry.flops_per_s == direct.flops_per_s
        assert via_registry.makespan == direct.makespan


class TestGenerators:
    def test_stencil_structure(self):
        g = stencil2d(grid=4, steps=3, num_nodes=2)
        g.validate(num_nodes=2)
        assert g.num_tasks == 4 * 4 * 3
        assert g.num_flows == g.num_tasks
        inputs = [len(t.inputs) for t in g.tasks.values()]
        # First step has no inputs; every later tile pulls self + 4 halos.
        assert inputs.count(0) == 16 and inputs.count(5) == 32

    def test_ring_structure(self):
        g = ring_shift(num_nodes=3, steps=4)
        g.validate(num_nodes=3)
        assert g.num_tasks == 12
        # After the first step every task consumes own + left neighbour.
        assert [len(t.inputs) for t in g.tasks.values()].count(2) == 9

    def test_fork_join_structure(self):
        g = fork_join(fanout=2, depth=2, num_nodes=2)
        g.validate(num_nodes=2)
        # 1 root + 2 + 4 forks, 2 + 1 joins, 1 sink.
        assert g.num_tasks == 11
        kinds = [t.kind for t in g.tasks.values()]
        assert kinds.count("fork2") == 4 and kinds.count("sink") == 1

    @pytest.mark.parametrize("mode,tasks", [
        ("reduce", 4 + 2 + 1 + 1),          # leaves, two reduce levels, sink
        ("broadcast", 1 + 2 + 4 + 1),       # root, two bcast levels, sink
        ("allreduce", 4 + 3 + 6 + 1),       # leaves, reduce, bcast, sink
    ])
    def test_tree_modes(self, mode, tasks):
        g = tree_collective(fanout=2, depth=2, num_nodes=2, mode=mode)
        g.validate(num_nodes=2)
        assert g.num_tasks == tasks

    @pytest.mark.parametrize("pattern", TASKBENCH_PATTERNS)
    def test_taskbench_patterns_valid(self, pattern):
        g = taskbench_graph(width=4, depth=3, pattern=pattern, num_nodes=2)
        g.validate(num_nodes=2)
        assert g.num_tasks == 12

    def test_taskbench_dependence_counts(self):
        def layer1_inputs(pattern):
            g = taskbench_graph(width=4, depth=2, pattern=pattern,
                                num_nodes=2)
            return [len(t.inputs) for t in g.tasks.values()
                    if t.kind == "tb1"]

        assert layer1_inputs("trivial") == [0, 0, 0, 0]
        assert layer1_inputs("serial") == [1, 1, 1, 1]
        assert layer1_inputs("stencil") == [2, 3, 3, 2]
        assert layer1_inputs("all_to_all") == [4, 4, 4, 4]

    def test_taskbench_random_deterministic_by_seed(self):
        def shape(seed):
            g = taskbench_graph(width=6, depth=4, pattern="random",
                                num_nodes=3, seed=seed)
            return [tuple(t.inputs) for t in g.tasks.values()]

        assert shape(7) == shape(7)
        assert shape(7) != shape(8)

    def test_bad_pattern_rejected(self):
        with pytest.raises(ConfigError, match="unknown taskbench pattern"):
            taskbench_graph(4, 4, "butterfly", 2)


class TestCatalogEndToEnd:
    @pytest.mark.parametrize("backend", ["mpi", "lci"])
    @pytest.mark.parametrize(
        "workload", ["stencil", "tree", "ring", "forkjoin", "taskbench"]
    )
    def test_new_scenarios_complete(self, workload, backend):
        spec = get_workload(workload)
        params = dict(spec.explore_params)
        result = repro.Experiment(
            workload=workload, backend=backend,
            nodes=params.pop("num_nodes", 2), **params,
        ).run()
        assert isinstance(result, repro.GraphResult)
        assert result.makespan > 0 and result.tasks > 0
        assert workload in result.summary()

    def test_experiment_matches_registry_graph(self):
        """Tasks executed equals the spec's own graph builder's count."""
        spec = get_workload("stencil")
        cfg = spec.build_config(grid=4, steps=2, num_nodes=2)
        graph = spec.build_graph(cfg, scaled_platform(num_nodes=2))
        result = spec.freeze(spec.run("lci", cfg), "lci")
        assert result.tasks == graph.num_tasks


# --- dummy third-party plugin -------------------------------------------

@dataclasses.dataclass(frozen=True)
class _PluginConfig(DictCodec):
    """Config of the in-test third-party workload."""

    length: int = 4
    num_nodes: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.length < 1:
            raise ConfigError("plugin length must be positive")


def _plugin_graph(cfg, platform):
    from repro.workloads.generators import chain

    return chain(cfg.length, cfg.num_nodes)


def _plugin_driver(backend, cfg, platform=None, *, faults=None,
                   schedule_policy=None, ctx_observer=None):
    return run_graph_benchmark(
        "dummyplug", _plugin_graph, backend, cfg, platform,
        faults=faults, schedule_policy=schedule_policy,
        ctx_observer=ctx_observer,
    )


@pytest.fixture()
def dummy_plugin():
    spec = register(WorkloadSpec(
        name="dummyplug",
        description="In-test third-party plugin: a tiny chain.",
        example="python -m repro run dummyplug",
        config=_PluginConfig,
        driver=_plugin_driver,
        reducer=freeze_graph_result,
        graph=_plugin_graph,
        param_docs=(("length", "Chain length."),
                    ("num_nodes", "Cluster size."),
                    ("seed", "RNG seed.")),
        explore_params=(("length", 4),),
    ))
    yield spec
    unregister("dummyplug")


class TestThirdPartyPlugin:
    def test_runs_through_experiment(self, dummy_plugin):
        result = repro.Experiment(workload="dummyplug", backend="lci",
                                  nodes=2, length=6).run()
        assert isinstance(result, repro.GraphResult)
        assert result.tasks == 6

    def test_visible_everywhere(self, dummy_plugin):
        from repro.explore.scenarios import SCENARIO_KINDS, scenario_kinds

        assert "dummyplug" in workload_names()
        assert "dummyplug" in scenario_kinds()
        assert "dummyplug" in SCENARIO_KINDS

    def test_swept_serially(self, dummy_plugin):
        # jobs=1 keeps execution in-process: pool workers would import a
        # fresh tree without the in-test registration.
        from repro.sweep import SweepPoint, SweepSpec, run_sweep

        spec = SweepSpec(name="plugin", points=tuple(
            SweepPoint(kind="dummyplug", backend=b,
                       params={"length": 5, "num_nodes": 2, "seed": 0})
            for b in ("mpi", "lci")
        ))
        outcome = run_sweep(spec, SweepConfig(jobs=1, cache_enabled=False))
        assert outcome.failed == 0
        assert all(r["tasks"] == 5 for r in outcome.records)

    def test_unregistered_point_rejected(self):
        from repro.sweep import SweepPoint

        with pytest.raises(SweepError, match="unknown sweep point kind"):
            SweepPoint(kind="dummyplug", backend="lci", params={})

    def test_explored(self, dummy_plugin):
        from repro.explore import default_scenario
        from repro.explore.scenarios import run_scenario

        record = run_scenario(default_scenario("dummyplug"))
        assert record["violations"] == []
        assert record["makespan"] > 0

    def test_unknown_scenario_still_rejected(self):
        from repro.explore import default_scenario

        with pytest.raises(ExploreError, match="unknown scenario workload"):
            default_scenario("dummyplug")
