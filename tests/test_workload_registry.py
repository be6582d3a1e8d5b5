"""Tests for the repro.workloads plugin registry and scenario suite.

Covers the registration contract (duplicate/invalid names, schema
completeness), parameter validation through ``build_config``, builtin
bit-identity (``spec.run`` and ``Experiment`` give the same result), the new DAG
generators' structure and determinism, end-to-end execution of the
catalog scenarios on both backends, and a dummy third-party plugin driven
through the sweep engine and the schedule explorer.
"""

import dataclasses
import hashlib

import pytest

import repro
from repro.codec import DictCodec
from repro.config import SweepConfig, scaled_platform
from repro.errors import ConfigError, ExploreError, SweepError
from repro.workloads import (
    WorkloadSpec,
    get_workload,
    param,
    register,
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

        spec = WorkloadSpec(name="x", description="x", config=Cfg)
        with pytest.raises(ConfigError, match=r"'knob' has no param\(\) doc"):
            spec.params()

    def test_params_read_docs_and_bounds_from_fields(self):
        by_name = {p.name: p for p in get_workload("tree").params()}
        assert by_name["fanout"].doc == "Tree arity (children per vertex)."
        assert by_name["fanout"].bounds() == ">= 2"
        assert by_name["mode"].bounds() == \
            "one of broadcast, reduce, allreduce"
        assert by_name["seed"].bounds() == ""


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

    def test_missing_required_parameters_named(self):
        with pytest.raises(ConfigError,
                           match=r"requires parameter\(s\) \['fragment_size'\]"):
            repro.Experiment(workload="pingpong")
        with pytest.raises(ConfigError, match="matrix_size.*tile_size"):
            get_workload("hicma").build_config(num_nodes=16)

    @pytest.mark.parametrize("workload,params,field", [
        ("stencil", {"grid": 1}, "grid"),
        ("taskbench", {"granularity": -1e-6}, "granularity"),
        ("pingpong", {"fragment_size": 1024, "streams": 0}, "streams"),
        ("overlap", {"fragment_size": 1024, "total_bytes": 0}, "total_bytes"),
        ("hicma", {"matrix_size": 7200, "tile_size": None}, "tile_size"),
        ("chain", {"length": "many"}, "length"),
    ])
    def test_declared_minimum_enforced(self, workload, params, field):
        with pytest.raises(ConfigError,
                           match=f"parameter '{field}' must be >="):
            get_workload(workload).build_config(**params)

    def test_none_accepted_where_default_is_none(self):
        cfg = get_workload("overlap").build_config(
            fragment_size=1024, total_bytes=None, reference_fragment=None)
        assert cfg.total_bytes is None and cfg.reference_fragment is None

    def test_cross_field_rule_stays_in_config(self):
        with pytest.raises(ConfigError, match="cannot span"):
            get_workload("stencil").build_config(grid=4, num_nodes=5)

    @pytest.mark.parametrize("value", ["no", "false", 0, 1, None])
    def test_bool_parameter_rejects_non_bool(self, value):
        with pytest.raises(ConfigError, match="'sync' must be true or false"):
            get_workload("pingpong").build_config(fragment_size=1024,
                                                  sync=value)

    @pytest.mark.parametrize("spec", workload_specs(), ids=lambda s: s.name)
    def test_example_parses_and_builds_config(self, spec):
        """Every catalog example is a command line ``run`` accepts."""
        import shlex

        from repro.cli import _workload_param_flags, build_parser

        argv = shlex.split(spec.example)[3:]
        args = build_parser().parse_args(argv)
        assert args.workload == spec.name
        params = {name: getattr(args, name)
                  for name in _workload_param_flags() if hasattr(args, name)}
        if args.nodes is not None:
            params["num_nodes"] = args.nodes
        spec.build_config(seed=args.seed, **params)


class TestSchemaPins:
    """Config JSON and sweep point keys, pinned as SHA-256 values.

    Declaring a field's doc and bounds must not move anything that is
    hashed: ``to_dict()`` output, sweep point keys and with them every
    ``.repro-cache`` entry."""

    REQUIRED = {
        "pingpong": {"fragment_size": 256 * KiB},
        "overlap": {"fragment_size": 1 * MiB},
        "hicma": {"matrix_size": 7200, "tile_size": 1200},
    }
    CONFIG_SHA256 = {
        "alltoall": "ab07422bd0c0d63601747ee3e73480587b1f85e080bcb7fdf0c4b4ce4a4180ce",
        "chain": "a353fe0ad37697eb0acaf1e1b5c6894f674a728c3108befc3036875188947164",
        "fanout": "5887db32ecfa44ca3eb80887f2f17f6a0d4d62cb11491cf7dc8f1279e1efc004",
        "forkjoin": "0d78c68f6b137952a171d9b831b0c5f404421c102a0bb94be9bfa2272531035f",
        "halo": "2b43edde9a0eb69a80d78660dc722449a1c3278422fb5e46060edd06feca7606",
        "hicma": "ef77f6c9c70ad1472dfe1385efa695fd2ba081fae7a8389867a47ce1080bbd6c",
        "overlap": "09917f1357434e44bf008d601d9b69fae2ddfb3c7db1af8bc614cbd7370ba1eb",
        "pingpong": "ecf85fab3c1d3a1da3fae2e17ca4a9fc08c7df43849978851e3c8c75d1ac9cb9",
        "randomdag": "4da352e889e43038ecc5d83e85a06598b015cee10deb76dfa09781118d64603e",
        "ring": "7103f0f8b1f5bc6b86998cb275bfe8f07285dd70a2755aa499ac7b70b12945ee",
        "stencil": "fef4171cbd3126a1dd5f1b80868b97e8c94cefbb62cf092b0847adaf147d7828",
        "taskbench": "760b5c1e74177b75f84877d06fd052a69e97b47254054d78914378467ff63e54",
        "tree": "67318e1a480b7604c27b7741d8ee0a6d26c3bd59c2e87e5b7d77b341491a4ba5",
    }
    #: SHA-256 of the grid's point keys, one per line, in grid order.
    GRID_KEYS_SHA256 = {
        "fig4": (16, "e8763d99f25fa98eec3ca6d28b88bb4aced6623e3cb287b61f01503b41e51ea5"),
        "taskbench": (32, "fedf8f62803be8fac64cc5745310f7d95982dd899c3d7ee08e5b186558788005"),
    }

    @pytest.mark.parametrize("name", workload_names())
    def test_config_json(self, name):
        from repro.codec import canonical_json

        cfg = get_workload(name).build_config(**self.REQUIRED.get(name, {}))
        text = canonical_json(cfg.to_dict())
        assert hashlib.sha256(text.encode()).hexdigest() == \
            self.CONFIG_SHA256[name], text

    @pytest.mark.parametrize("grid", sorted(GRID_KEYS_SHA256))
    def test_grid_point_keys(self, grid, monkeypatch):
        from repro.sweep import named_grid, point_key

        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        keys = [point_key(p) for p in named_grid(grid).points]
        digest = hashlib.sha256("\n".join(keys).encode()).hexdigest()
        assert (len(keys), digest) == self.GRID_KEYS_SHA256[grid]


class TestBuiltinBitIdentity:
    """The registry path must be indistinguishable from the Experiment
    path, result for result."""

    def test_pingpong_registry_equals_experiment(self):
        spec = get_workload("pingpong")
        cfg = spec.build_config(fragment_size=256 * KiB,
                                total_bytes=1 * MiB, iterations=3)
        via_registry = spec.run("lci", cfg)
        via_api = repro.Experiment(
            workload="pingpong", backend="lci", fragment_size=256 * KiB,
            total_bytes=1 * MiB, iterations=3,
        ).run()
        assert via_registry == via_api


class TestGenerators:
    def test_stencil_structure(self):
        g = stencil2d(grid=4, steps=3, num_nodes=2)
        g.validate(num_nodes=2)
        assert g.num_tasks == 4 * 4 * 3
        assert g.num_flows == g.num_tasks
        inputs = [g.input_count(t) for t in range(g.num_tasks)]
        # First step has no inputs; every later tile pulls self + 4 halos.
        assert inputs.count(0) == 16 and inputs.count(5) == 32

    def test_ring_structure(self):
        g = ring_shift(num_nodes=3, steps=4)
        g.validate(num_nodes=3)
        assert g.num_tasks == 12
        # After the first step every task consumes own + left neighbour.
        assert [g.input_count(t) for t in range(g.num_tasks)].count(2) == 9

    def test_fork_join_structure(self):
        g = fork_join(fanout=2, depth=2, num_nodes=2)
        g.validate(num_nodes=2)
        # 1 root + 2 + 4 forks, 2 + 1 joins, 1 sink.
        assert g.num_tasks == 11
        kinds = [g.task_kind(t) for t in range(g.num_tasks)]
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
            return [g.input_count(t) for t in range(g.num_tasks)
                    if g.task_kind(t) == "tb1"]

        assert layer1_inputs("trivial") == [0, 0, 0, 0]
        assert layer1_inputs("serial") == [1, 1, 1, 1]
        assert layer1_inputs("stencil") == [2, 3, 3, 2]
        assert layer1_inputs("all_to_all") == [4, 4, 4, 4]

    def test_taskbench_random_deterministic_by_seed(self):
        def shape(seed):
            g = taskbench_graph(width=6, depth=4, pattern="random",
                                num_nodes=3, seed=seed)
            return [tuple(g.inputs_of(t)) for t in range(g.num_tasks)]

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
        result = spec.run("lci", cfg)
        assert result.tasks == graph.num_tasks


# --- dummy third-party plugin -------------------------------------------

@dataclasses.dataclass(frozen=True)
class _PluginConfig(DictCodec):
    """Config of the in-test third-party workload."""

    length: int = param(4, "Chain length.", minimum=1)
    num_nodes: int = param(2, "Cluster size.")
    seed: int = param(0, "RNG seed.")


def _plugin_graph(cfg, platform):
    from repro.workloads.generators import chain

    return chain(cfg.length, cfg.num_nodes)


@pytest.fixture()
def dummy_plugin():
    spec = register(WorkloadSpec(
        name="dummyplug",
        description="In-test third-party plugin: a tiny chain.",
        example="python -m repro run dummyplug",
        config=_PluginConfig,
        graph=_plugin_graph,
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
        from repro.explore.scenarios import default_scenario

        assert "dummyplug" in workload_names()
        scenario = default_scenario("dummyplug")
        assert scenario.workload == "dummyplug"
        assert scenario.params == {"length": 4}

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
