"""Tests for the schedule-space explorer (repro.explore)."""

import json
from pathlib import Path

import pytest

from repro import Experiment
from repro.errors import ExploreError
from repro.explore import (
    ExploreConfig,
    RandomWalkPolicy,
    ReplayPolicy,
    Scenario,
    default_scenario,
    load_schedule,
    replay_schedule,
    run_explore,
    run_scenario,
    write_schedule,
)

DATA = Path(__file__).parent / "data"

PINGPONG = Experiment(workload="pingpong", backend="lci",
                      fragment_size=256 * 1024, total_bytes=1024 * 1024,
                      iterations=3)


class TestPolicyKernel:
    def test_fifo_policy_is_bit_identical(self):
        """An all-FIFO replay policy must not perturb the default schedule."""
        base = PINGPONG.run()
        replay = PINGPONG.run(
            schedule_policy=ReplayPolicy([], budget=24)
        )
        assert replay.makespan == base.makespan
        assert replay.iteration_times == base.iteration_times
        assert replay.tasks == base.tasks

    def test_recording_policy_sees_choice_points(self):
        policy = ReplayPolicy([], budget=24)
        PINGPONG.run(schedule_policy=policy)
        assert len(policy.sites) > 0
        assert policy.total_sites >= len(policy.sites)
        assert all(site["n"] >= 2 for site in policy.sites)

    def test_random_walk_records_taken_decisions(self):
        policy = RandomWalkPolicy(seed=7, budget=24)
        PINGPONG.run(schedule_policy=policy)
        assert len(policy.taken) == len(policy.sites)
        # Replaying the taken decisions reproduces the walk exactly.
        replay = ReplayPolicy(list(policy.taken), budget=24)
        r1 = PINGPONG.run(schedule_policy=replay)
        r2 = PINGPONG.run(
            schedule_policy=RandomWalkPolicy(seed=7, budget=24)
        )
        assert r1.makespan == r2.makespan


class TestScenario:
    def test_run_scenario_clean(self):
        record = run_scenario(default_scenario("pingpong"),
                              ReplayPolicy([], budget=24))
        assert record["violations"] == []
        assert record["digest"]["tasks"] > 0
        assert record["makespan"] > 0

    def test_scenario_validation(self):
        with pytest.raises(ExploreError):
            Scenario(workload="nope")
        with pytest.raises(ExploreError):
            Scenario(backend="tcp")
        with pytest.raises(ExploreError):
            Scenario(nodes=1)
        with pytest.raises(ExploreError):
            default_scenario("nope")

    def test_scenario_roundtrip(self):
        scenario = default_scenario("overlap", backend="mpi", seed=3)
        assert Scenario.from_dict(scenario.to_dict()) == scenario


class TestExplore:
    def test_dfs_clean_on_main(self):
        outcome = run_explore(
            default_scenario("pingpong"),
            ExploreConfig(max_schedules=10, budget=16),
        )
        assert outcome.ok
        assert outcome.schedules_run == 10
        assert outcome.total_sites > 0
        assert outcome.baseline_digest is not None
        assert "all invariants hold" in outcome.summary()

    def test_walk_clean_on_main(self):
        outcome = run_explore(
            default_scenario("pingpong"),
            ExploreConfig(max_schedules=5, budget=16, mode="walk"),
        )
        assert outcome.ok
        assert outcome.schedules_run == 5

    def test_dfs_prunes_commuting_swaps(self):
        outcome = run_explore(
            default_scenario("pingpong"),
            ExploreConfig(max_schedules=10, budget=16),
        )
        assert outcome.pruned > 0

    def test_explore_config_validation(self):
        with pytest.raises(ExploreError):
            ExploreConfig(mode="bfs")
        with pytest.raises(ExploreError):
            ExploreConfig(max_schedules=0)

    def test_explorer_catches_planted_bug(self, monkeypatch):
        """A quiescence bug (entries served twice) is caught and shrunk."""
        from repro.sim.primitives import PriorityStore

        original = PriorityStore.try_get
        replayed = set()

        def try_get_twice(self):
            ok, payload = original(self)
            if ok and isinstance(payload, tuple) and len(payload) == 2 \
                    and id(payload) not in replayed:
                replayed.add(id(payload))
                self.try_put((0.0, payload))
            return ok, payload

        monkeypatch.setattr(PriorityStore, "try_get", try_get_twice)
        outcome = run_explore(
            default_scenario("pingpong"),
            ExploreConfig(max_schedules=10, budget=16),
        )
        assert not outcome.ok
        kinds = {kind for kind, _ in outcome.findings[0].violations}
        assert "quiescence" in kinds
        assert outcome.shrunk is not None


class TestScheduleFiles:
    def test_roundtrip(self, tmp_path):
        scenario = default_scenario("pingpong", seed=5)
        path = tmp_path / "schedule.json"
        doc = write_schedule(path, scenario, [0, 2, 1], 16,
                             violations=[["quiescence", "leak"]])
        loaded_scenario, decisions, budget = load_schedule(path)
        assert loaded_scenario == scenario
        assert decisions == [0, 2, 1]
        assert budget == 16
        assert doc["violations"] == [["quiescence", "leak"]]

    def test_tamper_detected(self, tmp_path):
        path = tmp_path / "schedule.json"
        write_schedule(path, default_scenario("pingpong"), [1], 16)
        doc = json.loads(path.read_text())
        doc["decisions"] = [2]
        path.write_text(json.dumps(doc))
        with pytest.raises(ExploreError, match="content check"):
            load_schedule(path)

    def test_unreadable_rejected(self, tmp_path):
        path = tmp_path / "schedule.json"
        path.write_text("not json")
        with pytest.raises(ExploreError, match="cannot read"):
            load_schedule(path)
        with pytest.raises(ExploreError, match="cannot read"):
            load_schedule(tmp_path / "absent.json")

    def test_bundled_schedule_replays_clean(self):
        scenario, record = replay_schedule(DATA / "schedule_pingpong.json")
        assert scenario.workload == "pingpong"
        assert record["violations"] == []
        assert record["digest"] is not None


class TestExploreCli:
    def test_explore_smoke(self, capsys):
        from repro.cli import main

        assert main(["explore", "pingpong", "--max-schedules", "5"]) == 0
        out = capsys.readouterr().out
        assert "all invariants hold" in out

    def test_explore_replay_bundled(self, capsys):
        from repro.cli import main

        assert main([
            "explore", "--replay", str(DATA / "schedule_pingpong.json"),
        ]) == 0
        out = capsys.readouterr().out
        assert "clean" in out
