"""CLI contract tests: exit codes, logs, snapshots, replay, determinism."""

import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from hwrom import eventlog
from hwrom import formation as fm
from hwrom import metrics as metrics_mod
from hwrom import pursuit
from hwrom.cli import main
from hwrom.org_core import canonical_json

from conftest import log_notes

CANONICAL = Path(__file__).parent / "fixtures" / "canonical_pursuit.json"
MULTIROOT = Path(__file__).parent / "fixtures" / "multiroot_replan.json"


def with_field(data: dict, where: str, value) -> dict:
    """`data` with the field at `where` (dotted, with [i] list indices) set to
    `value`; missing objects on the way are created."""
    *path, last = [int(k) if k.isdigit() else k for k in re.findall(r"\w+", where)]
    target = data
    for key in path:
        target = target[key] if isinstance(key, int) else target.setdefault(key, {})
    target[last] = value
    return data


def canonical_with(where: str, value, **fields) -> dict:
    """The canonical pursuit config with `fields` added and the field at
    `where` set to `value`."""
    return with_field(dict(json.loads(CANONICAL.read_text()), **fields), where, value)


def with_joiner(config_path: Path) -> dict:
    """The config at `config_path` with one robot J1 joining at tick 2."""
    data = json.loads(config_path.read_text())
    data["events"] = [{"at": 2, "type": "join", "robot": {
        "id": "J1", "capabilities": [["Action", "weld", 3]]}}]
    return data


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def generic_config(tmp_path) -> Path:
    data = {
        "seed": 42,
        "max_ticks": 120,
        "robots": [
            {"id": "R1", "capabilities": [["Organization", "plan", 1], ["Communication", "radio", 1]]},
            {"id": "R2", "capabilities": [["Action", "weld", 2], ["Communication", "radio", 1]]},
            {"id": "R3", "capabilities": [["Sensing", "vision", 3], ["Communication", "radio", 1]]},
        ],
        "task": {
            "id": "T",
            "reward": 30,
            "subtasks": [
                {"id": "t1", "reward": 10, "requires": [["Action", "weld", 1]]},
                {"id": "t2", "reward": 10, "requires": [["Sensing", "vision", 1]]},
            ],
        },
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return path


@pytest.fixture
def pursuit_config(tmp_path) -> Path:
    caps = [
        ["Organization", "plan", 1],
        ["Communication", "radio", 1],
        ["Moving", "speed", 1],
        ["Sensing", "vision", 12],
    ]
    data = {
        "seed": 42,
        "max_ticks": 200,
        "robots": [{"id": f"R{i}", "capabilities": caps} for i in range(1, 5)],
        "pursuit": {
            "grid": [10, 10],
            "robots": [
                {"id": "R1", "pos": [0, 0]},
                {"id": "R2", "pos": [9, 0]},
                {"id": "R3", "pos": [0, 9]},
                {"id": "R4", "pos": [9, 9]},
            ],
            "evaders": [{"id": "e1", "pos": [5, 5], "speed": 1}],
        },
    }
    path = tmp_path / "pursuit.json"
    path.write_text(json.dumps(data))
    return path


class TestRunCommand:
    def test_success_exit_zero_and_log_written(self, runner, generic_config, tmp_path):
        log = tmp_path / "run.jsonl"
        result = runner.invoke(main, ["run", str(generic_config), "--log", str(log)])
        assert result.exit_code == 0, result.output
        lines = [json.loads(x) for x in log.read_text().splitlines()]
        assert lines[0]["type"] == "header"
        assert lines[-1]["type"] == "end"
        summary = json.loads(result.output.strip().splitlines()[-1])
        assert summary["metrics"]["mission_done"] is True

    def test_pursuit_scenario_runs(self, runner, pursuit_config, tmp_path):
        log = tmp_path / "run.jsonl"
        result = runner.invoke(main, ["run", str(pursuit_config), "--log", str(log)])
        assert result.exit_code == 0, result.output
        summary = json.loads(result.output.strip().splitlines()[-1])
        assert summary["metrics"]["capture_ticks"].get("e1") is not None

    def test_missing_config_exits_two(self, runner, tmp_path):
        result = runner.invoke(main, ["run", str(tmp_path / "nope.json")])
        assert result.exit_code == 2

    def test_invalid_json_exits_two_with_line_anchor(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"robots": [,]}')
        result = runner.invoke(main, ["run", str(bad)])
        assert result.exit_code == 2
        assert ":1:" in result.output  # line-anchored message

    def test_schema_error_exits_two_with_path_anchor(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"robots": [{"id": "R1"}], "task": {"id": "T"},
                                   "constraints": [{"a": "x", "b": "T", "kind": "Parallel"}]}))
        result = runner.invoke(main, ["run", str(bad)])
        assert result.exit_code == 2
        assert "constraints[0]" in result.output

    @pytest.mark.parametrize(
        "auction",
        [{"max_reward_rounds": 4, "max_total_rounds": 2}, {"delta": 0}, {"delta": "-1/4"},
         {"max_total_rounds": None}, {"max_reward_rounds": [3]}, {"max_total_rounds": "five"},
         {"bid_window": "x"}, {"bid_window": -2}],
    )
    def test_bad_auction_policy_exits_two(self, runner, generic_config, tmp_path, auction):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(json.loads(generic_config.read_text()), auction=auction)))
        result = runner.invoke(main, ["run", str(bad)])
        assert result.exit_code == 2
        # anchored to the block, or to the field when one integer is malformed
        assert re.search(r"config error: auction(\.[a-z_]+)?: ", result.output)

    def test_generic_join_without_pos_runs(self, runner, generic_config, tmp_path):
        data = json.loads(generic_config.read_text())
        data["events"] = [{"at": 2, "type": "join", "robot": {
            "id": "J1", "capabilities": [["Action", "weld", 3], ["Communication", "radio", 1]]}}]
        path = tmp_path / "join.json"
        path.write_text(json.dumps(data))
        log = tmp_path / "join.jsonl"
        result = runner.invoke(main, ["run", str(path), "--log", str(log)])
        assert result.exit_code == 0, result.output
        assert any(note["kind"] == "joined" for note in log_notes(log))
        assert runner.invoke(main, ["replay", str(log)]).exit_code == 0

    def test_mission_failure_exits_one_but_logs(self, runner, tmp_path):
        data = {
            "max_ticks": 60,
            "robots": [{"id": "R1", "capabilities": [["Action", "weld", 1]]}],
            "task": {"id": "T", "reward": 5, "subtasks": [
                {"id": "t1", "reward": 2, "requires": [["Action", "weld", 1]]}]},
        }
        path = tmp_path / "doomed.json"
        path.write_text(json.dumps(data))
        log = tmp_path / "doomed.jsonl"
        result = runner.invoke(main, ["run", str(path), "--log", str(log)])
        assert result.exit_code == 1
        assert log.exists() and json.loads(log.read_text().splitlines()[-1])["type"] == "end"

    def test_fail_flag_injects_failure(self, runner, generic_config, tmp_path):
        log = tmp_path / "run.jsonl"
        result = runner.invoke(
            main, ["run", str(generic_config), "--fail", "R2@9", "--log", str(log)]
        )
        records = [json.loads(x) for x in log.read_text().splitlines()]
        failed = [r for r in records if r.get("type") == "event" and r.get("event") == "RobotFailed"]
        assert failed and failed[0]["tick"] == 9

    def test_malformed_fail_flag(self, runner, generic_config):
        result = runner.invoke(main, ["run", str(generic_config), "--fail", "R2"])
        assert result.exit_code == 2

    def test_fail_flag_unknown_robot(self, runner, generic_config):
        result = runner.invoke(main, ["run", str(generic_config), "--fail", "R99@5"])
        assert result.exit_code == 2

    def test_fail_flag_in_the_past_exits_two(self, runner, generic_config):
        result = runner.invoke(main, ["run", str(generic_config), "--fail", "R1@-3"])
        assert result.exit_code == 2
        assert re.search(r"config error: events\[\d+\]\.at: ", result.output)

    def test_fail_flag_goes_into_the_header(self, runner, generic_config, tmp_path):
        log = tmp_path / "run.jsonl"
        runner.invoke(main, ["run", str(generic_config), "--fail", "R2@9", "--log", str(log)])
        header = json.loads(log.read_text().splitlines()[0])
        assert header["config"]["events"] == [{"at": 9, "type": "fail", "robot": "R2"}]
        assert runner.invoke(main, ["replay", str(log)]).exit_code == 0

    def test_snapshot_written(self, runner, generic_config, tmp_path):
        snap = tmp_path / "org.json"
        result = runner.invoke(main, ["run", str(generic_config), "--snapshot", str(snap)])
        assert result.exit_code == 0
        data = json.loads(snap.read_text())
        assert {"robots", "root", "relations", "assignments"} <= set(data)

    @pytest.mark.parametrize("option", ["--log", "--snapshot"])
    def test_an_output_in_a_missing_directory_exits_two_before_the_run(
        self, runner, generic_config, tmp_path, monkeypatch, option
    ):
        def no_run(*args):
            raise AssertionError("the run started")

        monkeypatch.setattr(eventlog, "simulate", no_run)
        target = tmp_path / "missing" / "out"
        result = runner.invoke(main, ["run", str(generic_config), option, str(target)])
        assert result.exit_code == 2, result.output
        assert result.output == f"cannot write {target}: No such file or directory\n"

    def test_seed_and_ticks_overrides(self, runner, generic_config):
        result = runner.invoke(main, ["run", str(generic_config), "--seed", "7", "--ticks", "90"])
        assert result.exit_code == 0

    @pytest.mark.parametrize("max_ticks", [None, "many", [120], -1])
    def test_bad_max_ticks_exits_two(self, runner, generic_config, tmp_path, max_ticks):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(json.loads(generic_config.read_text()), max_ticks=max_ticks)))
        result = runner.invoke(main, ["run", str(bad)])
        assert result.exit_code == 2
        assert "config error: max_ticks:" in result.output

    @pytest.mark.parametrize(
        "where, value",
        [("seed", None), ("net.latency", None), ("net.latency", -1), ("pursuit.k", "x"),
         ("pursuit.capture_quorum", "x"), ("pursuit.evaders[0].speed", "x"), ("pursuit.k", 0),
         ("pursuit.capture_quorum", 0), ("pursuit.evaders[0].speed", -3)],
    )
    def test_bad_integer_field_exits_two(self, runner, tmp_path, where, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(canonical_with(where, value)))
        result = runner.invoke(main, ["run", str(bad)])
        assert result.exit_code == 2
        assert f"config error: {where}: " in result.output

    @pytest.mark.parametrize("value", [2, -1, "3/2"])
    def test_drop_rate_out_of_range_exits_two(self, runner, tmp_path, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(canonical_with("net.drop_rate", value)))
        result = runner.invoke(main, ["run", str(bad)])
        assert result.exit_code == 2, result.output
        assert "config error: net.drop_rate: must be within [0, 1]" in result.output

    @pytest.mark.parametrize(
        "where, value",
        [("pursuit.robots[0].pos", ["a", 1]), ("pursuit.robots[0].pos", [None, 1]),
         ("pursuit.robots[1].pos", [1.5, 2]), ("pursuit.robots[2].pos", [True, 0]),
         ("pursuit.evaders[0].pos", ["a", 1]), ("pursuit.evaders[0].pos", [None, 1]),
         ("events[0].pos", ["x", 0]), ("events[0].pos", [99, 0]), ("events[0].pos", None)],
    )
    def test_bad_pursuit_cell_exits_two(self, runner, tmp_path, where, value):
        join = {"at": 3, "type": "join", "pos": [0, 0], "robot": {
            "id": "J1", "capabilities": [["Moving", "speed", 1], ["Sensing", "vision", 4]]}}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(canonical_with(where, value, events=[join])))
        result = runner.invoke(main, ["run", str(bad)])
        assert result.exit_code == 2, result.output
        assert f"config error: {where}: " in result.output

    @pytest.mark.parametrize(
        "evaders, where, problem",
        [([{"pos": [5, 5]}], "pursuit.evaders[0]", "missing required field 'id'"),
         ([{"id": 1, "pos": [5, 5]}, {"id": "e2", "pos": [2, 2]}], "pursuit.evaders[1].id",
          "evader ids mix strings and numbers"),
         ([{"id": "e1", "pos": [5, 5]}, {"id": "e1", "pos": [2, 2]}], "pursuit.evaders[1].id",
          "duplicate evader id 'e1'"),
         ([{"id": "e1", "pos": [5, 5], "policy": "stay"}], "pursuit.evaders[0].policy",
          "unknown evader policy 'stay'")],
    )
    def test_bad_evader_exits_two(self, runner, tmp_path, evaders, where, problem):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(canonical_with("pursuit.evaders", evaders)))
        result = runner.invoke(main, ["run", str(bad)])
        assert result.exit_code == 2, result.output
        assert f"config error: {where}: {problem}" in result.output

    @pytest.mark.parametrize("task_id", ["T", "capture:e1", "sg:e1:0"])
    def test_a_task_tree_beside_a_pursuit_block_exits_two(self, runner, tmp_path, task_id):
        # a run has one root, so a config takes a task tree or a pursuit
        # block, never both, whatever the task is called
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(canonical_with("task", {"id": task_id, "reward": 5})))
        result = runner.invoke(main, ["run", str(bad)])
        assert result.exit_code == 2, result.output
        assert "config error: config: holds both 'task' and 'pursuit'" in result.output

    @pytest.mark.parametrize("robot", ["robots[1]", "events[0].robot"])
    @pytest.mark.parametrize(
        "value, problem",
        [(None, "expected a string or number, got None"),
         (True, "expected a string or number, got True"),
         (["R9"], "expected a string or number, got ['R9']"),
         ({"id": "R9"}, "expected a string or number, got {'id': 'R9'}"),
         # the environment's endpoint: deliveries to it never reach a robot
         ("__env__", "robot id '__env__' is reserved for the environment")],
    )
    def test_robot_id_that_is_not_an_id_exits_two(
        self, runner, generic_config, tmp_path, robot, value, problem
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(with_field(with_joiner(generic_config), f"{robot}.id", value)))
        result = runner.invoke(main, ["run", str(bad)])
        assert result.exit_code == 2, result.output
        assert f"config error: {robot}.id: {problem}" in result.output

    @pytest.mark.parametrize(
        "where",
        ["task.id", "task.subtasks[0].id", "pursuit.evaders[0].id", "rules[0].id",
         # a reference keeps the rule too: null names no robot "None", true no task "True"
         "events[0].robot", "constraints[0].a", "constraints[0].b", "pursuit.robots[0].id",
         "robot_rules.R1[0]"],
    )
    @pytest.mark.parametrize("value", [None, True, ["x"], {"a": 1}])
    def test_a_task_evader_or_rule_id_that_is_not_an_id_exits_two(
        self, runner, generic_config, tmp_path, where, value
    ):
        # robot ids keep the same rule: a string or a number
        if where.startswith("pursuit"):
            data = json.loads(CANONICAL.read_text())
        else:
            data = json.loads(generic_config.read_text())
            data["rules"] = [{"id": "no-parallel", "predicate": "no_parallel_coassignment"}]
            data["robot_rules"] = {"R1": ["no-parallel"]}
            data["constraints"] = [{"a": "t1", "b": "t2", "kind": "Parallel"}]
            data["events"] = [{"at": 2, "type": "fail", "robot": "R2"}]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(with_field(data, where, value)))
        result = runner.invoke(main, ["run", str(bad)])
        assert result.exit_code == 2, result.output
        assert f"config error: {where}: expected a string or number, got {value!r}" in result.output

    @pytest.mark.parametrize(
        "where",
        ["task.subtasks[0].subtasks[0].duration",
         "task.subtasks[0].subtasks[0].alternatives[0][0].duration"],
    )
    @pytest.mark.parametrize("value", [0, -1])
    def test_duration_below_one_exits_two(self, runner, generic_config, tmp_path, where, value):
        data = json.loads(generic_config.read_text())
        data["task"]["subtasks"][0]["alternatives"] = [
            [{"id": "t1a", "reward": 10, "requires": [["Action", "weld", 1]]}]]
        data["task"] = {"id": "root", "reward": 40, "subtasks": [data["task"]]}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(with_field(data, where, value)))
        result = runner.invoke(main, ["run", str(bad)])
        assert result.exit_code == 2, result.output
        assert f"config error: {where}: must be >= 1" in result.output

    @pytest.mark.parametrize(
        "where",
        ["task.reward", "task.subtasks[1].reward", "task.subtasks[0].alternatives[0][0].reward",
         "auction.margin", "auction.default_cost", "costs.R2.t1"],
    )
    def test_negative_money_exits_two(self, runner, generic_config, tmp_path, where):
        data = json.loads(generic_config.read_text())
        data["task"]["subtasks"][0]["alternatives"] = [
            [{"id": "t1a", "reward": 10, "requires": [["Action", "weld", 1]]}]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(with_field(data, where, "-1/10")))
        result = runner.invoke(main, ["run", str(bad)])
        assert result.exit_code == 2, result.output
        assert f"config error: {where}: must be >= 0" in result.output

    @pytest.mark.parametrize("where", ["pursuit.base_reward", "pursuit.mission_reward"])
    def test_negative_pursuit_reward_exits_two(self, runner, tmp_path, where):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(canonical_with(where, -5)))
        result = runner.invoke(main, ["run", str(bad)])
        assert result.exit_code == 2, result.output
        assert f"config error: {where}: must be >= 0" in result.output

    @pytest.mark.parametrize("where", ["robots[1].capabilities[0]", "events[0].robot.capabilities[0]"])
    def test_negative_capability_magnitude_exits_two(self, runner, generic_config, tmp_path, where):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(with_field(with_joiner(generic_config), where, ["Action", "weld", -1])))
        result = runner.invoke(main, ["run", str(bad)])
        assert result.exit_code == 2, result.output
        assert f"config error: {where}: capability magnitude must be >= 0" in result.output

    @pytest.mark.parametrize(
        "where, entry",
        [("robots[1].capabilities[0]", {"kind": "Action", "subkind": "weld", "magnitude": 2}),
         ("events[0].robot.capabilities[0]", {"kind": "Action", "subkind": "weld"}),
         ("task.subtasks[0].requires[0]", {"kind": "Action", "subkind": "weld", "min": 1})],
    )
    def test_object_capability_or_requirement_exits_two(
        self, runner, generic_config, tmp_path, where, entry
    ):
        # only the list forms [kind, subkind, magnitude] and [kind, subkind, min] are read
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(with_field(with_joiner(generic_config), where, entry)))
        result = runner.invoke(main, ["run", str(bad)])
        assert result.exit_code == 2, result.output
        assert f"config error: {where}: " in result.output

    def test_reward_forms_give_the_same_reward(self, runner, generic_config, tmp_path):
        # with every cost 0, the leader of T keeps T's whole reward
        summaries = []
        for value in (0.1, "0.1", "1/10"):
            data = json.loads(generic_config.read_text())
            data["task"]["reward"] = value
            data["auction"] = {"default_cost": 0}
            path = tmp_path / "reward.json"
            path.write_text(json.dumps(data))
            result = runner.invoke(main, ["run", str(path)])
            assert result.exit_code == 0, result.output
            summaries.append(json.loads(result.output))
        assert summaries[0]["metrics"]["utilities"]["R1"] == "1/10"
        assert summaries[0] == summaries[1] == summaries[2]

    def test_robot_rules_bind_the_unit_and_its_team(self, runner, generic_config, tmp_path):
        data = json.loads(generic_config.read_text())
        data["robot_rules"] = {
            "R2": ["design.no-parallel-coassignment", "bidding.winner-lock"],
            "R3": ["bidding.winner-lock", "selection.least-reward"],
        }
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(data))
        snap = tmp_path / "org.json"
        result = runner.invoke(main, ["run", str(path), "--snapshot", str(snap)])
        assert result.exit_code == 0, result.output
        root = json.loads(snap.read_text())["root"]
        rules = {node["id_ros"]: node["rules"] for node in [root, *root["children"]]}
        assert rules["unit:R2"] == ["bidding.winner-lock", "design.no-parallel-coassignment"]
        assert rules["unit:R3"] == ["bidding.winner-lock", "selection.least-reward"]
        assert len(rules["unit:R1"]) == 4  # the whole pool
        # a team abides by the rules every member abides by
        assert rules["team:T"] == ["bidding.winner-lock"]

    @pytest.mark.parametrize(
        "robot_rules, problem",
        [({"R2": ["bidding.no-such-rule"]}, "unknown rule id 'bidding.no-such-rule'"),
         ({"R9": ["bidding.winner-lock"]}, "unknown robot 'R9'")],
    )
    def test_bad_robot_rules_exits_two(self, runner, generic_config, tmp_path, robot_rules, problem):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(json.loads(generic_config.read_text()), robot_rules=robot_rules)))
        result = runner.invoke(main, ["run", str(bad)])
        assert result.exit_code == 2, result.output
        (robot,) = robot_rules
        assert f"config error: robot_rules.{robot}: {problem}" in result.output

    @pytest.mark.parametrize("robot", ["robots[0]", "events[0].robot"])
    @pytest.mark.parametrize(
        "value, where",
        [(5, ""), ("bid", ""), ([["x"]], "[0]"), (["bogus"], "[0]"), (["bid", None], "[1]")],
    )
    def test_bad_interface_exits_two(self, runner, generic_config, tmp_path, robot, value, where):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(with_field(with_joiner(generic_config), f"{robot}.interface", value)))
        result = runner.invoke(main, ["run", str(bad)])
        assert result.exit_code == 2, result.output
        assert f"config error: {robot}.interface{where}: " in result.output

    def test_empty_interface_means_every_kind(self, runner, generic_config, tmp_path):
        data = with_joiner(generic_config)
        for entry in (*data["robots"], data["events"][0]["robot"]):
            entry["interface"] = []
        path = tmp_path / "open.json"
        path.write_text(json.dumps(data))
        result = runner.invoke(main, ["run", str(path)])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["metrics"]["messages_rejected"] == 0

    def test_integer_pursuit_robot_id_runs(self, runner, tmp_path):
        data = json.loads(CANONICAL.read_text())
        data["robots"][0]["id"] = 7
        data["pursuit"]["robots"][0]["id"] = 7
        path = tmp_path / "int_id.json"
        path.write_text(json.dumps(data))
        log = tmp_path / "int_id.jsonl"
        result = runner.invoke(main, ["run", str(path), "--log", str(log)])
        assert result.exit_code == 0, result.output
        assert runner.invoke(main, ["replay", str(log)]).exit_code == 0

    def test_integer_task_id_runs(self, runner, generic_config, tmp_path):
        data = json.loads(generic_config.read_text())
        data["task"]["id"] = 5
        path = tmp_path / "int_task.json"
        path.write_text(json.dumps(data))
        log = tmp_path / "int_task.jsonl"
        result = runner.invoke(main, ["run", str(path), "--log", str(log)])
        assert result.exit_code == 0, result.output
        assert runner.invoke(main, ["replay", str(log)]).exit_code == 0

    def test_scripted_fail_of_a_joiner_runs(self, runner, generic_config, tmp_path):
        data = json.loads(generic_config.read_text())
        data["events"] = [
            {"at": 2, "type": "join", "robot": {
                "id": "J1", "capabilities": [["Action", "weld", 3], ["Communication", "radio", 1]]}},
            {"at": 6, "type": "fail", "robot": "J1"},
        ]
        path = tmp_path / "join_fail.json"
        path.write_text(json.dumps(data))
        log = tmp_path / "join_fail.jsonl"
        result = runner.invoke(main, ["run", str(path), "--log", str(log)])
        assert result.exit_code == 0, result.output
        records = [json.loads(x) for x in log.read_text().splitlines()]
        failed = [(r["tick"], r["data"]["robot"]) for r in records if r.get("event") == "RobotFailed"]
        assert failed == [(6, "J1")]
        assert runner.invoke(main, ["replay", str(log)]).exit_code == 0

    @pytest.mark.parametrize(
        "events, error",
        [
            ([("fail", 6), ("join", 3)], None),
            ([("join", 3), ("fail", 6)], None),
            ([("join", 3), ("fail", 1)], "events[1].robot: unknown robot 'J1' at tick 1"),
            # at one tick a fail runs before a join
            ([("join", 3), ("fail", 3)], "events[1].robot: unknown robot 'J1' at tick 3"),
            ([("join", 5), ("join", 3)], "events[0].robot: duplicate robot id 'J1'"),
        ],
        ids=["fail_listed_first", "join_listed_first", "fail_before_join", "fail_at_join_tick", "join_twice"],
    )
    def test_scripted_events_are_checked_in_run_order(
        self, runner, generic_config, tmp_path, events, error
    ):
        joiner = {"id": "J1", "capabilities": [["Action", "weld", 3], ["Communication", "radio", 1]]}
        data = json.loads(generic_config.read_text())
        data["events"] = [
            {"at": at, "type": kind, "robot": joiner if kind == "join" else "J1"} for kind, at in events
        ]
        path = tmp_path / "events.json"
        path.write_text(json.dumps(data))
        log = tmp_path / "events.jsonl"
        result = runner.invoke(main, ["run", str(path), "--log", str(log)])
        if error is not None:
            assert result.exit_code == 2
            assert f"config error: {error}" in result.output
            return
        assert result.exit_code == 0, result.output
        records = [json.loads(x) for x in log.read_text().splitlines()]
        script = [(r["tick"], r["event"]) for r in records if r.get("event") in ("RobotJoined", "RobotFailed")]
        assert script == [(3, "RobotJoined"), (6, "RobotFailed")]

    def test_fail_flag_with_a_tick_that_is_not_an_integer_exits_two(self, runner, generic_config):
        result = runner.invoke(main, ["run", str(generic_config), "--fail", "R1@x"])
        assert result.exit_code == 2
        assert "--fail tick must be an integer, got 'x'" in result.output

    @pytest.mark.parametrize(
        "edit, where, problem",
        [
            (lambda d: d.update(auction=5), "auction", "expected an object"),
            (lambda d: d["robots"][0]["capabilities"].append(["Flying", "wings", 1]),
             "robots[0].capabilities[2]", "unknown capability kind 'Flying'"),
            (lambda d: d.update(rules=[{"id": "r", "category": "Bogus", "predicate": "winner_lock"}]),
             "rules[0]", "unknown rule category 'Bogus'"),
            (lambda d: d.update(rules=[{"id": "r", "predicate": "fly"}]),
             "rules[0]", "unknown rule predicate 'fly'"),
            (lambda d: d.update(rules=[{"id": "r", "predicate": "winner_lock"},
                                       {"id": "r", "predicate": "least_reward"}]),
             "rules[1]", "rule id 'r' redeclared with a different body"),
            (lambda d: d.update(robots=[]), "robots", "at least one robot is required"),
            (lambda d: d["robots"][1].update(id="R1"), "robots[1].id", "duplicate robot id 'R1'"),
            (lambda d: d["task"]["subtasks"][1].update(id="t1"), "task", "duplicate task id 't1'"),
            (lambda d: d.pop("task"), "config", "either a task tree or a pursuit block is required"),
            (lambda d: d.update(constraints=[{"a": "t1", "b": "t2", "kind": "Sideways"}]),
             "constraints[0]", "unknown constraint kind 'Sideways'"),
            (lambda d: d.update(costs={"R9": {"t1": 1}}), "costs.R9", "unknown robot 'R9'"),
            (lambda d: d.update(costs={"R1": {"t9": 1}}), "costs.R1.t9", "unknown task 't9'"),
            (lambda d: d.update(pursuit={"grid": [1, 5], "robots": [], "evaders": []}),
             "pursuit.grid", "grid must be [width, height] with sides >= 2"),
            (lambda d: d.update(pursuit={"grid": [5, 5], "robots": [{"id": "R9", "pos": [0, 0]}],
                                         "evaders": []}),
             "pursuit.robots[0]", "unknown robot 'R9'"),
            (lambda d: d.update(pursuit={"grid": [5, 5], "robots": [], "evaders": []}),
             "pursuit.evaders", "at least one evader is required"),
            (lambda d: d.update(events=[{"at": 3, "type": "withdraw", "robot": "R2", "reason": "Bored"}]),
             "events[0].reason", "unknown reason 'Bored'"),
            (lambda d: d.update(events=[{"at": 3, "type": "explode", "robot": "R2"}]),
             "events[0]", "unknown event type 'explode'"),
        ],
        ids=["block_not_object", "capability_kind", "rule_category", "rule_predicate",
             "rule_redeclared", "no_robots", "duplicate_robot", "duplicate_task", "no_task_or_pursuit",
             "constraint_kind", "cost_robot", "cost_task", "pursuit_grid", "pursuit_robot",
             "no_evaders", "withdraw_reason", "event_type"],
    )
    def test_config_error_exits_two_naming_where(
        self, runner, generic_config, tmp_path, edit, where, problem
    ):
        data = json.loads(generic_config.read_text())
        edit(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        result = runner.invoke(main, ["run", str(bad)])
        assert result.exit_code == 2, result.output
        assert f"config error: {where}: {problem}" in result.output

    def test_negative_ticks_flag_exits_two(self, runner, generic_config):
        result = runner.invoke(main, ["run", str(generic_config), "--ticks", "-1"])
        assert result.exit_code == 2
        assert "config error: max_ticks:" in result.output


class TestDeterminismAndMetrics:
    def test_identical_runs_identical_logs(self, runner, generic_config, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert runner.invoke(main, ["run", str(generic_config), "--log", str(a)]).exit_code == 0
        assert runner.invoke(main, ["run", str(generic_config), "--log", str(b)]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_metrics_recomputable_from_log(self, runner, generic_config, tmp_path):
        log = tmp_path / "m.jsonl"
        runner.invoke(main, ["run", str(generic_config), "--log", str(log)])
        records = [json.loads(x) for x in log.read_text().splitlines()]
        end = records[-1]
        recomputed = metrics_mod.compute_metrics(
            records[1:-1], final_org_hash=end["metrics"]["final_org_hash"]
        )
        assert recomputed.to_dict() == end["metrics"]


class TestReplayCommand:
    def _run(self, runner, config, tmp_path) -> Path:
        log = tmp_path / "r.jsonl"
        assert runner.invoke(main, ["run", str(config), "--log", str(log)]).exit_code == 0
        return log

    def test_untouched_log_replays_clean(self, runner, generic_config, tmp_path):
        log = self._run(runner, generic_config, tmp_path)
        result = runner.invoke(main, ["replay", str(log)])
        assert result.exit_code == 0, result.output

    def test_pursuit_log_replays_clean(self, runner, pursuit_config, tmp_path):
        log = self._run(runner, pursuit_config, tmp_path)
        assert runner.invoke(main, ["replay", str(log)]).exit_code == 0

    def test_fast_evader_run_ends_and_replays_clean(self, runner, tmp_path, monkeypatch):
        flee_step, calls = pursuit._flee_step, [0]

        def capped(*args):
            calls[0] += 1
            assert calls[0] <= 10_000, "the evader kept stepping after it stayed"
            return flee_step(*args)

        monkeypatch.setattr(pursuit, "_flee_step", capped)
        config, log = tmp_path / "fast.json", tmp_path / "fast.jsonl"
        config.write_text(json.dumps(canonical_with("pursuit.evaders[0].speed", 10**6)))
        result = runner.invoke(main, ["run", str(config), "--log", str(log)])
        # no robot is as fast as the evader, so its goals find no bidder
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert json.loads(result.output)["phase"] == "Failed"
        assert result.exit_code == 1
        assert runner.invoke(main, ["replay", str(log)]).exit_code == 0

    def _records(self, log: Path) -> list[dict]:
        return [json.loads(x) for x in log.read_text().splitlines()]

    def _diverges_at(self, runner, log: Path, records: list[dict], line: int, what: str) -> None:
        """Write `records` as the log; replay must exit 1 naming `line` and
        `what` record it holds."""
        log.write_text("".join(canonical_json(r) + "\n" for r in records))
        result = runner.invoke(main, ["replay", str(log)])
        assert result.exit_code == 1, result.output
        assert f"line {line} " in result.output and what in result.output, result.output

    def test_tampered_bid_detected(self, runner, generic_config, tmp_path):
        log = self._run(runner, generic_config, tmp_path)
        records = self._records(log)
        i = next(i for i, r in enumerate(records) if r.get("event") == "BidSubmitted")
        records[i]["data"]["bid"]["price"] = "999"
        self._diverges_at(runner, log, records, i + 1, f"event record (seq {records[i]['seq']})")

    def test_delivery_changed_to_drop_detected(self, runner, generic_config, tmp_path):
        log = self._run(runner, generic_config, tmp_path)
        records = self._records(log)
        i = next(i for i, r in enumerate(records) if r.get("outcome") == "deliver")
        records[i]["outcome"] = "drop"
        del records[i]["at"]
        self._diverges_at(runner, log, records, i + 1, "net record")

    def test_deleted_net_records_detected(self, runner, generic_config, tmp_path):
        log = self._run(runner, generic_config, tmp_path)
        records = self._records(log)
        first_net = next(i for i, r in enumerate(records) if r["type"] == "net")
        kept = [r for r in records if r["type"] != "net"]
        self._diverges_at(runner, log, kept, first_net + 1, "net record")

    def test_edited_end_metrics_detected(self, runner, pursuit_config, tmp_path):
        log = self._run(runner, pursuit_config, tmp_path)
        records = self._records(log)
        metrics = records[-1]["metrics"]
        metrics["messages_sent"] += 1
        metrics["capture_ticks"]["e1"] -= 1
        self._diverges_at(runner, log, records, len(records), "end record")

    def test_changed_decline_reason_detected(self, runner, generic_config, tmp_path):
        log = self._run(runner, generic_config, tmp_path)
        records = self._records(log)
        i = next(i for i, r in enumerate(records) if r["type"] == "decline")
        records[i]["reason"] = "forged"
        self._diverges_at(runner, log, records, i + 1, "decline record")

    def test_record_after_the_end_detected(self, runner, generic_config, tmp_path):
        log = self._run(runner, generic_config, tmp_path)
        records = self._records(log)
        extra = next(r for r in records if r["type"] == "net")
        self._diverges_at(runner, log, records + [extra], len(records) + 1, "net record")

    def test_truncated_log_exits_two(self, runner, generic_config, tmp_path):
        log = self._run(runner, generic_config, tmp_path)
        lines = log.read_text().splitlines()
        log.write_text("\n".join(lines[:-2]) + "\n")
        result = runner.invoke(main, ["replay", str(log)])
        assert result.exit_code == 2
        assert "truncated" in result.output

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_older_log_version_exits_two(self, runner, generic_config, tmp_path, version):
        log = self._run(runner, generic_config, tmp_path)
        records = self._records(log)
        records[0]["version"] = version
        log.write_text("".join(canonical_json(r) + "\n" for r in records))
        result = runner.invoke(main, ["replay", str(log)])
        assert result.exit_code == 2
        assert f"log version {version} cannot be replayed, only version 4" in result.output

    def _malformed(self, runner, log: Path, text: str, exit_code: int, *what: str) -> None:
        """Write `text` as the log; replay must exit `exit_code` and print
        each of `what`."""
        log.write_text(text)
        result = runner.invoke(main, ["replay", str(log)])
        assert result.exit_code == exit_code, result.output
        assert all(w in result.output for w in what), result.output

    def test_last_line_cut_mid_record_exits_two(self, runner, generic_config, tmp_path):
        log = self._run(runner, generic_config, tmp_path)
        text = log.read_text()
        self._malformed(runner, log, text[: len(text) - 10], 2, "has no newline")

    def test_first_line_not_a_header_exits_two(self, runner, generic_config, tmp_path):
        log = self._run(runner, generic_config, tmp_path)
        lines = log.read_text().splitlines(keepends=True)
        self._malformed(runner, log, "".join(lines[1:]), 2, "missing header record")

    def test_header_with_an_invalid_config_exits_two(self, runner, generic_config, tmp_path):
        log = self._run(runner, generic_config, tmp_path)
        records = self._records(log)
        records[0]["config"]["robots"] = []
        text = "".join(canonical_json(r) + "\n" for r in records)
        self._malformed(runner, log, text, 2, "header config invalid", "robots: at least one robot")

    @pytest.mark.parametrize(
        "line, what", [("garbage", "a line that is not JSON"), ("[1]", "a line that is not a record")]
    )
    def test_body_line_that_is_not_a_record_diverges(self, runner, generic_config, tmp_path, line, what):
        log = self._run(runner, generic_config, tmp_path)
        lines = log.read_text().splitlines(keepends=True)
        lines[3] = line + "\n"
        self._malformed(runner, log, "".join(lines), 1, "line 4 differs from the re-run: " + what)


class TestLogBlocks:
    """The log is written `eventlog.BLOCK_LINES` lines at a time."""

    def test_a_run_that_raises_leaves_every_record_before_it(self, runner, tmp_path, monkeypatch):
        """`close` writes the last partial block: a run whose 300th event
        raises leaves every record emitted before it in the log."""
        config = tmp_path / "long.json"
        config.write_text(json.dumps({
            "seed": 1,
            "max_ticks": 500,
            "robots": [{"id": "R1", "capabilities": [["Organization", "plan", 1],
                                                     ["Communication", "radio", 1],
                                                     ["Action", "weld", 1]]}],
            "task": {"id": "T", "reward": 30, "subtasks": [
                {"id": "t1", "reward": 10, "requires": [["Action", "weld", 1]], "duration": 400}]},
        }))
        full, cut = tmp_path / "full.jsonl", tmp_path / "cut.jsonl"
        assert runner.invoke(main, ["run", str(config), "--log", str(full)]).exit_code == 0
        step, calls = fm.step, [0]

        def raise_at_300(*args):
            calls[0] += 1
            if calls[0] == 300:
                raise RuntimeError("step 300")
            return step(*args)

        monkeypatch.setattr(fm, "step", raise_at_300)
        result = runner.invoke(main, ["run", str(config), "--log", str(cut)])
        assert isinstance(result.exception, RuntimeError)
        full_lines, cut_lines = full.read_bytes().splitlines(), cut.read_bytes().splitlines()
        assert cut.read_bytes().endswith(b"\n")
        assert len(cut_lines) > eventlog.BLOCK_LINES
        assert cut_lines == full_lines[: len(cut_lines)]
        events = [json.loads(line)["type"] == "event" for line in full_lines]
        assert sum(events[: len(cut_lines)]) == 299 and events[len(cut_lines)]

    def test_one_byte_changed_past_the_first_block_diverges(self, runner, tmp_path):
        log = tmp_path / "mr.jsonl"
        assert runner.invoke(main, ["run", str(MULTIROOT), "--log", str(log)]).exit_code == 0
        lines = log.read_bytes().splitlines(keepends=True)
        assert len(lines) == 322
        line = bytearray(lines[299])
        at = line.index(b'"tick":') + len(b'"tick":')
        line[at] = ord("9") if line[at] != ord("9") else ord("8")
        lines[299] = bytes(line)
        log.write_bytes(b"".join(lines))
        result = runner.invoke(main, ["replay", str(log)])
        assert result.exit_code == 1, result.output
        assert result.output.startswith("line 300 differs from the re-run"), result.output
