"""Config parsing: robots that repeat a capability list share one parsed set.

`config.from_dict` builds each distinct capability list once per call, and
the pursuit start poses of one robot kind share one magnitude table. These
tests hold that the sharing changes nothing a parse yields, keeps JSON types
apart, and does not outlive the call.
"""

from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from hwrom import config as cfg
from hwrom import formation as fm
from hwrom.cli import main
from hwrom.org_core import CapabilityKind

from corpus import FIXTURES, GOLDEN, random_pursuit_config, random_scenario, scenario_config


def fixture_configs() -> list[dict]:
    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        data = json.loads(path.read_text())
        if "robots" in data:
            data.pop("meta", None)
            out.append(data)
    return out


def corpus() -> list[dict]:
    return [
        *fixture_configs(),
        *(scenario_config(GOLDEN[name]) for name in sorted(GOLDEN)),
        *map(random_scenario, range(400)),
        *map(random_pursuit_config, range(400)),
    ]


def reference_robots(data: dict) -> list:
    """Each robot of `robots[]`, then each join's robot, parsed on its own."""
    robots = [cfg._build_robot(r, f"robots[{i}]", {}) for i, r in enumerate(data["robots"])]
    for i, entry in enumerate(data.get("events", [])):
        if entry["type"] == "join":
            robots.append(cfg._build_robot(entry["robot"], f"events[{i}].robot", {}))
    return robots


def test_shared_parse_equals_parsing_each_robot_on_its_own():
    configs = corpus()
    assert len(configs) > 800
    for data in configs:
        parsed = cfg.from_dict(data)
        joined = sorted(
            (e.robot for e in parsed.script if isinstance(e, fm.RobotJoined)), key=lambda r: r.id_cr
        )
        want = reference_robots(data)
        n = len(parsed.robots)
        assert parsed.robots == want[:n]
        assert joined == sorted(want[n:], key=lambda r: r.id_cr)
        by_id = {r.id_cr: r for r in want}
        if parsed.world is not None:
            for entry in data["pursuit"]["robots"]:
                rid = str(entry["id"])
                assert parsed.world.robots[rid] == fm.robot_pose(by_id[rid], tuple(entry["pos"]))
        for robot in [*parsed.robots, *joined]:
            robot.capability(CapabilityKind.MOVING)
            by_id[robot.id_cr].capability(CapabilityKind.MOVING)
            assert robot.magnitudes == by_id[robot.id_cr].magnitudes


@pytest.mark.parametrize("first", [1, 1.0, "1"])
def test_a_repeated_list_keeps_json_types_apart(tmp_path, first):
    # true would pass after a valid 1 if the memo keyed on equal values
    data = json.loads((FIXTURES / "canonical_pursuit.json").read_text())
    data["robots"][0]["capabilities"] = [["Moving", "speed", first]]
    data["robots"][1]["capabilities"] = [["Moving", "speed", True]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    result = CliRunner().invoke(main, ["run", str(path)])
    assert result.exit_code == 2, result.output
    assert "config error: robots[1].capabilities[0]: expected a rational number" in result.output


def test_robots_of_one_kind_share_one_set_and_one_table_within_a_parse_only():
    data = json.loads((FIXTURES / "canonical_pursuit.json").read_text())
    first, second = cfg.from_dict(data), cfg.from_dict(data)
    lists = {json.dumps(r["capabilities"]) for r in data["robots"]}
    assert len(lists) == 1 and len(first.robots) == 4
    for parsed in (first, second):
        assert len({id(r.capabilities) for r in parsed.robots}) == 1
        assert len({id(r.magnitudes) for r in parsed.robots}) == 1
        assert parsed.robots[0].magnitudes is not None
    # no cache across calls: the second parse builds its own
    assert first.robots[0].capabilities is not second.robots[0].capabilities
    assert first.robots[0].magnitudes is not second.robots[0].magnitudes
