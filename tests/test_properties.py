"""Cross-cutting invariants checked over whole runs."""

import json
from fractions import Fraction
from pathlib import Path

from hwrom import config as cfg
from hwrom import formation as fm
from hwrom import org_core, simnet

from conftest import build_constraints, build_robots, build_task, make_instance

FIXTURES = Path(__file__).parent / "fixtures"

LEVEL_CODES = {"LevelSkew", "RootLevelNotZero", "PositionMismatch", "LeaderMismatch"}


def test_level_discipline_after_every_step():
    """validate() never reports level violations at any point of a run."""
    spec = make_instance(3)
    state = fm.new_state(
        build_robots(spec),
        fm.EngineParams(
            cost_table={k: Fraction(v) for k, v in spec["costs"].items()},
            constraints=build_constraints(spec),
        ),
    )
    fm.register_task_tree(state, build_task(spec["task"]))

    def check(rec):
        # the scheduler records each event right after its transition
        if rec["type"] != "event" or state.org.root is None:
            return
        codes = org_core.validate(state.org).codes()
        assert not (codes & LEVEL_CODES), (rec["event"], rec["tick"], codes)
        checked.append(rec["seq"])

    checked: list[int] = []
    sched = simnet.Scheduler(state, simnet.NetConfig(), record=check)
    sched.push_event(fm.TaskArrived(tick=0, id_task="T"))
    sched.run(until=120, stop_when=lambda s: s.phase in (fm.Phase.DONE, fm.Phase.FAILED))
    assert checked


def test_level_discipline_through_leader_failure():
    path = FIXTURES / "pursuit_00.json"
    raw = json.loads(path.read_text())
    meta = raw.pop("meta")
    scenario = cfg.from_dict(raw)
    state = scenario.build_state()

    def check(rec):
        # the scheduler records each event right after its transition
        if rec["type"] != "event" or state.org.root is None:
            return
        codes = org_core.validate(state.org).codes()
        # a failed leader leaves the node unbound until the same-transition
        # re-election resolves, so only level geometry is asserted here
        assert not (codes & {"LevelSkew", "RootLevelNotZero", "PositionMismatch"})
        checked.append(rec["seq"])

    checked: list[int] = []
    sched = simnet.Scheduler(state, scenario.net, record=check)
    scenario.schedule(sched)
    sched.inject_failure(meta["leader"], meta["leader_fail_tick"])
    sched.run(until=scenario.max_ticks, stop_when=lambda s: s.phase is fm.Phase.DONE)
    assert state.phase is fm.Phase.DONE
    assert checked


def test_simnet_module_level_surface():
    spec = make_instance(3)
    state = fm.new_state(build_robots(spec), fm.EngineParams())
    fm.register_task_tree(state, build_task(spec["task"]))
    sched = simnet.Scheduler(state, simnet.NetConfig())
    event = sched.inject_failure(spec["robots"][0]["id"], 5)
    assert isinstance(event, fm.RobotFailed)
    trace = sched.run(6)
    assert any(r.get("event") == "RobotFailed" for r in trace if r["type"] == "event")


def test_settlement_conservation_over_random_missions():
    """Total settled income equals the external payouts of completed roots."""
    checked = 0
    for seed in range(40):
        spec = make_instance(seed)
        state = fm.new_state(
            build_robots(spec),
            fm.EngineParams(
                cost_table={k: Fraction(v) for k, v in spec["costs"].items()},
                constraints=build_constraints(spec),
            ),
        )
        fm.register_task_tree(state, build_task(spec["task"]))
        sched = simnet.Scheduler(state, simnet.NetConfig())
        sched.push_event(fm.TaskArrived(tick=0, id_task="T"))
        sched.run(until=300, stop_when=lambda s: s.phase in (fm.Phase.DONE, fm.Phase.FAILED))
        if state.phase is not fm.Phase.DONE:
            continue
        for rec in sched.trace:
            if rec.get("type") != "event":
                continue
            for note in rec["detail"]["notes"]:
                if note["kind"] == "mission_done":
                    total = sum(Fraction(v) for v in note["utilities"].values())
                    assert total == Fraction(spec["task"]["reward"])
                    checked += 1
    assert checked >= 10
