"""Cross-cutting invariants checked over whole runs."""

from fractions import Fraction

from hwrom import formation as fm
from hwrom import org_core, simnet

from conftest import build_robots, build_task, make_instance, noted, run_scenario
from corpus import FIXTURES, probe

LEVEL_CODES = {"LevelSkew", "RootLevelNotZero", "PositionMismatch", "LeaderMismatch"}


def test_level_discipline_after_every_step():
    """validate() never reports level violations at any point of a run."""

    def check(state, rec):
        # the scheduler records each event right after its transition
        if rec["type"] != "event" or state.org.root is None:
            return
        codes = org_core.validate(state.org).codes()
        assert not (codes & LEVEL_CODES), (rec["event"], rec["tick"], codes)
        checked.append(rec["seq"])

    checked: list[int] = []
    run_scenario(make_instance(3), until=120, observe=check)
    assert checked


@probe(covers=lambda name: name.endswith("/leader_failure"))
def level_geometry(mp, run):
    """After each transition, note the level geometry `validate` reports. A
    failed leader leaves its node unbound until the same-transition
    re-election resolves, so only level geometry is checked here."""
    step = fm.step

    def checked(state, event):
        result = step(state, event)
        if state.org.root is not None:
            run.seen["levels"] += 1
            codes = org_core.validate(state.org).codes() & LEVEL_CODES - {"LeaderMismatch"}
            if codes:
                run.find("levels", state.now, sorted(codes))
        return result

    mp.setattr(fm, "step", checked)


def test_level_discipline_through_leader_failure(walk):
    runs = [f"{path.stem}/leader_failure" for path in sorted(FIXTURES.glob("pursuit_*.json"))]
    assert walk.assert_clean("levels", runs)["levels"]
    assert walk.run("pursuit_00/leader_failure").state.phase is fm.Phase.DONE


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
        state, trace = run_scenario(spec, until=300)
        if state.phase is not fm.Phase.DONE:
            continue
        for _, note in noted(trace, "mission_done"):
            assert sum(Fraction(v) for v in note["utilities"].values()) == Fraction(spec["task"]["reward"])
            checked += 1
    assert checked >= 10
