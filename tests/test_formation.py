"""Formation machine tests: the happy path, dynamics, recovery, determinism."""

import json
from fractions import Fraction

import pytest

from hwrom import formation as fm
from hwrom import config, eventlog, org_core, simnet
from hwrom.formation import (
    EngineParams,
    FormationError,
    DuplicateRobotIdError,
    Phase,
    ProtocolViolationError,
    WithdrawReason,
)
from hwrom.market import AdjustPolicy, Bid
from hwrom.org_core import TaskNode, TaskStatus, validate
from hwrom.rules_engine import ConstraintKind, ConstraintRelation

from conftest import (
    brute_force_feasible,
    build_constraints,
    build_robots,
    build_task,
    cap,
    req,
    robot,
    run_cli_logged,
    standard_instance,
)


def params_for(spec: dict, **kw) -> EngineParams:
    return EngineParams(
        cost_table={k: Fraction(v) for k, v in spec.get("costs", {}).items()},
        constraints=build_constraints(spec),
        **kw,
    )


def run_scenario(spec: dict, script=(), until=200, stop_at_formed=False, net=None):
    state = fm.new_state(build_robots(spec), params_for(spec))
    fm.register_task_tree(state, build_task(spec["task"]))
    sched = simnet.Scheduler(state, net or simnet.NetConfig())
    sched.push_event(fm.TaskArrived(tick=0, id_task=spec["task"]["id"]))
    for ev in script:
        sched.push_event(ev)
    stop_phases = (
        (Phase.EXECUTING, Phase.DONE, Phase.FAILED)
        if stop_at_formed
        else (Phase.DONE, Phase.FAILED)
    )
    sched.run(until=until, stop_when=lambda s: s.phase in stop_phases)
    return state, sched.trace


def notes(trace, *kinds):
    out = []
    for rec in trace:
        if rec.get("type") != "event":
            continue
        for note in rec["detail"]["notes"]:
            if note["kind"] in kinds:
                out.append((rec["tick"], note))
    return out


class TestForm:
    def test_single_capable_robot_atomic_task(self):
        r1 = robot("R1", *[cap("Organization", "plan"), cap("Communication", "radio"),
                           cap("Action", "weld", 2)])
        org = fm.form(TaskNode("T", Fraction(10),
                               frozenset({req("Action", "weld", 1)})), [r1])
        assert org.root is not None and org.root.is_leaf
        assert org.root.level_i == 0
        assert org.root.id_robot == "R1"
        assert validate(org).ok

    def test_no_organizer_capable_robot_fails(self):
        r1 = robot("R1", cap("Action", "weld", 3))
        with pytest.raises(FormationError):
            fm.form(TaskNode("T", Fraction(10), subtasks=[
                TaskNode("t1", Fraction(5), frozenset({req("Action", "weld", 1)}))]), [r1])

    def test_no_robots_fails(self):
        with pytest.raises(FormationError):
            fm.form(TaskNode("T", Fraction(10)), [])

    def test_three_subtasks_four_robots(self, standard_instance):
        state, _ = run_scenario(standard_instance, stop_at_formed=True)
        org = state.org
        assert state.phase is Phase.EXECUTING
        assert org.root.id_robot == "R1"
        assert len(org.root.children) == 4  # leader element + 3 members
        assert {a.assignee for a in org.assignments.values()} == {"R1", "R2", "R3", "R4"}
        assert validate(org).ok
        assert brute_force_feasible(standard_instance)

    def test_formation_matches_oracle_on_infeasible_instance(self):
        spec = {
            "robots": [
                {"id": "R1", "caps": [("Organization", "plan", 1), ("Communication", "radio", 1)]},
            ],
            "task": {"id": "T", "reward": 10, "requires": [], "subtasks": [
                {"id": "t1", "reward": 5, "requires": [("Action", "weld", 1)], "subtasks": []},
            ]},
            "constraints": [],
            "costs": {},
        }
        assert not brute_force_feasible(spec)
        state, _ = run_scenario(spec, stop_at_formed=True)
        assert state.phase is Phase.FAILED

    def test_determinism_same_inputs_same_hash(self, standard_instance):
        a, _ = run_scenario(standard_instance)
        b, _ = run_scenario(standard_instance)
        assert fm.state_hash(a) == fm.state_hash(b)
        assert org_core.snapshot_hash(a.org) == org_core.snapshot_hash(b.org)

    def test_mission_completes_and_settles(self, standard_instance):
        state, trace = run_scenario(standard_instance)
        assert state.phase is Phase.DONE
        done = notes(trace, "mission_done")
        assert len(done) == 1
        utilities = {r: Fraction(v) for r, v in done[0][1]["utilities"].items()}
        assert sum(utilities.values()) == Fraction(30)  # root task reward


class TestStepProtocol:
    def test_locked_robot_bid_is_logged_and_ignored(self, standard_instance):
        state, _ = run_scenario(standard_instance, stop_at_formed=True)
        # R2 won t1 and has not completed it; forge a bid from it
        state.active_auctions["fake"] = fm.AuctionState(
            announcement=__import__("hwrom.market", fromlist=["Announcement"]).Announcement(
                "fake", Fraction(5), frozenset(), 0, state.now + 3
            ),
            parent_node=None,
        )
        state.tasks["fake"] = TaskNode("fake", Fraction(5))
        forged = Bid("R2", "fake", Fraction(1), Fraction(0), 0, sent_at=state.now)
        result = fm.step(state, fm.BidSubmitted(tick=state.now, bid=forged))
        kinds = [n["kind"] for n in result.notes]
        assert "protocol_violation" in kinds
        assert not state.active_auctions["fake"].bids

    def test_bid_for_unknown_auction_raises(self, standard_instance):
        state, _ = run_scenario(standard_instance, stop_at_formed=True)
        with pytest.raises(ProtocolViolationError):
            fm.step(
                state,
                fm.BidSubmitted(
                    tick=state.now,
                    bid=Bid("R2", "no-such-task", Fraction(1), Fraction(0), 0),
                ),
            )

    def test_out_of_order_event_raises(self, standard_instance):
        state, _ = run_scenario(standard_instance, stop_at_formed=True)
        with pytest.raises(ProtocolViolationError):
            fm.step(state, fm.Tick(tick=state.now - 5))

    def test_empty_auction_escalates(self):
        spec = {
            "robots": [
                {"id": "R1", "caps": [("Organization", "plan", 1), ("Communication", "radio", 1)]},
                {"id": "R2", "caps": [("Action", "weld", 1), ("Communication", "radio", 1)]},
            ],
            # nobody can sense, so t2's auction keeps escalating
            "task": {"id": "T", "reward": 20, "requires": [], "subtasks": [
                {"id": "t2", "reward": 5, "requires": [("Sensing", "vision", 1)], "subtasks": []},
            ]},
            "constraints": [],
            "costs": {},
        }
        state, trace = run_scenario(spec, until=80)
        escalations = notes(trace, "escalate")
        assert escalations, "expected adjust tactics to re-announce"
        rewards = [Fraction(n["reward"]) for _, n in escalations]
        assert rewards == sorted(rewards)
        assert state.phase is Phase.FAILED  # give-up then no feasible re-plan


class TestWithdrawal:
    def test_unknown_robot_is_noop(self, standard_instance):
        state, _ = run_scenario(standard_instance, stop_at_formed=True)
        before = fm.state_hash(state)
        result = fm.handle_withdrawal(state, "R99", WithdrawReason.UNWILLING)
        assert [n["kind"] for n in result.notes] == ["withdraw_noop"]
        assert fm.state_hash(state) == before

    def test_member_withdrawal_reannounces_next_tick(self):
        # R5 joins the pool as a backup welder so the re-auction can fill
        spec = {
            "robots": [
                {"id": "R1", "caps": [("Organization", "plan", 1), ("Communication", "radio", 1)]},
                {"id": "R2", "caps": [("Action", "weld", 2), ("Communication", "radio", 1)]},
                {"id": "R5", "caps": [("Action", "weld", 1), ("Communication", "radio", 1)]},
            ],
            "task": {"id": "T", "reward": 20, "requires": [], "subtasks": [
                {"id": "t1", "reward": 8, "requires": [("Action", "weld", 1)],
                 "subtasks": [], "duration": 30},
            ]},
            "constraints": [],
            "costs": {("R2", "t1"): 1, ("R5", "t1"): 3},
        }
        state = fm.new_state(build_robots(spec), params_for(spec))
        fm.register_task_tree(state, build_task(spec["task"]))
        sched = simnet.Scheduler(state, simnet.NetConfig())
        sched.push_event(fm.TaskArrived(tick=0, id_task="T"))
        sched.run(until=30, stop_when=lambda s: s.phase is Phase.EXECUTING)
        assert state.org.assignments["t1"].assignee == "R2"
        withdraw_tick = state.now + 1
        sched.push_event(fm.RobotWithdrew(tick=withdraw_tick, robot="R2"))
        sched.run(until=withdraw_tick + 8)
        announce_ticks = [
            tick for tick, note in notes(sched.trace, "announce") if note["task"] == "t1"
        ]
        assert announce_ticks.count(withdraw_tick + 1) == 1
        assert announce_ticks[-1] == withdraw_tick + 1
        assert state.org.assignments["t1"].assignee == "R5"

    def test_withdrawn_robot_removed_from_relations(self, standard_instance):
        state, _ = run_scenario(standard_instance, stop_at_formed=True)
        fm.handle_withdrawal(state, "R2", WithdrawReason.UNWILLING)
        assert all("R2" not in (r.a, r.b) for r in state.org.relations)

    def test_completed_work_is_untouched_by_withdrawal(self, standard_instance):
        state, _ = run_scenario(standard_instance)  # run to DONE
        assert state.phase is Phase.DONE
        before = dict(state.org.assignments)
        fm.handle_withdrawal(state, "R2", WithdrawReason.UNWILLING)
        assert state.org.assignments == before


class TestReelection:
    def reelect_spec(self):
        caps_member = [("Organization", "plan", 1), ("Communication", "radio", 1),
                       ("Action", "weld", 1)]
        return {
            "robots": [
                {"id": "R1", "caps": [("Organization", "plan", 1), ("Communication", "radio", 1)]},
                {"id": "R4", "caps": caps_member},
                {"id": "R9", "caps": caps_member},
            ],
            "task": {"id": "T", "reward": 30, "requires": [], "subtasks": [
                {"id": "t1", "reward": 9, "requires": [("Action", "weld", 1)], "subtasks": []},
                {"id": "t2", "reward": 9, "requires": [("Action", "weld", 1)], "subtasks": []},
            ]},
            "constraints": [],
            # equal leadership costs so re-election falls to the id tie-break
            "costs": {("R4", "t1"): 1, ("R9", "t1"): 4, ("R4", "t2"): 4, ("R9", "t2"): 1,
                      ("R4", "T"): 2, ("R9", "T"): 2},
        }

    def test_leader_failure_triggers_reelection_tiebreak(self):
        spec = self.reelect_spec()
        state = fm.new_state(build_robots(spec), params_for(spec))
        fm.register_task_tree(state, build_task(spec["task"]))
        sched = simnet.Scheduler(state, simnet.NetConfig())
        sched.push_event(fm.TaskArrived(tick=0, id_task="T"))
        sched.run(until=40, stop_when=lambda s: s.phase is Phase.EXECUTING)
        assert state.org.root.id_robot == "R1"
        fail_tick = state.now + 1
        sched.inject_failure("R1", fail_tick)
        sched.run(until=fail_tick + 10)
        reelected = notes(sched.trace, "reelected")
        assert reelected and reelected[0][1]["robot"] == "R4"  # R4 < R9 at equal price
        assert state.org.root.id_robot == "R4"
        assert state.org.root.children[0].id_robot == "R4"
        level_codes = {"LevelSkew", "RootLevelNotZero", "PositionMismatch"}
        assert not (validate(state.org).codes() & level_codes)

    def test_dissolution_when_no_candidate(self):
        spec = self.reelect_spec()
        # strip organization ability from the members
        for r in spec["robots"][1:]:
            r["caps"] = [("Communication", "radio", 1), ("Action", "weld", 1)]
        state = fm.new_state(build_robots(spec), params_for(spec))
        fm.register_task_tree(state, build_task(spec["task"]))
        sched = simnet.Scheduler(state, simnet.NetConfig())
        sched.push_event(fm.TaskArrived(tick=0, id_task="T"))
        sched.run(until=40, stop_when=lambda s: s.phase is Phase.EXECUTING)
        fail_tick = state.now + 1
        sched.inject_failure("R1", fail_tick)
        sched.run(until=fail_tick + 6)
        dissolved = notes(sched.trace, "dissolved")
        assert dissolved
        assert state.status["T"] in (TaskStatus.UNASSIGNED, TaskStatus.ANNOUNCED)


class TestJoin:
    def test_idle_join_grows_pool(self, standard_instance):
        state, _ = run_scenario(standard_instance, stop_at_formed=True)
        org_before = org_core.snapshot_hash(state.org)
        fm.handle_join(state, robot("R9", cap("Action", "weld", 1)))
        assert "R9" in state.pool
        assert org_core.snapshot_hash(state.org) == org_before

    def test_duplicate_join_rejected(self, standard_instance):
        state, _ = run_scenario(standard_instance, stop_at_formed=True)
        with pytest.raises(DuplicateRobotIdError):
            fm.handle_join(state, robot("R1"))

    def test_late_joiner_with_lowest_cost_wins_open_auction(self):
        spec = {
            "robots": [
                {"id": "R1", "caps": [("Organization", "plan", 1), ("Communication", "radio", 1)]},
                {"id": "R2", "caps": [("Action", "weld", 1), ("Communication", "radio", 1)]},
            ],
            "task": {"id": "T", "reward": 20, "requires": [], "subtasks": [
                {"id": "t1", "reward": 10, "requires": [("Action", "weld", 1)], "subtasks": []},
            ]},
            "constraints": [],
            "costs": {("R2", "t1"): 5, ("R9", "t1"): 1},
        }
        state = fm.new_state(build_robots(spec), params_for(spec))
        fm.register_task_tree(state, build_task(spec["task"]))
        sched = simnet.Scheduler(state, simnet.NetConfig())
        sched.push_event(fm.TaskArrived(tick=0, id_task="T"))
        # t1 is announced at tick 6 with a 3-tick window; join right after announce
        joiner = robot("R9", cap("Action", "weld", 1), cap("Communication", "radio"))
        sched.push_event(fm.RobotJoined(tick=7, robot=joiner))
        sched.run(until=40, stop_when=lambda s: s.phase is Phase.EXECUTING)
        assert state.org.assignments["t1"].assignee == "R9"


class TestAdjustmentPaths:
    def test_redecompose_uses_declared_alternative(self):
        # nobody can do "assemble" whole; the alternative splits it in two
        task = TaskNode(
            "T",
            Fraction(30),
            subtasks=[
                TaskNode(
                    "big",
                    Fraction(10),
                    frozenset({req("Action", "assemble", 5)}),
                    alternatives=[[
                        TaskNode("small1", Fraction(5), frozenset({req("Action", "weld", 1)})),
                        TaskNode("small2", Fraction(5), frozenset({req("Sensing", "vision", 1)})),
                    ]],
                )
            ],
        )
        robots = [
            robot("R1", cap("Organization", "plan"), cap("Communication", "radio")),
            robot("R2", cap("Action", "weld", 2), cap("Communication", "radio")),
            robot("R3", cap("Sensing", "vision", 2), cap("Communication", "radio")),
        ]
        state = fm.new_state(robots, EngineParams(policy=AdjustPolicy(max_reward_rounds=1,
                                                                      max_total_rounds=3)))
        fm.register_task_tree(state, task)
        sched = simnet.Scheduler(state, simnet.NetConfig())
        sched.push_event(fm.TaskArrived(tick=0, id_task="T"))
        sched.run(until=120, stop_when=lambda s: s.phase in (Phase.DONE, Phase.FAILED))
        assert state.phase is Phase.DONE
        redecomposed = notes(sched.trace, "redecompose")
        assert redecomposed and redecomposed[0][1]["pieces"] == ["small1", "small2"]
        assert state.status["big"] is TaskStatus.FAILED  # superseded
        assert state.org.assignments["small1"].assignee == "R2"
        assert state.org.assignments["small2"].assignee == "R3"

    def test_allocation_fallback_resolves_lock_deadlock(self):
        # A wins t1 cheaply and locks; t2 only A can do, and Parallel forbids
        # A holding both. The auction path dies; the leader's allocation right
        # re-plans the lot: B takes t1, A takes t2.
        spec = {
            "robots": [
                {"id": "O", "caps": [("Organization", "plan", 1), ("Communication", "radio", 1)]},
                {"id": "A", "caps": [("Action", "weld", 1), ("Sensing", "vision", 1),
                                      ("Communication", "radio", 1)]},
                {"id": "B", "caps": [("Action", "weld", 1), ("Communication", "radio", 1)]},
            ],
            "task": {"id": "T", "reward": 30, "requires": [], "subtasks": [
                {"id": "t1", "reward": 10, "requires": [("Action", "weld", 1)], "subtasks": []},
                {"id": "t2", "reward": 10, "requires": [("Sensing", "vision", 1)], "subtasks": []},
            ]},
            "constraints": [("t1", "t2", "Parallel")],
            "costs": {("A", "t1"): 1, ("B", "t1"): 5, ("A", "t2"): 1},
        }
        assert brute_force_feasible(spec)
        state, trace = run_scenario(spec, until=300)
        assert state.phase is Phase.DONE
        assert notes(trace, "allocated"), "expected the allocation fallback to run"
        assert state.org.assignments["t2"].assignee == "A"
        assert state.org.assignments["t1"].assignee == "B"
        assert validate(state.org).ok

    def test_fewest_members_preference_in_allocation(self):
        # without the Parallel constraint the re-plan prefers the smaller team:
        # A simply takes both halves
        spec = {
            "robots": [
                {"id": "O", "caps": [("Organization", "plan", 1), ("Communication", "radio", 1)]},
                {"id": "A", "caps": [("Action", "weld", 1), ("Sensing", "vision", 1),
                                      ("Communication", "radio", 1)]},
                {"id": "B", "caps": [("Action", "weld", 1), ("Communication", "radio", 1)]},
            ],
            "task": {"id": "T", "reward": 30, "requires": [], "subtasks": [
                {"id": "t1", "reward": 10, "requires": [("Action", "weld", 1)], "subtasks": []},
                {"id": "t2", "reward": 10, "requires": [("Sensing", "vision", 1)], "subtasks": []},
            ]},
            "constraints": [],
            "costs": {("A", "t1"): 1, ("B", "t1"): 5, ("A", "t2"): 1},
        }
        state, trace = run_scenario(spec, until=300)
        assert state.phase is Phase.DONE
        assert notes(trace, "allocated")
        assert state.org.assignments["t1"].assignee == "A"
        assert state.org.assignments["t2"].assignee == "A"
        assert "B" not in {a.assignee for a in state.org.assignments.values()}

    def test_sequence_coassignment_via_allocation(self):
        # only A can do both halves; Sequence allows it on one robot
        spec = {
            "robots": [
                {"id": "O", "caps": [("Organization", "plan", 1), ("Communication", "radio", 1)]},
                {"id": "A", "caps": [("Action", "weld", 1), ("Communication", "radio", 1)]},
            ],
            "task": {"id": "T", "reward": 30, "requires": [], "subtasks": [
                {"id": "t1", "reward": 10, "requires": [("Action", "weld", 1)], "subtasks": []},
                {"id": "t2", "reward": 10, "requires": [("Action", "weld", 1)], "subtasks": []},
            ]},
            "constraints": [("t1", "t2", "Sequence")],
            "costs": {},
        }
        assert brute_force_feasible(spec)
        state, _ = run_scenario(spec, until=300)
        assert state.phase is Phase.DONE
        assert state.org.assignments["t1"].assignee == "A"
        assert state.org.assignments["t2"].assignee == "A"

    def test_parallel_coassignment_never_happens(self):
        spec = {
            "robots": [
                {"id": "O", "caps": [("Organization", "plan", 1), ("Communication", "radio", 1)]},
                {"id": "A", "caps": [("Action", "weld", 1), ("Communication", "radio", 1)]},
            ],
            "task": {"id": "T", "reward": 30, "requires": [], "subtasks": [
                {"id": "t1", "reward": 10, "requires": [("Action", "weld", 1)], "subtasks": []},
                {"id": "t2", "reward": 10, "requires": [("Action", "weld", 1)], "subtasks": []},
            ]},
            "constraints": [("t1", "t2", "Parallel")],
            "costs": {},
        }
        assert not brute_force_feasible(spec)
        state, _ = run_scenario(spec, until=300, stop_at_formed=True)
        assert state.phase is Phase.FAILED

    def test_parallel_outside_the_rules_pool_binds_no_path(self):
        # the pool lacks no_parallel_coassignment, so the Parallel pair forbids
        # nothing: the winner lock stalls the auction for b, and the fallback
        # gives R1 both leaves
        scenario = config.from_dict({
            "robots": [{"id": "R1", "capabilities": [
                ["Organization", "plan", 1], ["Communication", "radio", 1], ["Action", "weld", 1]]}],
            "rules": [
                {"id": "bidding.winner-lock", "category": "Bidding", "predicate": "winner_lock"},
                {"id": "selection.least-reward", "category": "Selection", "predicate": "least_reward"},
            ],
            "task": {"id": "T", "reward": 30, "subtasks": [
                {"id": "a", "reward": 10, "requires": [["Action", "weld", 1]]},
                {"id": "b", "reward": 10, "requires": [["Action", "weld", 1]]},
            ]},
            "constraints": [{"a": "a", "b": "b", "kind": "Parallel"}],
        })
        state, _ = eventlog.simulate(scenario)
        assert (state.phase, state.now) == (Phase.DONE, 32)
        assert state.org.assignments["a"].assignee == state.org.assignments["b"].assignee == "R1"
        assert state.org.assignments["b"].mode is org_core.AssignmentMode.ALLOCATED


def test_priority_orders_a_robots_execution():
    # R1 holds both leaves; Priority puts t2 before t1, against id order
    leaf = {"reward": 10, "requires": [["Action", "weld", 1]], "duration": 5}
    scenario = config.from_dict({
        "robots": [{"id": "R1", "capabilities": [
            ["Organization", "plan", 1], ["Communication", "radio", 1], ["Action", "weld", 1]]}],
        "task": {"id": "T", "reward": 60, "subtasks": [dict(leaf, id="t1"), dict(leaf, id="t2")]},
        "constraints": [{"a": "t2", "b": "t1", "kind": "Priority"}],
    })
    records: list[dict] = []
    state, _ = eventlog.simulate(scenario, records.append)
    assert state.phase is Phase.DONE
    done = [(tick, note["task"]) for tick, note in notes(records, "completed")]
    assert done[:2] == [(35, "t2"), (40, "t1")]


# --- a robot's completed work in its norms, and one unit per robot --------------------

LEAD = [["Organization", "plan", 1], ["Communication", "radio", 1]]
WELD = [["Action", "weld", 1]]


def two_team_config(robots: dict[str, list], costs: dict, fail: str) -> dict:
    """T leads X (over leaf a, duration 1) and Y (over leaf b, duration 30);
    `fail` fails at tick 25, while b is still running."""
    leaf = {"reward": 10, "requires": WELD}
    return {
        "seed": 1,
        "max_ticks": 200,
        "robots": [{"id": r, "capabilities": caps} for r, caps in robots.items()],
        "task": {"id": "T", "reward": 100, "subtasks": [
            {"id": "X", "reward": 10, "subtasks": [dict(leaf, id="a", duration=1)]},
            {"id": "Y", "reward": 10, "subtasks": [dict(leaf, id="b", duration=30)]},
        ]},
        "costs": costs,
        "events": [{"at": 25, "type": "fail", "robot": fail}],
    }


def chain_config() -> dict:
    """R1 leads X and completes it; once R2 fails, only R1 can lead Y."""
    return two_team_config(
        {"R1": LEAD + WELD, "R2": LEAD + WELD, "R3": WELD},
        {"R1": {"X": 1, "Y": 25, "a": 5, "b": 9}, "R2": {"X": 25, "Y": 1, "a": 9, "b": 1},
         "R3": {"a": 1, "b": 9}},
        fail="R2",
    )


def one_unit_config() -> dict:
    """R2 completes a in team:X, then wins Y once R4 fails."""
    return two_team_config(
        {"R1": LEAD + WELD, "R2": LEAD + WELD, "R3": WELD, "R4": LEAD},
        {"R1": {"T": 1, "X": 1, "Y": 25, "a": 9, "b": 9},
         "R2": {"T": 9, "X": 25, "Y": 20, "a": 1, "b": 9},
         "R3": {"a": 9, "b": 1}, "R4": {"T": 9, "X": 25, "Y": 1}},
        fail="R4",
    )


def test_a_completed_composite_keeps_its_leader_out_of_a_sibling_team(tmp_path):
    # R1 led X, now completed, so it may not lead X's sibling Y: the auction
    # refuses it, and so must the allocation fallback, which is left with no
    # other leader for Y
    exit_code, log_path = run_cli_logged(chain_config(), tmp_path)
    assert exit_code == 1
    records = [json.loads(line) for line in log_path.read_text().splitlines()]
    declines = [
        (r["robot"], r["task"]) for r in records
        if r.get("type") == "decline" and r["reason"] == "leadership_chain"
    ]
    assert declines == [("R1", "Y")] * 6
    assert not notes(records, "allocated")
    ending = [(tick, note["kind"]) for tick, note in notes(records, "give_up", "formation_failed")]
    assert ending == [(50, "give_up"), (50, "formation_failed")]
    assert records[-1]["phase"] == "Failed"
    assert eventlog.replay(log_path).ok


def test_a_new_leader_keeps_its_one_unit():
    # R2's unit moves from team:X into team:Y instead of being made a second time
    state, _ = eventlog.simulate(config.from_dict(one_unit_config()))
    assert (state.phase, state.now) == (Phase.DONE, 81)
    assert state.org.assignments["Y"].assignee == state.org.assignments["a"].assignee == "R2"
    assert validate(state.org).ok, validate(state.org)
    units = [n.id_ros for n in state.org.root.walk() if n.id_ros.startswith("unit:")]
    assert sorted(units) == ["unit:R1", "unit:R2", "unit:R3"]
