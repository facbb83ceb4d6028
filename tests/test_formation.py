"""Formation machine tests: the happy path, dynamics, recovery, determinism."""

import json
from dataclasses import replace
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
from hwrom.wire import ENV

from conftest import (
    brute_force_feasible,
    cap,
    notes,
    noted,
    organizer_caps,
    req,
    robot,
    run_cli_logged,
    run_scenario,
    spec_scheduler,
    standard_instance,
)
from corpus import (
    FIXTURES,
    ORGANIZER,
    WELD,
    chain_config,
    one_unit_config,
    organizer_failure,
    random_pursuit_config,
)


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
        assert result.notes == [{"kind": "protocol_violation", "why": "locked_bid"}]
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

    def test_duplicate_and_late_bids_and_a_stale_close_are_noted_and_ignored(self):
        """A repeated bid, a bid after the window and a close of an earlier
        round change nothing. The scheduler never delivers a late bid (the
        close, queued when the round opened, comes first), so the steps are
        taken here by hand."""
        state = fm.new_state(
            [robot("R1", *organizer_caps(), cap("Action", "weld")), robot("R2", cap("Action", "weld"))],
            EngineParams(),
        )
        fm.register_task_tree(state, TaskNode("T", Fraction(20), frozenset({req("Action", "weld", 1)})))
        fm.step(state, fm.TaskArrived(tick=0, id_task="T"))
        fm.step(state, fm.Tick(tick=0))
        ann = state.active_auctions["T"].announcement
        bid = fm.consider_announcement(state, "R1", ann)
        late = replace(bid, bidder="R2")

        def step_notes(event):
            return fm.step(state, event).notes

        assert step_notes(fm.BidSubmitted(tick=1, bid=bid)) == [{"kind": "bid"}]
        assert step_notes(fm.BidSubmitted(tick=2, bid=bid)) == [{"kind": "duplicate_bid"}]
        assert step_notes(fm.BidSubmitted(tick=ann.deadline + 1, bid=late)) == [
            {"kind": "late_bid", "deadline": ann.deadline}
        ]
        assert step_notes(fm.AuctionClosed(tick=ann.deadline + 1, id_task="T", round=ann.round + 1)) == [
            {"kind": "close_stale"}
        ]
        assert list(state.active_auctions["T"].bids) == ["R1"]
        assert "award" in [
            n["kind"] for n in step_notes(fm.AuctionClosed(tick=ann.deadline + 1, id_task="T", round=ann.round))
        ]
        assert state.org.assignments["T"].assignee == "R1"

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
        state, sched = spec_scheduler(spec)
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
        state, sched = spec_scheduler(spec)
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
        state, sched = spec_scheduler(spec)
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
        state, sched = spec_scheduler(spec)
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
    done = [(rec["tick"], rec["data"]["id_task"]) for rec, _ in noted(records, "completed")]
    assert done[:2] == [(35, "t2"), (40, "t1")]


# --- a robot's completed work in its norms, and one unit per robot --------------------


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


def takeover_config(**changes) -> dict:
    """T leads a (reward 1, duration 5) and b (reward 10, duration 30). R1
    wins T and R2 wins b; a gets no bid at its first rewards and escalates
    while R1 fails at tick 12, so R2 is re-elected with a's auction open."""
    config = {
        "seed": 1,
        "max_ticks": 200,
        "robots": [
            {"id": "R1", "capabilities": ORGANIZER + WELD},
            {"id": "R2", "capabilities": ORGANIZER + WELD},
            {"id": "R3", "capabilities": WELD},
        ],
        "task": {"id": "T", "reward": 100, "subtasks": [
            {"id": "a", "reward": 1, "requires": WELD, "duration": 5},
            {"id": "b", "reward": 10, "requires": WELD, "duration": 30},
        ]},
        "costs": {"R1": {"T": 1, "a": 3, "b": 9}, "R2": {"T": 5, "a": 3, "b": 1},
                  "R3": {"T": 5, "a": 3, "b": 9}},
        "events": [{"at": 12, "type": "fail", "robot": "R1"}],
    }
    config.update(changes)
    return config


def logged_records(config: dict, tmp_path) -> list[dict]:
    exit_code, log_path = run_cli_logged(config, tmp_path)
    assert exit_code == 0
    assert eventlog.replay(log_path).ok
    return [json.loads(line) for line in log_path.read_text().splitlines()]


def awards(records) -> list[tuple[int, str, str]]:
    return [(rec["tick"], rec["data"]["id_task"], n["robot"]) for rec, n in noted(records, "award")]


def test_a_reelected_leader_takes_over_its_teams_open_auction(tmp_path):
    records = logged_records(takeover_config(), tmp_path)
    assert [tick for tick, _ in notes(records, "reelected")] == [12]
    late_rounds = [
        (r["tick"], r["sender"], r["outcome"])
        for r in records
        if r["type"] == "net" and r["kind"] == "announce" and r["tick"] > 12
    ]
    # rounds 2-5 of a go to R2 and R3 from the new leader, not the dead one
    assert late_rounds == [(t, "R2", "deliver") for t in (14, 14, 18, 18, 22, 22, 26, 26)]
    assert awards(records) == [(5, "T", "R1"), (10, "b", "R2"), (30, "a", "R3")]
    assert not notes(records, "give_up")
    assert (records[-1]["phase"], records[-1]["metrics"]["done_tick"]) == ("Done", 60)


def test_a_joiner_hears_an_open_round_from_the_new_leader(tmp_path):
    config = takeover_config(
        auction={"bid_window": 5},
        events=[
            {"at": 15, "type": "fail", "robot": "R1"},
            {"at": 16, "type": "join", "robot": {"id": "R4", "capabilities": WELD}},
        ],
    )
    records = logged_records(config, tmp_path)
    joiner = [
        (r["tick"], r["kind"], r["sender"], r["to"], r["outcome"])
        for r in records
        if r["type"] == "net" and "R4" in (r["sender"], r["to"])
    ]
    # R2 re-sends round 1, opened by R1 before it failed, and R4 answers R2
    assert joiner == [
        (16, "announce", "R2", "R4", "deliver"),
        (17, "bid", "R4", "R2", "deliver"),
        (20, "award", "R2", "R4", "deliver"),
        (20, "start_work", "__env__", "R4", "deliver"),
    ]
    assert awards(records)[-1] == (20, "a", "R4")
    end = records[-1]
    assert (end["phase"], end["metrics"]["done_tick"]) == ("Done", 50)
    assert end["metrics"]["utilities"] == {"R2": "989/10", "R4": "11/10"}


# --- rarely taken branches: each run ends Done with a valid org ---------------------------


def simulated(config_dict: dict) -> tuple[fm.FormationState, list[dict]]:
    """Run `config_dict` and return its final state and its log records."""
    records: list[dict] = []
    state, _ = eventlog.simulate(config.from_dict(config_dict), records.append)
    assert state.phase is Phase.DONE
    assert validate(state.org).ok, validate(state.org)
    return state, records


def test_a_reelection_without_offers_dissolves_the_team(monkeypatch):
    # R1 leads T and R2 leads c1; R3 may lead, but its cost for c1 is above
    # the reward, so when R2 fails nobody offers to lead c1
    decisions = []

    def priced(robot, ann, *args):
        decision = fm_compute_bid(robot, ann, *args)
        decisions.append((robot.id_cr, ann.id_task, ann.auctioneer, decision))
        return decision

    fm_compute_bid = fm.compute_bid
    monkeypatch.setattr(fm, "compute_bid", priced)
    _, records = simulated({
        "seed": 1,
        "max_ticks": 120,
        "robots": [
            {"id": "R1", "capabilities": ORGANIZER},
            {"id": "R2", "capabilities": ORGANIZER},
            {"id": "R3", "capabilities": ORGANIZER + WELD},
        ],
        "task": {"id": "T", "reward": 100, "subtasks": [
            {"id": "c1", "reward": 40, "subtasks": [
                {"id": "c1.1", "reward": 10, "requires": WELD, "duration": 30}]}]},
        "costs": {"R1": {"c1": 2}, "R3": {"c1": 1000}},
        "events": [{"at": 22, "type": "fail", "robot": "R2"}],
    })
    assert awards(records)[:3] == [(5, "T", "R1"), (10, "c1", "R2"), (15, "c1.1", "R3")]
    # R3 declines c1 in both of R1's auctions and in the election, which no
    # one announces, so it keeps the default auctioneer
    by_r3 = [(speaker, d.reason) for rid, t, speaker, d in decisions if (rid, t) == ("R3", "c1")]
    assert by_r3 == [("R1", "cost_exceeds_reward"), (ENV, "cost_exceeds_reward"), ("R1", "cost_exceeds_reward")]
    assert not notes(records, "reelected")
    assert [(tick, n["node"]) for tick, n in notes(records, "dissolved")] == [(22, "team:c1")]
    # c1 goes back to R1's queue and is auctioned again
    assert awards(records)[3:] == [(27, "c1", "R1"), (32, "c1.1", "R3")]


def test_a_pursuit_joiner_with_a_pose_is_placed_on_the_grid():
    canonical = json.loads((FIXTURES / "canonical_pursuit.json").read_text())
    canonical.pop("meta", None)
    joiner = {"id": "R9", "capabilities": canonical["robots"][0]["capabilities"]}
    canonical["events"] = [{"at": 3, "type": "join", "pos": [1, 1], "robot": joiner}]
    state, records = simulated(canonical)
    assert [tick for tick, _ in notes(records, "joined")] == [3]
    pose = state.world.robots["R9"]
    assert (pose.speed, pose.radius) == (1, 14)
    assert (6, "sg:e1:0", "R9") in awards(records)
    # the joiner makes the capture earlier than the canonical tick 14
    assert [n["tick"] for _, n in notes(records, "captured")] == [9]


def test_the_failure_of_the_robot_whose_unit_is_the_root():
    # R1 alone holds the atomic root T, so its unit is the whole org
    state, records = simulated({
        "seed": 1,
        "max_ticks": 120,
        "robots": [{"id": "R1", "capabilities": ORGANIZER + WELD}, {"id": "R2", "capabilities": ORGANIZER + WELD}],
        "task": {"id": "T", "reward": 30, "requires": WELD, "duration": 20},
        "events": [{"at": 8, "type": "fail", "robot": "R1"}],
    })
    revoked = [(tick, n["robot"]) for tick, n in notes(records, "revoked")]
    withdrew = [(rec["tick"], rec["data"]["robot"]) for rec, _ in noted(records, "withdrew")]
    assert revoked == withdrew == [(8, "R1")]
    assert awards(records) == [(5, "T", "R1"), (13, "T", "R2")]
    assert state.org.root.id_ros == "unit:R2" and not state.org.root.children


def test_an_evader_captured_while_its_tree_is_leaderless():
    # random_pursuit_config(93) with its organizer R1 failing at tick 1: the
    # society's new leader R2 leads capture:e0 and R3 capture:e1, nobody is
    # left to lead capture:e2 beside its own chain, and e2 is caught at tick
    # 18 while its root's auction is still open
    scenario = dict(random_pursuit_config(93), events=[{"at": 1, "type": "fail", "robot": "R1"}])
    state, records = simulated(scenario)
    unled = [(tick, n["task"]) for tick, n in notes(records, "captured_unled")]
    assert unled == [(18, "capture:e2")]
    assert "capture:e2" not in state.org.assignments
    assert state.status["capture:e2"] is TaskStatus.COMPLETED
    assert state.phase is Phase.DONE and state.status[fm.SOCIETY] is TaskStatus.COMPLETED


# --- one root per pursuit: the society -------------------------------------------------


def test_an_organizer_failing_before_its_first_capture_team_forms_is_replaced():
    # R1 plans e1 at tick 1 and fails in that tick; the society's re-election
    # hands e1's capture root to its new leader, who catches e1
    canonical = json.loads((FIXTURES / "canonical_pursuit.json").read_text())
    canonical.pop("meta", None)
    state, records = simulated(organizer_failure(canonical, 1))
    assert state.phase is Phase.DONE
    assert [(tick, n["evader"]) for tick, n in notes(records, "captured")] == [(24, "e1")]
    assert validate(state.org).ok


def test_every_capture_root_is_announced_again_after_the_organizer_fails():
    # every capture team dissolves with R1 at tick 2; the society's next
    # leader auctions each capture root again at tick 8, long before e1 and
    # e2 are caught
    records: list[dict] = []
    eventlog.simulate(config.from_dict(organizer_failure(random_pursuit_config(14), 2)), records.append)
    announced = [(tick, n["task"]) for tick, n in notes(records, "announce")]
    assert (8, "capture:e1") in announced and (8, "capture:e2") in announced


def test_a_capture_root_won_again_cannot_replace_the_org_root():
    # R1 fails at tick 2 and its capture roots are won again while others
    # are at auction: each one hangs under the society, so none replaces the
    # org root and no open auction loses the team it awards into
    scenario = random_pursuit_config(166)
    scenario["events"].append({"at": 2, "type": "fail", "robot": "R1"})
    state, _ = simulated(scenario)
    assert state.org.root.id_ros == f"team:{fm.SOCIETY}"


def test_the_last_evader_caught_unled_ends_the_mission():
    # random_pursuit_config(138) with R1 failing at tick 8: e0 and e1 are
    # caught at 8, R1's failure dissolves capture:e0's team in that tick,
    # and capture:e1 completes under its new leader. capture:e0 is finished
    # unled at 9, with no completion of its own to wake the society
    state, records = simulated(organizer_failure(random_pursuit_config(138), 8))
    assert [(tick, n["task"]) for tick, n in notes(records, "captured_unled")] == [(9, "capture:e0")]
    assert (state.phase, state.now) == (Phase.DONE, 9)
    assert state.status[fm.SOCIETY] is TaskStatus.COMPLETED


def test_a_goal_whose_holder_fails_in_its_capture_tick_is_not_auctioned_again():
    # random_pursuit_config(0): e0 is caught at 11 and its scripted R2
    # failure in that tick revokes sg:e0:0 after its completion was queued.
    # The next Tick supersedes the goal instead of auctioning it for an
    # evader already caught, and the mission ends
    state, records = simulated(random_pursuit_config(0))
    assert [(tick, n["evader"]) for tick, n in notes(records, "captured")] == [(11, "e0")]
    assert (12, "sg:e0:0") in [(tick, n["task"]) for tick, n in notes(records, "superseded_by_capture")]
    assert "sg:e0:0" not in [n["task"] for tick, n in notes(records, "announce") if tick > 11]
    assert (state.phase, state.now) == (Phase.DONE, 12)


def test_organizer_failures_leave_no_capture_root_without_an_owner(monkeypatch):
    """Over random pursuits with R1 failing at ticks 1-8 nothing raises, a
    capture root is Unassigned, unauctioned and unqueued only in a run that
    ended Failed, every Done org validates, the society completes only once
    every evader is caught, and a run that catches every evader ends Done."""
    step = fm.step

    def checked(state, event):
        result = step(state, event)
        world = state.world
        if state.status.get(fm.SOCIETY) is TaskStatus.COMPLETED:
            assert world.captured == world.evaders.keys(), state.now
        return result

    monkeypatch.setattr(fm, "step", checked)
    phases = set()
    for seed in range(400):
        state, _ = eventlog.simulate(
            config.from_dict(organizer_failure(random_pursuit_config(seed), 1 + seed % 8)), None
        )
        phases.add(state.phase)
        world = state.world
        assert world.captured != world.evaders.keys() or state.phase is Phase.DONE, seed
        queued = {p.id_task for p in state.pending}
        stranded = [
            t
            for t in state.org.subtasks.get(fm.SOCIETY, [])
            if state.status[t] is TaskStatus.UNASSIGNED
            and t not in state.active_auctions
            and t not in queued
        ]
        assert not stranded or state.phase is Phase.FAILED, (seed, stranded)
        if state.phase is Phase.DONE and state.org.root is not None:
            assert validate(state.org).ok, seed
    assert {Phase.DONE, Phase.FAILED} <= phases
