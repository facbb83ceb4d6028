"""Behavior norm tests: assignment checks, rule intersection, preference, lock."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from hwrom import config as cfg
from hwrom import formation as fm
from hwrom import simnet
from hwrom.allocation import preferred_teams
from hwrom.org_core import AssignmentMode, OrgNode
from hwrom.rules_engine import (
    RULE_LEAST_REWARD,
    RULE_NO_PARALLEL,
    RULE_WINNER_LOCK,
    STANDARD_RULES,
    ConstraintKind,
    ConstraintRelation,
    LockLedger,
    Rule,
    RuleCategory,
    check_assignment,
    forming_key,
    winner_locked,
)

from conftest import renumbered

STD = STANDARD_RULES


def parallel(a, b):
    return ConstraintRelation(a, b, ConstraintKind.PARALLEL)


def sequence(a, b):
    return ConstraintRelation(a, b, ConstraintKind.SEQUENCE)


def priority(a, b):
    return ConstraintRelation(a, b, ConstraintKind.PRIORITY)


class TestCheckAssignment:
    def test_parallel_coassignment_violates(self):
        out = check_assignment(STD, [parallel("t1", "t2")], {"R1": {"t1", "t2"}})
        assert len(out.violations) == 1
        assert out.violations[0].code == "ParallelCoassignment"
        assert out.violations[0].robot == "R1"

    def test_sequence_coassignment_is_fine(self):
        out = check_assignment(STD, [sequence("t1", "t2")], {"R1": {"t1", "t2"}})
        assert out.ok

    def test_empty_assignment_vacuous(self):
        out = check_assignment(STD, [parallel("t1", "t2")], {})
        assert out.ok and not out.orderings

    def test_priority_records_ordering_without_violation(self):
        out = check_assignment(STD, [priority("t1", "t2")], {"R1": {"t1", "t2"}})
        assert out.ok
        assert out.orderings == (("R1", "t1", "t2"),)

    def test_parallel_on_different_robots_is_fine(self):
        out = check_assignment(STD, [parallel("t1", "t2")], {"R1": {"t1"}, "R2": {"t2"}})
        assert out.ok

    def test_rule_absent_means_no_enforcement(self):
        bare = frozenset({RULE_LEAST_REWARD})
        out = check_assignment(bare, [parallel("t1", "t2")], {"R1": {"t1", "t2"}})
        assert out.ok

    def test_monotone_adding_tasks_never_removes_violations(self):
        cons = [parallel("t1", "t2"), parallel("t3", "t4")]
        small = check_assignment(STD, cons, {"R1": {"t1", "t2"}})
        big = check_assignment(STD, cons, {"R1": {"t1", "t2", "t3", "t4"}})
        assert set(small.violations) <= set(big.violations)


def rule(tag: str) -> Rule:
    return Rule(f"custom.{tag}", RuleCategory.CUSTOM, "capability_feasible")


RULE_POOL = [RULE_NO_PARALLEL, RULE_WINNER_LOCK, RULE_LEAST_REWARD]


def leaf_node(rules: frozenset[Rule], tag: str) -> OrgNode:
    return OrgNode(
        id_ros=f"unit:{tag}", id_robot=tag, level_i=1, pos_j=0, rules=rules
    )


def team(children: list[OrgNode]) -> OrgNode:
    node = OrgNode(id_ros="team:x", id_robot=children[0].id_robot, level_i=0, pos_j=0)
    node.children = children
    return node


class TestWholeRules:
    """A team's rule set after `_renumber`: what every member abides."""

    def test_leaf_identity(self):
        rules = frozenset({RULE_NO_PARALLEL, RULE_WINNER_LOCK})
        assert renumbered(leaf_node(rules, "R1")).rules == rules

    def test_intersection_of_children(self):
        a = frozenset({RULE_NO_PARALLEL, RULE_WINNER_LOCK})
        b = frozenset({RULE_WINNER_LOCK, RULE_LEAST_REWARD})
        node = team([leaf_node(a, "R1"), leaf_node(b, "R2")])
        assert renumbered(node).rules == frozenset({RULE_WINNER_LOCK})

    def test_disjoint_children_give_empty_set(self):
        node = team([leaf_node(frozenset({RULE_NO_PARALLEL}), "R1"),
                     leaf_node(frozenset({RULE_LEAST_REWARD}), "R2")])
        assert renumbered(node).rules == frozenset()

    def _random_tree(self, rng: random.Random, depth: int) -> OrgNode:
        if depth == 0 or rng.random() < 0.4:
            rules = frozenset(r for r in RULE_POOL if rng.random() < 0.6)
            return leaf_node(rules, f"R{rng.randint(0, 10 ** 6)}")
        children = [self._random_tree(rng, depth - 1) for _ in range(rng.randint(1, 3))]
        return team(children)

    def _fold_leaves(self, node: OrgNode) -> frozenset[Rule]:
        leaves = [n for n in node.walk() if n.is_leaf]
        acc = leaves[0].rules
        for lf in leaves[1:]:
            acc &= lf.rules
        return acc

    def test_matches_fold_oracle_on_random_trees(self):
        rng = random.Random(7)
        for _ in range(100):
            tree = self._random_tree(rng, rng.randint(0, 4))
            assert renumbered(tree).rules == self._fold_leaves(tree)

    @given(st.lists(st.lists(st.sampled_from(RULE_POOL), max_size=3), min_size=1, max_size=5))
    def test_shrinks_upward(self, leaf_rule_lists):
        node = team(
            [leaf_node(frozenset(rules), f"R{i}") for i, rules in enumerate(leaf_rule_lists)]
        )
        whole = renumbered(node).rules
        for child in node.children:
            assert whole <= child.rules


class TestFormingPreference:
    def test_fewer_members_first(self):
        a, b, c = ("R1", "R2", "R3", "R4"), ("R1", "R2"), ("R1", "R2", "R3")
        assert sorted([a, b, c], key=forming_key) == [b, c, a]

    def test_single_candidate(self):
        assert sorted([("R1",)], key=forming_key) == [("R1",)]

    def test_tie_breaks_on_member_id_vector(self):
        # compared as sorted id vectors: (R2, R5, R8) before (R2, R5, R9)
        a, b = ("R2", "R9", "R5"), ("R2", "R5", "R8")
        assert sorted([a, b], key=forming_key) == [b, a]

    @pytest.mark.parametrize("min_size", [1, 2, 4])
    def test_preferred_teams_follow_forming_key(self, min_size):
        robots = ["R3", "R10", "R1", "R2", "R7"]
        every = [
            team
            for k in range(min_size, len(robots) + 1)
            for team in itertools.combinations(robots, k)
        ]
        expected = sorted((tuple(sorted(t)) for t in every), key=forming_key)
        assert list(preferred_teams(robots, min_size)) == expected


class TestWinnerLock:
    def _ledger(self) -> LockLedger:
        ledger = LockLedger()
        ledger.lock("R1", "t1", 3)
        ledger.release("R1", "t1", 7)  # completed
        return ledger

    def test_locked_between_win_and_completion(self):
        assert winner_locked(self._ledger(), "R1", 5)

    def test_unlocked_after_completion(self):
        assert not winner_locked(self._ledger(), "R1", 8)

    def test_never_won_is_unlocked(self):
        assert not winner_locked(self._ledger(), "R9", 5)

    def test_locked_at_win_tick(self):
        assert winner_locked(self._ledger(), "R1", 3)

    def test_unlocked_before_win(self):
        assert not winner_locked(self._ledger(), "R1", 2)

    def test_revocation_unlocks(self):
        ledger = LockLedger()
        ledger.lock("R1", "t1", 3)
        ledger.release("R1", "t1", 5)  # revoked
        assert winner_locked(ledger, "R1", 4)
        assert not winner_locked(ledger, "R1", 5)

    def test_release_frees_only_its_own_task(self):
        ledger = LockLedger()
        ledger.lock("R1", "t1", 3)
        ledger.lock("R1", "t2", 4)
        ledger.release("R1", "t1", 5)
        assert winner_locked(ledger, "R1", 6)
        ledger.release("R1", "t2", 6)
        assert not winner_locked(ledger, "R1", 6)

    def test_a_later_win_of_a_released_task_locks_again(self):
        ledger = self._ledger()
        ledger.lock("R1", "t1", 9)
        assert not winner_locked(ledger, "R1", 8)
        assert winner_locked(ledger, "R1", 9)
        assert winner_locked(ledger, "R1", 5)  # the closed span still answers for the past

    def test_leadership_wins_do_not_lock(self):
        """The engine locks the winner of an atomic award, never a leader."""
        organizer = [["Organization", "plan", 1], ["Communication", "radio", 1]]
        scenario = cfg.from_dict(
            {
                "robots": [
                    {"id": "R1", "capabilities": organizer},
                    {"id": "R2", "capabilities": [["Action", "weld", 1]]},
                ],
                "task": {"id": "T", "reward": 30, "subtasks": [
                    {"id": "t1", "reward": 10, "requires": [["Action", "weld", 1]], "duration": 5}
                ]},
            }
        )
        state = scenario.build_state()
        scheduler = simnet.Scheduler(state, scenario.net)
        scenario.schedule(scheduler)
        scheduler.run(until=scenario.max_ticks, stop_when=lambda s: s.phase is not fm.Phase.FORMING)
        assert state.phase is fm.Phase.EXECUTING
        leader = state.org.assignments["T"]
        assert (leader.assignee, leader.mode) == ("R1", AssignmentMode.LED)
        assert not winner_locked(state.locks, "R1", state.now)
        assert winner_locked(state.locks, state.org.assignments["t1"].assignee, state.now)


class TestRuleHygiene:
    def test_unknown_predicate_rejected(self):
        with pytest.raises(ValueError):
            Rule("bad", RuleCategory.CUSTOM, "do_whatever")
