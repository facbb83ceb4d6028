"""Structural model tests: levels, leaders, validation, membership, settlement."""

from fractions import Fraction

import pytest

from hwrom import org_core
from hwrom.org_core import (
    AssignmentMode,
    Organization,
    OrgNode,
    Relation,
    RelationKind,
    TaskAssignment,
    TaskNotAssignedError,
    UnknownNodeError,
    UnknownTaskError,
    communication_allowed,
    leader_of,
    level_of,
    members,
    settle_utilities,
    snapshot_hash,
    snapshot_json,
    validate,
)

from conftest import cap, robot


def leaf(rid: str, pos: int = 0, level: int = 1) -> OrgNode:
    return OrgNode(id_ros=f"unit:{rid}", id_robot=rid, level_i=level, pos_j=pos)


def two_level_society() -> Organization:
    """R1 leads the society; R2 leads a sub-team with R3; R4 is a member."""
    sub = OrgNode(id_ros="team:c1", id_robot="R2", level_i=1, pos_j=1)
    sub.children = [leaf("R2", 0, 2), leaf("R3", 1, 2)]
    root = OrgNode(id_ros="team:T", id_robot="R1", level_i=0, pos_j=0)
    root.children = [leaf("R1", 0, 1), sub, leaf("R4", 2, 1)]
    robots = [robot(r, cap("Communication", "radio")) for r in ("R1", "R2", "R3", "R4")]
    rel = {
        Relation("R1", "R2", RelationKind.CONTROL),
        Relation("R1", "R4", RelationKind.CONTROL),
        Relation("R2", "R3", RelationKind.CONTROL),
        Relation("R1", "R2", RelationKind.COOPERATION),
        Relation("R1", "R4", RelationKind.COOPERATION),
        Relation("R2", "R4", RelationKind.COOPERATION),
        Relation("R2", "R3", RelationKind.COOPERATION),
    }
    return Organization(robots=robots, root=root, relations=rel)


class TestLevels:
    def test_root_is_level_zero(self):
        org = two_level_society()
        assert level_of(org, "team:T") == 0

    def test_direct_child_is_level_one(self):
        org = two_level_society()
        assert level_of(org, "team:c1") == 1
        assert level_of(org, "unit:R4") == 1

    def test_grandchild_is_level_two(self):
        org = two_level_society()
        assert level_of(org, "unit:R3") == 2

    def test_unknown_node(self):
        with pytest.raises(UnknownNodeError):
            level_of(two_level_society(), "nope")


class TestLeaders:
    def test_leaf_leads_itself(self):
        assert leader_of(two_level_society(), "unit:R3") == "R3"

    def test_team_leader_is_first_child_binding(self):
        org = two_level_society()
        assert leader_of(org, "team:c1") == "R2"
        assert leader_of(org, "team:T") == "R1"

    def test_mid_formation_leader_is_none(self):
        org = two_level_society()
        node = org_core.index(org).node["team:c1"]
        node.id_robot = None
        node.children[0].id_robot = None
        assert leader_of(org, "team:c1") is None


class TestValidate:
    def test_single_robot_org_is_valid(self):
        root = OrgNode(id_ros="unit:R1", id_robot="R1", level_i=0, pos_j=0, goals=["T"])
        org = Organization(robots=[robot("R1")], root=root)
        assert validate(org).ok

    def test_two_level_society_is_valid(self):
        assert validate(two_level_society()).ok

    def test_duplicate_robot_id(self):
        org = two_level_society()
        org.robots.append(robot("R1"))
        assert "DuplicateRobotId" in validate(org).codes()

    def test_cross_level_cooperation(self):
        org = two_level_society()
        # R3 only exists at level 2; R4 only at level 1
        org.relations.add(Relation("R3", "R4", RelationKind.COOPERATION))
        report = validate(org)
        assert "CrossLevelCooperation" in report.codes()
        # independent check: every robot's level set really is disjoint
        levels = {}
        for node, _, depth, _ in org_core.iter_nodes(org):
            if node.id_robot:
                levels.setdefault(node.id_robot, set()).add(depth)
        assert not (levels["R3"] & levels["R4"])

    def test_level_skew_detected(self):
        org = two_level_society()
        node = org_core.index(org).node["unit:R4"]
        node.level_i = 5
        assert "LevelSkew" in validate(org).codes()

    def test_leader_mismatch(self):
        org = two_level_society()
        node = org_core.index(org).node["team:c1"]
        node.id_robot = "R3"
        assert "LeaderMismatch" in validate(org).codes()

    def test_double_membership(self):
        org = two_level_society()
        node = org_core.index(org).node["team:c1"]
        node.children.append(leaf("R4", 2, 2))
        assert "DuplicateMembership" in validate(org).codes()

    def test_empty_org_rejected(self):
        assert "EmptyOrganization" in validate(Organization()).codes()

    def test_control_edge_off_tree(self):
        org = two_level_society()
        org.relations.add(Relation("R3", "R1", RelationKind.CONTROL))
        assert "ControlEdgeOffTree" in validate(org).codes()


def _renumbered_root(org: Organization) -> None:
    org.root.level_i = 1


def _swapped_positions(org: Organization) -> None:
    org_core.index(org).node["unit:R4"].pos_j = 0


def _unbound_team(org: Organization) -> None:
    org_core.index(org).node["team:c1"].id_robot = None


def _stranger_bound(org: Organization) -> None:
    org_core.index(org).node["unit:R4"].id_robot = "R9"


def _relation_to_a_stranger(org: Organization) -> None:
    org.relations.add(Relation("R1", "R9", RelationKind.CONTROL))


@pytest.mark.parametrize(
    "code, breakage",
    [
        ("RootLevelNotZero", _renumbered_root),
        ("PositionMismatch", _swapped_positions),
        ("UnboundNode", _unbound_team),
        ("UnknownRobotBound", _stranger_bound),
        ("RelationEndpointUnknown", _relation_to_a_stranger),
    ],
)
def test_each_broken_invariant_is_reported(code, breakage):
    org = two_level_society()
    breakage(org)
    assert code in validate(org).codes()


class TestMembers:
    def test_leaf_singleton(self):
        assert members(two_level_society(), "unit:R4") == {"R4"}

    def test_team_of_three(self):
        assert members(two_level_society(), "team:c1") == {"R2", "R3"}

    def test_root_equals_flat_traversal(self):
        org = two_level_society()
        flat = {n.id_robot for n, _, _, _ in org_core.iter_nodes(org) if n.id_robot}
        assert members(org, "team:T") == flat == {"R1", "R2", "R3", "R4"}


class TestCommunicationTopology:
    def test_intra_team_allowed(self):
        org = two_level_society()
        assert communication_allowed(org, "R3", "R2")

    def test_leader_to_leader_allowed(self):
        org = two_level_society()
        assert communication_allowed(org, "R1", "R2")

    def test_member_to_foreign_member_blocked(self):
        org = two_level_society()
        assert not communication_allowed(org, "R3", "R4")

    def test_member_to_foreign_leader_blocked(self):
        org = two_level_society()
        assert not communication_allowed(org, "R3", "R1")

    def test_pool_robot_reachable(self):
        org = two_level_society()
        assert communication_allowed(org, "R1", "R9")


def settled_org() -> Organization:
    root = OrgNode(id_ros="team:T", id_robot="R1", level_i=0, pos_j=0, goals=["T"])
    root.children = [leaf("R1"), leaf("R2", 1), leaf("R3", 2)]
    root.children[1].goals = ["t1"]
    root.children[2].goals = ["t2"]
    org = Organization(robots=[robot("R1"), robot("R2"), robot("R3")], root=root)
    org.subtasks = {"T": ["t1", "t2"], "t1": [], "t2": []}
    org.assignments = {
        "T": TaskAssignment("T", "R1", Fraction(10), AssignmentMode.LED),
        "t1": TaskAssignment("t1", "R2", Fraction(3), AssignmentMode.WON),
        "t2": TaskAssignment("t2", "R3", Fraction(4), AssignmentMode.WON),
    }
    return org


class TestSettlement:
    def test_atomic_passthrough(self):
        root = OrgNode(id_ros="unit:R1", id_robot="R1", level_i=0, pos_j=0, goals=["T"])
        org = Organization(robots=[robot("R1")], root=root)
        org.subtasks = {"T": []}
        org.assignments = {"T": TaskAssignment("T", "R1", Fraction(10), AssignmentMode.WON)}
        deltas = settle_utilities(org, {"T": Fraction(10)})
        assert deltas == {"R1": Fraction(10)}

    def test_split_with_leader_margin(self):
        org = settled_org()
        deltas = settle_utilities(org, {"T": Fraction(10), "t1": Fraction(3), "t2": Fraction(4)})
        assert deltas == {"R1": Fraction(3), "R2": Fraction(3), "R3": Fraction(4)}

    def test_no_completed_tasks(self):
        assert settle_utilities(settled_org(), {}) == {}

    def test_conservation(self):
        org = settled_org()
        deltas = settle_utilities(org, {"T": Fraction(10), "t1": Fraction(3), "t2": Fraction(4)})
        assert sum(deltas.values()) == Fraction(10)

    def test_negative_margin_allowed(self):
        org = settled_org()
        deltas = settle_utilities(org, {"T": Fraction(5), "t1": Fraction(3), "t2": Fraction(4)})
        assert deltas["R1"] == Fraction(-2)

    def test_unknown_task(self):
        with pytest.raises(UnknownTaskError):
            settle_utilities(settled_org(), {"zz": Fraction(1)})

    def test_unassigned_task(self):
        org = settled_org()
        org.subtasks["t3"] = []
        with pytest.raises(TaskNotAssignedError):
            settle_utilities(org, {"t3": Fraction(1)})

    def test_utility_accumulates_on_nodes(self):
        org = settled_org()
        settle_utilities(org, {"T": Fraction(10), "t1": Fraction(3), "t2": Fraction(4)})
        assert org.root.utility == Fraction(3)
        assert org.root.children[1].utility == Fraction(3)


class TestSnapshot:
    def test_snapshot_stable(self):
        a, b = two_level_society(), two_level_society()
        assert snapshot_json(a) == snapshot_json(b)
        assert snapshot_hash(a) == snapshot_hash(b)

    def test_snapshot_sensitive_to_structure(self):
        a, b = two_level_society(), two_level_society()
        b.root.children[0].goals.append("extra")
        assert snapshot_hash(a) != snapshot_hash(b)


@pytest.mark.parametrize("fields", [{"reward": Fraction(-1)}, {"duration": 0}, {"duration": -5}])
def test_task_node_rejects_negative_reward_and_duration_below_one(fields):
    with pytest.raises(ValueError):
        org_core.TaskNode("t", **fields)
