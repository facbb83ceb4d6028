"""Recursive organization model: robots, capabilities, task trees, org trees.

The whole society is one recursive node type: a node with children is a team
(or the society itself at level 0) whose first child is the leader's own
element; a node without children is an individual robot. The horizontal web
is a relation set over robots (Control edges mirror the tree vertically,
Cooperation edges connect peers at one level).

All monetary quantities are exact rationals so auction comparisons and
settlements replay bit-for-bit.
"""

from __future__ import annotations

import hashlib
import json.encoder
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping

from .rules_engine import ConstraintRelation, Rule
from .wire import ENV


class OrgError(Exception):
    """Base class for organization-level errors."""


class UnknownNodeError(OrgError):
    pass


class UnknownTaskError(OrgError):
    pass


class TaskNotAssignedError(OrgError):
    pass


class CapabilityKind(Enum):
    MOVING = "Moving"
    ACTION = "Action"
    SENSING = "Sensing"
    COMMUNICATION = "Communication"
    ORGANIZATION = "Organization"
    LEARNING = "Learning"


@dataclass(frozen=True)
class Capability:
    """One ability of a robot, e.g. Moving/"speed" at 2 cells per tick.

    A magnitude of 0 means the ability is absent.
    """

    kind: CapabilityKind
    subkind: str
    magnitude: Fraction

    def __post_init__(self) -> None:
        if self.magnitude < 0:
            raise ValueError("capability magnitude must be >= 0")


@dataclass(frozen=True)
class CapabilityRequirement:
    """Minimum ability demanded by a task.

    An empty subkind matches any subkind of the kind; a minimum of 0 means
    "present with positive magnitude".
    """

    kind: CapabilityKind
    subkind: str = ""
    minimum: Fraction = Fraction(0)


_ZERO = Fraction(0)


@dataclass(frozen=True, eq=True)
class CooperativeRobot:
    """Unified frame for individual robots, team leaders and the society leader.

    `magnitudes` is derived from `capabilities` on first use and kept: the
    largest positive magnitude per (kind, subkind), and per (kind, "") over
    every subkind of the kind. It is never compared, hashed or printed, and
    never changed once built, so robots with one capability set may share one
    table (the config parser does, for the pursuit start poses)."""

    id_cr: str
    capabilities: frozenset[Capability]
    resources: tuple[tuple[str, int], ...] = ()
    interface: frozenset[str] = frozenset()

    @cached_property
    def magnitudes(self) -> dict[tuple[CapabilityKind, str], Fraction]:
        table: dict[tuple[CapabilityKind, str], Fraction] = {}
        for cap in self.capabilities:
            magnitude = cap.magnitude
            if not magnitude:  # never negative (Capability checks)
                continue
            key = cap.kind, cap.subkind
            best = table.setdefault(key, magnitude)
            if best is not magnitude and magnitude > best:
                table[key] = magnitude
            key = cap.kind, ""
            best = table.setdefault(key, magnitude)
            if best is not magnitude and magnitude > best:
                table[key] = magnitude
        return table

    def capability(self, kind: CapabilityKind, subkind: str = "") -> Fraction:
        """Largest magnitude held for kind (and subkind, when given); 0 if absent."""
        return self.magnitudes.get((kind, subkind), _ZERO)

    def satisfies(self, req: CapabilityRequirement) -> bool:
        return self.dominates((req,))

    def dominates(self, requirements: Iterable[CapabilityRequirement]) -> bool:
        table = self.magnitudes
        for req in requirements:
            # the table holds positive magnitudes only, so a present entry
            # meets any minimum <= 0, and an absent one meets none
            mag = table.get((req.kind, req.subkind))
            if mag is None or (req.minimum and mag < req.minimum):
                return False
        return True


#: Leadership requirement: organization plus communication ability.
LEADERSHIP_REQUIREMENTS = frozenset(
    {
        CapabilityRequirement(CapabilityKind.ORGANIZATION),
        CapabilityRequirement(CapabilityKind.COMMUNICATION),
    }
)


class TaskStatus(Enum):
    UNASSIGNED = "Unassigned"
    ANNOUNCED = "Announced"
    ASSIGNED = "Assigned"
    COMPLETED = "Completed"
    FAILED = "Failed"


@dataclass
class TaskNode:
    """A goal and its declared decomposition into an ordered sub-task sequence.

    ``alternatives`` lists fallback decompositions used when an auction for
    this task cannot attract bids and the leader must re-split it. A task
    tree is input only: a run keeps each task's status in its own state, so
    one parsed tree serves any number of runs.
    """

    id_task: str
    reward: Fraction = Fraction(0)
    required_capabilities: frozenset[CapabilityRequirement] = frozenset()
    subtasks: list["TaskNode"] = field(default_factory=list)
    alternatives: list[list["TaskNode"]] = field(default_factory=list)
    duration: int = 1

    def __post_init__(self) -> None:
        if self.reward < 0:
            raise ValueError("task reward must be >= 0")
        if self.duration < 1:
            raise ValueError("task duration must be >= 1")

    def walk(self) -> Iterator["TaskNode"]:
        yield self
        for sub in self.subtasks:
            yield from sub.walk()


class RelationKind(Enum):
    CONTROL = "Control"
    COOPERATION = "Cooperation"


@dataclass(frozen=True)
class Relation:
    a: str
    b: str
    kind: RelationKind


@dataclass
class OrgNode:
    """One element of the recursive structure.

    Children empty: an individual robot bound to ``id_robot`` (the null
    sub-structure case). Children present: a team whose children[0] is the
    element containing the leader, so ``id_robot`` always equals
    children[0].id_robot. ``id_robot`` is None only while still forming.
    """

    id_ros: str
    id_robot: str | None
    level_i: int
    pos_j: int
    children: list["OrgNode"] = field(default_factory=list)
    goals: list[str] = field(default_factory=list)
    constraints: list[ConstraintRelation] = field(default_factory=list)
    rules: frozenset[Rule] = frozenset()
    utility: Fraction = Fraction(0)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def walk(self) -> Iterator["OrgNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


class AssignmentMode(Enum):
    WON = "won"  # won through bidding
    ALLOCATED = "allocated"  # assigned by a leader without negotiation
    LED = "led"  # leadership of a decomposed task


@dataclass(frozen=True)
class TaskAssignment:
    """Who carries a task, at what agreed price, and how it was obtained.

    The decomposition the assignee runs when it leads the task is the task's
    entry in `Organization.subtasks`. The task is its key in
    `Organization.assignments`.
    """

    assignee: str
    price: Fraction
    mode: AssignmentMode


@dataclass
class OrgIndex:
    """Every structural lookup of one organization, built by `index` in one
    preorder walk. Where node ids or leaves repeat (an invalid tree, which
    `validate` reports), a lookup sees the first in preorder."""

    node: dict[str, OrgNode] = field(default_factory=dict)
    parent: dict[str, OrgNode | None] = field(default_factory=dict)
    depth: dict[str, int] = field(default_factory=dict)
    #: a robot's own unit, and the team node whose member list holds it
    #: (the unit itself when it is the root)
    leaf_of_robot: dict[str, OrgNode] = field(default_factory=dict)
    team_of_robot: dict[str, str] = field(default_factory=dict)
    #: the team nodes each robot leads, in preorder; its keys are the leaders
    led_by: dict[str, list[OrgNode]] = field(default_factory=dict)
    #: every task `org.assignments` gives each robot
    tasks_by_robot: dict[str, set[str]] = field(default_factory=dict)


@dataclass
class Organization:
    """A hierarchical-web structure: robots, the recursive tree, the relation web.

    `subtasks` maps every known task to its current decomposition ([] when
    atomic). `index_cache` holds the `OrgIndex` of the tree and assignments;
    it is derived, never hashed or compared, and whoever edits the tree or
    the assignments drops it (in the engine, `formation._renumber`)."""

    robots: list[CooperativeRobot] = field(default_factory=list)
    root: OrgNode | None = None
    relations: set[Relation] = field(default_factory=set)
    assignments: dict[str, TaskAssignment] = field(default_factory=dict)
    subtasks: dict[str, list[str]] = field(default_factory=dict)
    index_cache: OrgIndex | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class StructuralViolation:
    code: str
    path: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code} at {self.path}: {self.detail}"


@dataclass
class ValidationReport:
    violations: list[StructuralViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}

    def __iter__(self) -> Iterator[StructuralViolation]:
        return iter(self.violations)

    def __len__(self) -> int:
        return len(self.violations)


def iter_nodes(org: Organization) -> Iterator[tuple[OrgNode, OrgNode | None, int, str]]:
    """Yield (node, parent, depth, path) over the whole tree, root first."""
    if org.root is not None:
        yield from _iter_subtree(org.root, None, 0, "root")


def _iter_subtree(
    node: OrgNode, parent: OrgNode | None, depth: int, path: str
) -> Iterator[tuple[OrgNode, OrgNode | None, int, str]]:
    """`iter_nodes` of one subtree. A module function, not a closure: a
    closure that calls itself is a reference cycle left to the collector."""
    yield node, parent, depth, path
    for i, child in enumerate(node.children):
        yield from _iter_subtree(child, node, depth + 1, f"{path}/{i}")


def index(org: Organization) -> OrgIndex:
    """The org's structural index, built with one walk when it is missing."""
    ix = org.index_cache
    if ix is None:
        ix = org.index_cache = OrgIndex()
        for node, parent, depth, _ in iter_nodes(org):
            if node.id_ros not in ix.node:
                ix.node[node.id_ros] = node
                ix.parent[node.id_ros] = parent
                ix.depth[node.id_ros] = depth
            robot = node.id_robot
            if robot is None:
                continue
            if node.children:
                ix.led_by.setdefault(robot, []).append(node)
            elif robot not in ix.leaf_of_robot:
                ix.leaf_of_robot[robot] = node
                ix.team_of_robot[robot] = (parent if parent is not None else node).id_ros
        for t, a in org.assignments.items():
            ix.tasks_by_robot.setdefault(a.assignee, set()).add(t)
    return ix


def _by_node(table: dict, node_id: str):
    try:
        return table[node_id]
    except KeyError:
        raise UnknownNodeError(node_id) from None


def level_of(org: Organization, node_id: str) -> int:
    """Depth of a node below the root; the root itself is level 0."""
    return _by_node(index(org).depth, node_id)


def leader_of(org: Organization, node_id: str) -> str | None:
    """Robot bearing the node, or None while the organization is still forming."""
    return _by_node(index(org).node, node_id).id_robot


def members(org: Organization, node_id: str) -> set[str]:
    """All robot ids bound anywhere in the subtree, leaders included."""
    node = _by_node(index(org).node, node_id)
    return {n.id_robot for n in node.walk() if n.id_robot is not None}


def validate(org: Organization) -> ValidationReport:
    """Structural audit; every violated invariant is reported with its node path."""
    report = ValidationReport()
    add = report.violations.append

    if not org.robots or org.root is None:
        add(StructuralViolation("EmptyOrganization", "root", "an organization needs robots and a root node"))
        return report

    seen_ids: set[str] = set()
    for r in org.robots:
        if r.id_cr in seen_ids:
            add(StructuralViolation("DuplicateRobotId", "robots", r.id_cr))
        seen_ids.add(r.id_cr)
    robot_ids = seen_ids

    node_ids: set[str] = set()
    leaf_owner: dict[str, str] = {}
    levels_by_robot: dict[str, set[int]] = defaultdict(set)
    for node, parent, depth, path in iter_nodes(org):
        if node.id_ros in node_ids:
            add(StructuralViolation("DuplicateNodeId", path, node.id_ros))
        node_ids.add(node.id_ros)

        if parent is None and node.level_i != 0:
            add(StructuralViolation("RootLevelNotZero", path, f"level_i={node.level_i}"))
        if parent is not None and node.level_i != parent.level_i + 1:
            add(
                StructuralViolation(
                    "LevelSkew", path, f"level_i={node.level_i}, parent level_i={parent.level_i}"
                )
            )
        if parent is not None and node.pos_j != parent.children.index(node):
            add(StructuralViolation("PositionMismatch", path, f"pos_j={node.pos_j}"))

        if node.id_robot is None:
            add(StructuralViolation("UnboundNode", path, "id_robot is null (still forming?)"))
        else:
            if node.id_robot not in robot_ids:
                add(StructuralViolation("UnknownRobotBound", path, node.id_robot))
            levels_by_robot[node.id_robot].add(node.level_i)
            if node.is_leaf:
                if node.id_robot in leaf_owner:
                    add(
                        StructuralViolation(
                            "DuplicateMembership",
                            path,
                            f"robot {node.id_robot} already a member at {leaf_owner[node.id_robot]}",
                        )
                    )
                else:
                    leaf_owner[node.id_robot] = path

        if node.children:
            first = node.children[0]
            if node.id_robot is not None and first.id_robot != node.id_robot:
                add(
                    StructuralViolation(
                        "LeaderMismatch",
                        path,
                        f"node bound to {node.id_robot} but children[0] bound to {first.id_robot}",
                    )
                )

    control_pairs = {
        (node.id_robot, child.id_robot)
        for node, _, _, _ in iter_nodes(org)
        for child in node.children
        if node.id_robot is not None and child.id_robot is not None
    }
    for rel in sorted(org.relations, key=lambda r: (r.kind.value, r.a, r.b)):
        where = f"relation {rel.a}->{rel.b}"
        if rel.a not in robot_ids or rel.b not in robot_ids:
            add(StructuralViolation("RelationEndpointUnknown", where, rel.kind.value))
            continue
        if rel.kind is RelationKind.COOPERATION:
            if not (levels_by_robot.get(rel.a, set()) & levels_by_robot.get(rel.b, set())):
                add(
                    StructuralViolation(
                        "CrossLevelCooperation",
                        where,
                        f"levels {sorted(levels_by_robot.get(rel.a, set()))} vs {sorted(levels_by_robot.get(rel.b, set()))}",
                    )
                )
        elif rel.kind is RelationKind.CONTROL:
            if (rel.a, rel.b) not in control_pairs:
                add(StructuralViolation("ControlEdgeOffTree", where, "no matching parent-child pair"))

    return report


def communication_allowed(org: Organization, a: str, b: str) -> bool:
    """Topology rule: within a team anyone talks; across teams only the
    leaders do. Unaffiliated robots and the environment are reachable by
    anyone (pre-formation broadcast)."""
    if a == ENV or b == ENV or a == b:
        return True
    ix = index(org)
    team_a = ix.team_of_robot.get(a)
    team_b = ix.team_of_robot.get(b)
    if team_a is None or team_b is None or team_a == team_b:
        return True
    return a in ix.led_by and b in ix.led_by


def settle_utilities(org: Organization, completed: Mapping[str, Fraction]) -> dict[str, Fraction]:
    """Settle payouts for completed tasks and return each robot's income delta.

    ``completed`` maps a completed task to the payout its assignee receives:
    the external payout for a root task, the agreed price for an inner one.
    A direct executor pockets the payout; a leader who decomposed the task
    pockets the payout minus the winning bids of its sub-auction (possibly a
    negative margin). Node utility accumulators are updated in place.
    """
    deltas: dict[str, Fraction] = {}
    goal_node: dict[str, OrgNode] = {}
    nodes = org.root.walk() if org.root is not None else ()
    for node in nodes:
        for g in node.goals:
            goal_node.setdefault(g, node)

    for id_task in sorted(completed):
        payout = completed[id_task]
        subtasks = org.subtasks.get(id_task)
        if subtasks is None:
            raise UnknownTaskError(id_task)
        assignment = org.assignments.get(id_task)
        if assignment is None:
            raise TaskNotAssignedError(id_task)
        if subtasks:
            paid_out = Fraction(0)
            for sub in subtasks:
                sub_assignment = org.assignments.get(sub)
                if sub_assignment is not None:
                    paid_out += sub_assignment.price
            delta = payout - paid_out
        else:
            delta = payout
        deltas[assignment.assignee] = deltas.get(assignment.assignee, Fraction(0)) + delta
        node = goal_node.get(id_task)
        if node is not None:
            node.utility += delta

    return deltas


# --- canonical snapshot -----------------------------------------------------

def canonical_encoder() -> Callable[[object], str]:
    """The one JSON encoding the engine hashes and logs: sorted keys, no
    spaces, ASCII only. Records, snapshots and parsed configs are trees,
    never cyclic, so the encoder skips the per-container circular-reference
    check; the bytes are the same with or without it.

    `JSONEncoder.encode` builds a new C encoder on every call. This builds
    one, with the arguments `encode` passes it, and keeps `encode` only for
    a Python without the C accelerator."""
    encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)
    if json.encoder.c_make_encoder is None:
        return encoder.encode
    encode = json.encoder.c_make_encoder(
        None, encoder.default, json.encoder.encode_basestring_ascii, encoder.indent,
        encoder.key_separator, encoder.item_separator, encoder.sort_keys,
        encoder.skipkeys, encoder.allow_nan,
    )
    return lambda data: "".join(encode(data, 0))


canonical_json = canonical_encoder()


def canonical_hash(data: object) -> str:
    """sha256 of `data`'s canonical JSON."""
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()


def node_dict(node: OrgNode) -> dict:
    return {
        "id_ros": node.id_ros,
        "id_robot": node.id_robot,
        "level_i": node.level_i,
        "pos_j": node.pos_j,
        "goals": list(node.goals),
        "constraints": [
            {"a": c.a, "b": c.b, "kind": c.kind.value} for c in node.constraints
        ],
        "rules": sorted(r.id_rule for r in node.rules),
        "utility": str(node.utility),
        "children": [node_dict(c) for c in node.children],
    }


def robot_dict(robot: CooperativeRobot) -> dict:
    return {
        "id_cr": robot.id_cr,
        "capabilities": sorted(
            [c.kind.value, c.subkind, str(c.magnitude)] for c in robot.capabilities
        ),
        "resources": sorted(list(pair) for pair in robot.resources),
        "interface": sorted(robot.interface),
    }


def snapshot_dict(org: Organization) -> dict:
    """Plain-data snapshot with deterministic ordering everywhere."""
    return {
        "robots": [robot_dict(r) for r in sorted(org.robots, key=lambda r: r.id_cr)],
        "root": node_dict(org.root) if org.root is not None else None,
        "relations": sorted([r.a, r.b, r.kind.value] for r in org.relations),
        "assignments": {
            t: {
                "assignee": a.assignee,
                "price": str(a.price),
                "mode": a.mode.value,
                "subtasks": list(org.subtasks.get(t, ())),
            }
            for t, a in sorted(org.assignments.items())
        },
        "known_tasks": sorted(org.subtasks),
    }


def snapshot_json(org: Organization) -> str:
    return canonical_json(snapshot_dict(org))


def snapshot_hash(org: Organization) -> str:
    return canonical_hash(snapshot_dict(org))
