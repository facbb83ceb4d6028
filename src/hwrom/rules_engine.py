"""Behavior norms, cooperation constraints, and the forming preference.

Rules are declarative tags from a closed vocabulary; the engine hard-codes
their enforcement (assignment checks, winner locking, least-reward selection,
fewest-members preference). Rule sets attach to organization nodes; a team
abides the intersection of what its members abide (`formation._renumber`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence


class RuleCategory(Enum):
    STRUCTURE_DESIGN = "StructureDesign"
    ORG_FORMING = "OrgForming"
    BIDDING = "Bidding"
    SELECTION = "Selection"
    CUSTOM = "Custom"


#: Closed predicate vocabulary. Arbitrary user predicates are out of scope.
PREDICATES = frozenset(
    {
        "no_parallel_coassignment",
        "prefer_fewer_members",
        "winner_lock",
        "least_reward",
        "capability_feasible",
    }
)


@dataclass(frozen=True)
class Rule:
    """A named behavior norm. Two rules with the same id must be identical."""

    id_rule: str
    category: RuleCategory
    predicate: str

    def __post_init__(self) -> None:
        if self.predicate not in PREDICATES:
            raise ValueError(f"unknown rule predicate: {self.predicate!r}")


RULE_NO_PARALLEL = Rule("design.no-parallel-coassignment", RuleCategory.STRUCTURE_DESIGN, "no_parallel_coassignment")
RULE_FEWER_MEMBERS = Rule("forming.prefer-fewer-members", RuleCategory.ORG_FORMING, "prefer_fewer_members")
RULE_WINNER_LOCK = Rule("bidding.winner-lock", RuleCategory.BIDDING, "winner_lock")
RULE_LEAST_REWARD = Rule("selection.least-reward", RuleCategory.SELECTION, "least_reward")

#: The default norm set installed on every node unless a scenario overrides it.
STANDARD_RULES = frozenset({RULE_NO_PARALLEL, RULE_FEWER_MEMBERS, RULE_WINNER_LOCK, RULE_LEAST_REWARD})


def has_predicate(rules: Iterable[Rule], predicate: str) -> bool:
    return any(r.predicate == predicate for r in rules)


class ConstraintKind(Enum):
    PRIORITY = "Priority"
    SAME_TASK = "SameTask"
    PARALLEL = "Parallel"
    SEQUENCE = "Sequence"
    RESOURCE_CONFLICT = "ResourceConflict"
    ACTION_DEPENDENCY = "ActionDependency"


@dataclass(frozen=True)
class ConstraintRelation:
    """Cooperation/restraint relation between two tasks.

    Parallel and Sequence are symmetric; Priority is antisymmetric (a runs
    before b). SameTask, ResourceConflict and ActionDependency are carried as
    data and impose no assignment check.
    """

    a: str
    b: str
    kind: ConstraintKind


@dataclass(frozen=True)
class Violation:
    code: str
    robot: str
    task_a: str
    task_b: str

    def __str__(self) -> str:
        return f"{self.code}: robot {self.robot} holds {self.task_a} and {self.task_b}"


@dataclass(frozen=True)
class AssignmentCheck:
    """Outcome of an assignment check.

    ``violations`` lists Parallel co-assignments; ``orderings`` records
    (robot, first, second) execution orders required by Priority pairs held
    by the same robot. Priority pairs are legal to co-hold, they just
    constrain the schedule.
    """

    violations: tuple[Violation, ...]
    orderings: tuple[tuple[str, str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_assignment(
    rules: frozenset[Rule],
    constraints: Sequence[ConstraintRelation],
    assignment: Mapping[str, Iterable[str]],
) -> AssignmentCheck:
    """Check a robot -> task-set map against the structure-design norms.

    One violation per robot per Parallel pair it co-holds. Sequence pairs are
    allowed on one robot. The Parallel check only applies when ``rules``
    contains the no_parallel_coassignment predicate.
    """
    enforce_parallel = has_predicate(rules, "no_parallel_coassignment")
    violations: list[Violation] = []
    orderings: list[tuple[str, str, str]] = []
    for robot in sorted(assignment):
        held = set(assignment[robot])
        for c in constraints:
            if c.a not in held or c.b not in held or c.a == c.b:
                continue
            if c.kind is ConstraintKind.PARALLEL and enforce_parallel:
                violations.append(Violation("ParallelCoassignment", robot, *sorted((c.a, c.b))))
            elif c.kind is ConstraintKind.PRIORITY:
                orderings.append((robot, c.a, c.b))
    return AssignmentCheck(tuple(violations), tuple(orderings))


def forming_key(members: Iterable[str]) -> tuple[int, tuple[str, ...]]:
    """The forming-preference norm as a sort key: fewer members first, then
    id-lexicographic.

    Fewer members means less communication cost; the tie-break keeps the
    ranking total and deterministic.
    """
    team = tuple(sorted(members))
    return len(team), team


@dataclass
class LockLedger:
    """The winner lock's record: per robot, one [task, won_at, released_at]
    span per locking win, with released_at None while the span is open.

    Closed spans stay, because a bid is judged at the tick it was sent
    (`winner_locked` with a past ``at``). A release is assumed never to
    precede a lock of the same robot and task at the same tick: a revoked or
    finished task is announced again on a later Tick at the earliest."""

    spans: dict[str, list[list]] = field(default_factory=dict)

    def lock(self, robot: str, id_task: str, tick: int) -> None:
        self.spans.setdefault(robot, []).append([id_task, tick, None])

    def release(self, robot: str, id_task: str, tick: int) -> None:
        for span in self.spans.get(robot, ()):
            if span[0] == id_task and span[2] is None:
                span[2] = tick


def winner_locked(ledger: LockLedger, robot: str, at: int) -> bool:
    """True iff the robot holds a locking win not yet released at tick ``at``.

    A win at tick t locks from t onward; a completion or revocation at tick r
    releases from r onward.
    """
    return any(
        won <= at and (released is None or released > at)
        for _, won, released in ledger.spans.get(robot, ())
    )
