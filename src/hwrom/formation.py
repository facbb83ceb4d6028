"""Top-down formation state machine.

All state mutation happens in step(); the scheduler (simnet) only turns the
outbound messages and timers into future events. step() is deterministic:
identical (state, event) sequences produce identical states and hashes, which
is what makes logs replayable and verifiable.

The normal path is market-based: announce, collect bids, award by least
reward, and on silence escalate or re-split as `market.adjust_tactics`
decides; `_open_auction` builds each round's announcement. When the tactics
ladder is exhausted the acting society leader falls back on its allocation
right and re-plans assignments directly (without negotiation), which keeps
formation complete whenever a feasible assignment exists at all.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Collection, Iterator

from . import allocation, org_core, pursuit, wire
from .market import (
    AdjustPolicy,
    Announcement,
    Bid,
    Decline,
    Escalate,
    Redecompose,
    adjust_tactics,
    compute_bid,
    select_winner,
)
from .org_core import (
    LEADERSHIP_REQUIREMENTS,
    AssignmentMode,
    CapabilityKind,
    CapabilityRequirement,
    CooperativeRobot,
    Organization,
    OrgNode,
    Relation,
    RelationKind,
    TaskAssignment,
    TaskNode,
    TaskStatus,
)
from .rules_engine import (
    STANDARD_RULES,
    ConstraintKind,
    ConstraintRelation,
    LockLedger,
    Rule,
    check_assignment,
    has_predicate,
    winner_locked,
)
from .wire import ENV


class FormationError(Exception):
    """Raised when an organization cannot be formed (unfillable task)."""

    def __init__(self, kind: str, detail: str = ""):
        super().__init__(f"{kind}: {detail}" if detail else kind)
        self.kind = kind
        self.detail = detail


class DuplicateRobotIdError(FormationError):
    def __init__(self, robot: str):
        super().__init__("DuplicateRobotId", robot)


class ProtocolViolationError(Exception):
    """An event that cannot happen in any legal schedule."""


class Phase(Enum):
    IDLE = "Idle"  # pursuit scouting, before any task exists
    FORMING = "Forming"
    EXECUTING = "Executing"
    DONE = "Done"
    FAILED = "Failed"


class WithdrawReason(Enum):
    UNWILLING = "Unwilling"
    ENVIRONMENT_CHANGED = "EnvironmentChanged"
    FAILURE = "Failure"


# --- events ------------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class FormationEvent:
    tick: int


@dataclass(frozen=True, kw_only=True)
class TaskArrived(FormationEvent):
    id_task: str


@dataclass(frozen=True, kw_only=True)
class BidSubmitted(FormationEvent):
    bid: Bid


@dataclass(frozen=True, kw_only=True)
class AuctionClosed(FormationEvent):
    id_task: str
    round: int = 0


@dataclass(frozen=True, kw_only=True)
class TaskCompleted(FormationEvent):
    id_task: str
    robot: str


@dataclass(frozen=True, kw_only=True)
class RobotWithdrew(FormationEvent):
    robot: str
    reason: WithdrawReason = WithdrawReason.UNWILLING


@dataclass(frozen=True, kw_only=True)
class RobotFailed(FormationEvent):
    robot: str


@dataclass(frozen=True, kw_only=True)
class RobotJoined(FormationEvent):
    robot: CooperativeRobot
    pose: tuple[int, int] | None = None


@dataclass(frozen=True, kw_only=True)
class Tick(FormationEvent):
    pass


# --- configuration ------------------------------------------------------------


@dataclass(frozen=True)
class PursuitParams:
    k: int = 4
    base_reward: Fraction = Fraction(5)
    capture_quorum: int = 2
    mission_reward: Fraction = Fraction(20)
    required_speed: Fraction | None = None


@dataclass(frozen=True)
class EngineParams:
    """Engine knobs: auction economics, norms, constraints, scenario costs.

    `markup`, 1 + margin, and `parallel_pairs` are derived once, on first use."""

    margin: Fraction = Fraction(1, 10)
    policy: AdjustPolicy = AdjustPolicy()
    bid_window: int = 3
    default_cost: Fraction = Fraction(1)
    cost_table: dict[tuple[str, str], Fraction] = field(default_factory=dict)
    constraints: tuple[ConstraintRelation, ...] = ()
    rules_pool: frozenset[Rule] = STANDARD_RULES
    robot_rules: dict[str, frozenset[Rule]] = field(default_factory=dict)
    pursuit: PursuitParams | None = None

    @cached_property
    def markup(self) -> Fraction:
        return 1 + self.margin

    @cached_property
    def parallel_pairs(self) -> frozenset[frozenset[str]]:
        """The Parallel pairs {a, b} (a != b) the Parallel norm binds, empty
        unless the rules pool holds `no_parallel_coassignment`."""
        binds = has_predicate(self.rules_pool, "no_parallel_coassignment")
        return frozenset(
            frozenset((c.a, c.b))
            for c in self.constraints
            if binds and c.kind is ConstraintKind.PARALLEL and c.a != c.b
        )


@dataclass
class AuctionState:
    announcement: Announcement
    bids: dict[str, Bid] = field(default_factory=dict)  # by bidder, in arrival order


@dataclass
class StepResult:
    messages: list[wire.Message] = field(default_factory=list)
    timers: list[FormationEvent] = field(default_factory=list)
    notes: list[dict] = field(default_factory=list)


@dataclass
class FormationState:
    params: EngineParams
    robots: dict[str, CooperativeRobot] = field(default_factory=dict)
    dead: set[str] = field(default_factory=set)
    departed: set[str] = field(default_factory=set)
    pending: deque[str] = field(default_factory=deque)  # tasks to announce, in order
    active_auctions: dict[str, AuctionState] = field(default_factory=dict)
    org: Organization = field(default_factory=Organization)
    locks: LockLedger = field(default_factory=LockLedger)
    tasks: dict[str, TaskNode] = field(default_factory=dict)
    # the run's status of each task: the task nodes are the parsed, shared inputs
    status: dict[str, TaskStatus] = field(default_factory=dict)
    # the run's one root: the config's task, or a pursuit's SOCIETY once elected
    root_task: str | None = None
    task_parent: dict[str, str | None] = field(default_factory=dict)
    current_reward: dict[str, Fraction] = field(default_factory=dict)
    alternatives_used: dict[str, int] = field(default_factory=dict)
    phase: Phase = Phase.FORMING
    now: int = 0
    exec_started: dict[str, int] = field(default_factory=dict)  # atomic task -> due tick
    # pursuit bookkeeping
    world: pursuit.WorldState | None = None
    first_detection: dict[tuple[str, str], int] = field(default_factory=dict)
    # surround goal -> (its evader, its planned sub-goal)
    flank: dict[str, tuple[str, pursuit.Subgoal]] = field(default_factory=dict)

    @property
    def organizer(self) -> str | None:
        """A pursuit's organizer: the society's leader, None while it has none."""
        a = self.org.assignments.get(SOCIETY) if self.world is not None else None
        return a.assignee if a is not None else None

    def alive(self, robot: str) -> bool:
        return robot in self.robots and robot not in self.dead and robot not in self.departed

    @property
    def pool(self) -> set[str]:
        """The live robots the org tree binds nowhere."""
        ix = org_core.index(self.org)
        bound = ix.leaf_of_robot.keys() | ix.led_by.keys()
        return {r for r in self.robots if self.alive(r) and r not in bound}

    def effective_tasks(self) -> Iterator[str]:
        stack = [self.root_task] if self.root_task is not None else []
        while stack:
            t = stack.pop(0)
            yield t
            stack = self.org.subtasks.get(t, []) + stack

    def is_composite(self, id_task: str) -> bool:
        return bool(self.org.subtasks.get(id_task))

    def cost_of(self, robot: CooperativeRobot, ann: Announcement) -> Fraction:
        """The scenario's cost for robot to carry the announced task."""
        if self.world is not None:
            flank = self.flank.get(ann.id_task)
            if flank is not None:
                if robot.id_cr not in self.world.robots:
                    raise pursuit.ZeroSpeedError(robot.id_cr)
                return pursuit.robot_cost(self.world, robot.id_cr, flank[1].cell)
            if ann.leadership:
                return Fraction(0)
        return self.params.cost_table.get((robot.id_cr, ann.id_task), self.params.default_cost)


# --- state construction ---------------------------------------------------------


def register_task_tree(state: FormationState, task: TaskNode, parent: str | None = None) -> None:
    """Register task and its subtree under parent, as the run's root when
    parent is None; the caller puts it in parent's decomposition."""
    for node in task.walk():
        if node.id_task in state.tasks:
            raise FormationError("DuplicateTaskId", node.id_task)
        state.tasks[node.id_task] = node
        state.status[node.id_task] = TaskStatus.UNASSIGNED
        state.org.subtasks[node.id_task] = [s.id_task for s in node.subtasks]
        state.current_reward[node.id_task] = node.reward
        for sub in node.subtasks:
            state.task_parent[sub.id_task] = node.id_task
    state.task_parent[task.id_task] = parent
    if parent is None:
        state.root_task = task.id_task


def new_state(
    robots: list[CooperativeRobot],
    params: EngineParams,
    *,
    world: pursuit.WorldState | None = None,
) -> FormationState:
    state = FormationState(params=params, world=world)
    state.phase = Phase.IDLE if world is not None else Phase.FORMING
    for r in robots:
        if r.id_cr in state.robots:
            raise DuplicateRobotIdError(r.id_cr)
        state.robots[r.id_cr] = r
    return state


# --- cost model ------------------------------------------------------------------


def norm_violation(state: FormationState, t: str, held: Collection[str]) -> str | None:
    """The norm a robot holding `held` would break by also taking task t, as
    a decline reason, or None when it may take it. The auction asks this
    after the winner lock; the allocation fallback asks its two parts.

    Leadership chain: the robot's composites, t among them and completed ones
    too, must form one parent-child chain, otherwise its own element would
    have to sit under two unrelated teams at once. Parallel: t must form no
    binding Parallel pair with a held task."""
    if state.is_composite(t):
        mine = {x for x in held if state.is_composite(x)}
        mine.add(t)
        if len(mine) > 1 and allocation.chain_gaps(state.task_parent, mine) != 0:
            return "leadership_chain"
    if allocation.parallel_conflict(state.params.parallel_pairs, t, held):
        return "parallel_conflict"
    return None


def _norm_violation(state: FormationState, robot_id: str, ann: Announcement) -> str | None:
    """The norm the robot would break by taking the announced task, as a
    decline reason, or None when it may take it."""
    if winner_locked(state.locks, robot_id, state.now):
        return "winner_locked"
    return norm_violation(
        state, ann.id_task, org_core.index(state.org).tasks_by_robot.get(robot_id, ())
    )


def consider_announcement(state: FormationState, robot_id: str, ann: Announcement) -> Bid | Decline:
    """The robot-side decision on an announcement: self-check the norms, then
    price the task. Invoked by the scheduler at delivery time."""
    reason = _norm_violation(state, robot_id, ann)
    if reason is not None:
        return Decline(robot_id, ann.id_task, reason)
    return compute_bid(state.robots[robot_id], ann, state.cost_of, state.params.markup, state.now)


# --- structural edits --------------------------------------------------------------


def _rules_for(state: FormationState, robot: str) -> frozenset[Rule]:
    return state.params.robot_rules.get(robot, state.params.rules_pool)


def _new_leaf(state: FormationState, robot: str) -> OrgNode:
    return OrgNode(
        id_ros=f"unit:{robot}",
        id_robot=robot,
        level_i=0,
        pos_j=0,
        rules=_rules_for(state, robot),
    )


def _renumber(state: FormationState) -> None:
    """Restore derived structure after an edit: levels, positions, team rule
    intersections, scoped constraints, the relation web, and `org.robots`,
    the robots bound anywhere in the tree.

    Every edit of the tree or of the assignments' assignees ends here before
    the next structural lookup, so this is where the org's index is dropped."""
    org = state.org
    org.index_cache = None
    if org.root is None:
        org.relations = set()
        org.robots = []
        return
    relations: set[Relation] = set()
    bound: set[str] = set()
    _renumber_subtree(state, org.root, 0, 0, relations, bound)
    org.relations = relations
    org.robots = [state.robots[r] for r in sorted(bound)]


def _renumber_subtree(
    state: FormationState,
    node: OrgNode,
    depth: int,
    pos: int,
    relations: set[Relation],
    bound: set[str],
) -> tuple[frozenset[Rule], set[str]]:
    """`_renumber` of one subtree, in one post-order walk: number it, collect
    its relations and bound robots, and return its rule intersection and its
    goals. A team's rules and goals come from its children's: it abides only
    what every child abides, and holds every goal below it."""
    node.level_i = depth
    node.pos_j = pos
    if node.id_robot is not None:
        bound.add(node.id_robot)
    if not node.children:
        return node.rules, set(node.goals)
    rules: frozenset[Rule] | None = None
    goals = set(node.goals)
    for i, child in enumerate(node.children):
        child_rules, child_goals = _renumber_subtree(state, child, depth + 1, i, relations, bound)
        rules = child_rules if rules is None else rules & child_rules
        goals |= child_goals
    node.rules = rules
    node.constraints = [c for c in state.params.constraints if c.a in goals and c.b in goals]
    if node.id_robot is not None:
        element_robots = [c.id_robot for c in node.children if c.id_robot is not None]
        for r in element_robots:
            if r != node.id_robot:
                relations.add(Relation(node.id_robot, r, RelationKind.CONTROL))
        for i, a in enumerate(element_robots):
            for b in element_robots[i + 1 :]:
                if a != b:
                    lo, hi = sorted((a, b))
                    relations.add(Relation(lo, hi, RelationKind.COOPERATION))
    return rules, goals


# --- announcements -----------------------------------------------------------------


def _requirements(state: FormationState, t: str) -> tuple[frozenset[CapabilityRequirement], bool]:
    """What a holder of task t must have, and whether holding it is
    leadership. The auction and the allocation fallback both ask this."""
    if state.is_composite(t):
        return LEADERSHIP_REQUIREMENTS, True
    own = state.tasks[t].required_capabilities
    if state.task_parent.get(t) is None:
        # whoever holds an atomic root must both organize and execute it alone
        return LEADERSHIP_REQUIREMENTS | own, True
    return own, False


def owning_team(state: FormationState, t: str) -> str | None:
    """The team node that owns task t, its parent task's team, as the task
    tree says; None for the run's root. Who speaks for t's auction and where
    t's team is seated are both read from here."""
    parent = state.task_parent[t]
    return None if parent is None else f"team:{parent}"


def _speaker(state: FormationState, t: str) -> str | None:
    """Who speaks for task t's auction: ENV for the run's root, otherwise
    the owning team's current leader, or None when that team is gone. Every
    round, award and re-send of an auction comes from here, so a re-elected
    leader takes over its team's open auctions."""
    owner = owning_team(state, t)
    if owner is None:
        return ENV
    node = org_core.index(state.org).node.get(owner)
    return node.id_robot if node is not None else None


def _announce(state: FormationState, t: str, result: StepResult) -> None:
    if state.status.get(t) is not TaskStatus.UNASSIGNED:
        return
    ann = _open_auction(state, t, state.current_reward[t], 0, result)
    if ann is None:
        return  # owning team vanished; the task was revoked with it
    result.notes.append(
        {
            "kind": "announce",
            "task": t,
            "round": ann.round,
            "reward": str(ann.reward),
            "auctioneer": ann.auctioneer,
            "leadership": ann.leadership,
        }
    )


def _open_auction(
    state: FormationState, t: str, reward: Fraction, round: int, result: StepResult
) -> Announcement | None:
    """Open one round of task t's auction at `reward` and return its one
    announcement: its speaker is the owning team's current leader, its
    requirements and leadership come from `_requirements`, its bid window
    starts now, every live robot that speaker may talk to hears it, and its
    close is timed. None, and no round, when the owning team is gone."""
    auctioneer = _speaker(state, t)
    if auctioneer is None:
        return None
    reqs, leadership = _requirements(state, t)
    ann = Announcement(t, reward, reqs, round, state.now + state.params.bid_window, auctioneer, leadership)
    state.current_reward[t] = ann.reward
    state.status[t] = TaskStatus.ANNOUNCED
    state.active_auctions[t] = AuctionState(ann)
    for rid in sorted(state.robots):
        if state.alive(rid) and org_core.communication_allowed(state.org, auctioneer, rid):
            result.messages.append(wire.Message(auctioneer, rid, wire.KIND_ANNOUNCE, ann, state.now))
    result.timers.append(AuctionClosed(tick=ann.deadline + 1, id_task=t, round=ann.round))
    return ann


# --- awards --------------------------------------------------------------------------


def _award(state: FormationState, bid: Bid, result: StepResult) -> None:
    t = bid.id_task
    winner = bid.bidder

    if state.is_composite(t):
        _hang_team(state, t, winner, bid.price, result)
    else:
        # before the edit below, while the index still matches the tree
        speaker = _speaker(state, t)
        state.locks.lock(winner, t, state.now)
        _install_member(state, winner, t, owning_team(state, t))
        _assign(state, t, winner, bid.price, AssignmentMode.WON)
        result.messages.append(wire.Message(speaker, winner, wire.KIND_AWARD, sent_at=state.now))

    result.notes.append(
        {"kind": "award", "robot": winner, "price": str(bid.price), "leadership": state.is_composite(t)}
    )
    _renumber(state)
    if state.phase is Phase.EXECUTING:
        # after `_renumber`: the dispatcher finds the new task in the index
        _start_execution(state, [winner], result)


def _assign(state: FormationState, t: str, robot: str, price: Fraction, mode: AssignmentMode) -> None:
    """Give task t to robot at price: t's assignment and its status. The one
    writer of both, for an atomic award (won), a lead (led: awards, the
    pursuit's society and capture roots, re-elections) and the allocation
    fallback (allocated, or led for a composite). A re-election keeps a
    completed task completed: its new leader is paid, not put to work."""
    state.org.assignments[t] = TaskAssignment(robot, price, mode)
    if state.status[t] is not TaskStatus.COMPLETED:
        state.status[t] = TaskStatus.ASSIGNED


def _seat_team(state: FormationState, t: str, leader: str) -> None:
    """Put the team of task t, led by leader, under t's owning team (as the
    root for the run's root). The team takes over the leader's element, its
    unit with the teams it leads above it, so a leader's teams form one chain
    and every robot keeps one unit. Awards, the pursuit's society and capture
    roots, and the allocation fallback all seat teams here; the caller
    renumbers."""
    owner = owning_team(state, t)
    ix = org_core.index(state.org)
    team = OrgNode(id_ros=f"team:{t}", id_robot=leader, level_i=0, pos_j=0, goals=[t])
    element = ix.leaf_of_robot.get(leader)
    if owner is None:
        team.children = [element if element is not None else _new_leaf(state, leader)]
        state.org.root = team
        return
    parent = ix.node.get(owner)
    if parent is None:
        raise ProtocolViolationError(f"award under unknown node {owner}")
    while element is not None and (up := ix.parent[element.id_ros]) is not None:
        if up is parent or up.id_robot != leader:
            break
        element = up
    if element is not None and element in parent.children:
        # the element grows a level in place
        team.children = [element]
        parent.children[parent.children.index(element)] = team
    else:
        if element is not None:
            # one unit per robot: the element moves here from wherever it sits
            ix.parent[element.id_ros].children.remove(element)
        else:
            element = _new_leaf(state, leader)
        team.children = [element]
        parent.children.append(team)


def _hang_team(state: FormationState, t: str, leader: str, price: Fraction, result: StepResult) -> None:
    """Seat a new team for task t, led by leader, under its owning team, hand
    leader the lead, and queue the arrival of each subtask still unassigned.
    The seat comes before the assignment is written, while the index still
    matches the tree; the caller renumbers."""
    _seat_team(state, t, leader)
    _assign(state, t, leader, price, AssignmentMode.LED)
    for child in state.org.subtasks[t]:
        if state.status[child] is TaskStatus.UNASSIGNED:
            result.timers.append(TaskArrived(tick=state.now, id_task=child))
    _maybe_complete_parent(state, t, result)


def _install_member(state: FormationState, robot: str, t: str, parent_node: str | None) -> None:
    ix = org_core.index(state.org)
    leaf = ix.leaf_of_robot.get(robot)
    if leaf is None:
        leaf = _new_leaf(state, robot)
        if parent_node is None:
            state.org.root = leaf  # single-robot organization
        else:
            parent = ix.node.get(parent_node)
            if parent is None:
                raise ProtocolViolationError(f"award under unknown node {parent_node}")
            parent.children.append(leaf)
    leaf.goals.append(t)


def _maybe_complete_parent(state: FormationState, t: str, result: StepResult) -> None:
    """Queue the completion of composite t once it has an assignee and all
    its subtasks are done: when its last subtask completes, or when it gets
    a leader after they all finished without one. A pursuit's society is done
    once every evader is caught, which a capture root may never have named."""
    children = state.org.subtasks.get(t, [])
    a = state.org.assignments.get(t)
    world = state.world
    if t == SOCIETY and world is not None:
        goal_met = world.captured == world.evaders.keys()
    else:
        goal_met = bool(children)
    if (
        a is not None
        and state.status[t] is TaskStatus.ASSIGNED
        and goal_met
        and all(state.status[s] is TaskStatus.COMPLETED for s in children)
    ):
        result.timers.append(TaskCompleted(tick=state.now, id_task=t, robot=a.assignee))


# --- escalation, redecomposition, allocation fallback ----------------------------------


def _close_auction(state: FormationState, event: AuctionClosed, result: StepResult) -> None:
    t = event.id_task
    auction = state.active_auctions.get(t)
    if auction is None:
        if t in state.tasks:
            result.notes.append({"kind": "close_ignored"})
            return
        raise ProtocolViolationError(f"close for unknown auction {t}")
    if auction.announcement.round != event.round:
        result.notes.append({"kind": "close_stale"})
        return

    ann = auction.announcement
    valid = [
        bid
        for bid in auction.bids.values()
        if state.alive(bid.bidder) and _norm_violation(state, bid.bidder, ann) is None
    ]

    winner = select_winner(valid)
    del state.active_auctions[t]
    if winner is not None:
        _award(state, auction.bids[winner], result)
        _check_formed(state, result)
        return

    can_resplit = (
        state.task_parent.get(t) is not None
        and state.alternatives_used.get(t, 0) < len(state.tasks[t].alternatives)
    )
    tactic = adjust_tactics(ann, state.params.policy, can_resplit=can_resplit)
    if isinstance(tactic, Redecompose):
        _apply_redecompose(state, t, tactic.round, result)
        _check_formed(state, result)
        return
    if isinstance(tactic, Escalate):
        _open_auction(state, t, tactic.reward, tactic.round, result)
        result.notes.append({"kind": "escalate", "round": tactic.round, "reward": str(tactic.reward)})
        return
    result.notes.append({"kind": "give_up"})
    try:
        planned = _replan(state, result)
    except allocation.BudgetExhausted:
        result.notes.append({"kind": "replan_budget_exhausted"})
        planned = False
    if not planned:
        state.phase = Phase.FAILED
        result.notes.append({"kind": "formation_failed"})
    _check_formed(state, result)


def _apply_redecompose(state: FormationState, t: str, round: int, result: StepResult) -> None:
    """Swap the failed task for its next alternative decomposition, which the
    tactics ladder chose only when the task has a parent and one is left."""
    parent_id = state.task_parent[t]
    used = state.alternatives_used.get(t, 0)
    pieces = state.tasks[t].alternatives[used]
    state.alternatives_used[t] = used + 1
    for piece in pieces:
        register_task_tree(state, piece, parent_id)
    siblings = state.org.subtasks[parent_id]
    at = siblings.index(t)
    siblings[at : at + 1] = [p.id_task for p in pieces]
    state.status[t] = TaskStatus.FAILED
    state.pending.extend(p.id_task for p in pieces)
    result.notes.append({"kind": "redecompose", "pieces": [p.id_task for p in pieces], "round": round})


def _descendants(state: FormationState, t: str) -> list[str]:
    out: list[str] = []
    stack = list(state.org.subtasks.get(t, []))
    while stack:
        x = stack.pop(0)
        out.append(x)
        stack.extend(state.org.subtasks.get(x, []))
    return out


def _revoke_task(state: FormationState, t: str, reason: str, result: StepResult) -> None:
    assignment = state.org.assignments.pop(t, None)
    if assignment is not None and state.status[t] is TaskStatus.ASSIGNED:
        state.locks.release(assignment.assignee, t, state.now)
        result.notes.append(
            {"kind": "revoked", "task": t, "robot": assignment.assignee, "reason": reason}
        )
    if state.status[t] in (TaskStatus.ASSIGNED, TaskStatus.ANNOUNCED):
        state.status[t] = TaskStatus.UNASSIGNED
    state.active_auctions.pop(t, None)
    state.exec_started.pop(t, None)


def _dissolve_team(
    state: FormationState, node: OrgNode, parent: OrgNode | None, result: StepResult
) -> None:
    """Reset a leaderless team: unfinished subtree tasks return to the queue,
    its own task to be won again under its owning team, members go back to
    the pool, accumulated margin is forfeited."""
    t = node.goals[0]
    for sub in _descendants(state, t):
        if state.status[sub] is not TaskStatus.COMPLETED:
            _revoke_task(state, sub, "team_dissolved", result)
    state.org.assignments.pop(t, None)
    if state.status[t] is not TaskStatus.COMPLETED:
        state.status[t] = TaskStatus.UNASSIGNED
        state.pending.append(t)
    if parent is None:
        state.org.root = None
    else:
        parent.children.remove(node)
    result.notes.append(
        {"kind": "dissolved", "node": node.id_ros, "task": t, "forfeited": str(node.utility)}
    )
    _renumber(state)


# --- allocation fallback (society-wide re-plan) -----------------------------------------


#: Search nodes one re-plan may visit before formation gives up: partial
#: assignments tried plus teams considered. A count, not a clock, so replay
#: reproduces the outcome exactly.
REPLAN_NODE_BUDGET = 1_000_000


def _problem(state: FormationState) -> allocation.Problem:
    """The re-plan as the solver poses it: every unfinished task in tree
    order, and what the search may read of the state."""
    robots = sorted(r for r in state.robots if state.alive(r))
    tasks_by_robot = org_core.index(state.org).tasks_by_robot
    tasks = tuple(
        t
        for t in state.effective_tasks()
        if state.status[t]
        in (TaskStatus.UNASSIGNED, TaskStatus.ANNOUNCED, TaskStatus.ASSIGNED)
    )
    eligible: dict[str, tuple[str, ...]] = {}
    for t in tasks:
        reqs, _ = _requirements(state, t)
        eligible[t] = tuple(r for r in robots if state.robots[r].dominates(reqs))
    return allocation.Problem(
        tasks=tasks,
        composites=frozenset(t for t, subtasks in state.org.subtasks.items() if subtasks),
        eligible=eligible,
        held={
            r: frozenset(t for t in tasks_by_robot.get(r, ()) if state.status[t] is TaskStatus.COMPLETED)
            for r in robots
        },
        parent=state.task_parent,
        pairs=state.params.parallel_pairs,
        budget=REPLAN_NODE_BUDGET,
    )


def _replan(state: FormationState, result: StepResult) -> bool:
    """Leader allocation without negotiation: find the preference-best feasible
    assignment of every unfinished task and install it wholesale."""
    problem = _problem(state)
    if not problem.tasks:
        return True
    best = allocation.solve(problem)
    if best is None:
        return False

    for t in problem.tasks:
        _revoke_task(state, t, "reallocated", result)
    state.pending.clear()
    state.active_auctions.clear()

    for t, assignee in best:
        price = state.current_reward[t]
        mode = AssignmentMode.LED if state.is_composite(t) else AssignmentMode.ALLOCATED
        _assign(state, t, assignee, price, mode)
        result.notes.append({"kind": "allocated", "task": t, "robot": assignee, "price": str(price)})

    _rebuild_tree(state)
    if state.phase is Phase.EXECUTING:
        _start_execution(state, sorted({assignee for _, assignee in best}), result)
    return True


def _rebuild_tree(state: FormationState) -> None:
    """Re-seat the tree from the assignment record after a re-plan, as awards
    seat it: teams parents first; then each robot's unit in the deepest team
    where it holds atomic work, with all its atomic goals in id order. A task whose owning team is
    gone is left out. Each edit is renumbered before the next lookup."""
    assignments = state.org.assignments
    state.org.root = None
    _renumber(state)
    teams: list[str] = []
    for t in state.effective_tasks():
        a = assignments.get(t)
        if a is None or not state.is_composite(t):
            continue
        owner = owning_team(state, t)
        if owner is not None and owner not in org_core.index(state.org).node:
            continue  # its owning team is gone
        _seat_team(state, t, a.assignee)
        _renumber(state)
        teams.append(t)
    teams.sort(key=lambda t: -allocation.depth(state.task_parent, t))
    # with no team, an atomic root's holder is the whole organization
    for sub in [sub for t in teams for sub in state.org.subtasks[t]] or [state.root_task]:
        a = assignments.get(sub)
        if a is None or state.is_composite(sub):
            continue
        ix = org_core.index(state.org)
        leaf = ix.leaf_of_robot.get(a.assignee)
        if leaf is not None and leaf.goals:
            continue  # the robot's unit took its goals where it was first met
        for g in sorted(x for x in ix.tasks_by_robot[a.assignee] if not state.is_composite(x)):
            _install_member(state, a.assignee, g, owning_team(state, sub))
            _renumber(state)


# --- execution ---------------------------------------------------------------------


def _start_execution(state: FormationState, robots: list[str], result: StepResult) -> None:
    """Start each robot's assigned atomic tasks that have not started, in
    `_ordered_exec` order: a completion timer and a start_work message each.
    Pursuit missions complete through world dynamics instead."""
    if state.world is not None:
        return
    for robot in robots:
        for t in _ordered_exec(state, robot):
            if t in state.exec_started:
                continue
            start = max(_busy_until(state, robot), state.now) + 1
            done = start + state.tasks[t].duration - 1
            state.exec_started[t] = done
            result.timers.append(TaskCompleted(tick=done, id_task=t, robot=robot))
            result.messages.append(wire.Message(ENV, robot, wire.KIND_START_WORK, sent_at=state.now))


def _busy_until(state: FormationState, robot: str) -> int:
    """The latest due tick among the started tasks the robot still holds, 0
    when it holds none: a revoked award no longer keeps the robot busy."""
    held = org_core.index(state.org).tasks_by_robot.get(robot, ())
    return max((state.exec_started.get(t, 0) for t in held), default=0)


def _ordered_exec(state: FormationState, robot: str) -> list[str]:
    mine = sorted(
        t
        for t in org_core.index(state.org).tasks_by_robot[robot]
        if not state.is_composite(t) and state.status[t] is TaskStatus.ASSIGNED
    )
    orderings = check_assignment(
        state.params.rules_pool, state.params.constraints, {robot: set(mine)}
    ).orderings
    before: dict[str, set[str]] = {t: set() for t in mine}
    for _, first, second in orderings:
        if first in before and second in before:
            before[second].add(first)
    out: list[str] = []
    remaining = set(mine)
    while remaining:
        ready = sorted(t for t in remaining if not (before[t] & remaining))
        if not ready:  # priority cycle; fall back to id order
            ready = sorted(remaining)
        out.append(ready[0])
        remaining.discard(ready[0])
    return out


def _level(state: FormationState) -> int:
    """The depth of the org tree's deepest node; 0 for no tree."""
    return max(org_core.index(state.org).depth.values(), default=0)


def _check_formed(state: FormationState, result: StepResult) -> None:
    if state.phase is not Phase.FORMING:
        return
    if state.pending or state.active_auctions:
        return
    statuses = {state.status[t] for t in state.effective_tasks()}
    if statuses and statuses <= {TaskStatus.ASSIGNED, TaskStatus.COMPLETED}:
        state.phase = Phase.EXECUTING
        result.notes.append({"kind": "formed", "level": _level(state)})
        _start_execution(state, sorted(org_core.index(state.org).tasks_by_robot), result)


# --- completion -----------------------------------------------------------------------


def _complete_task(state: FormationState, event: TaskCompleted, result: StepResult) -> None:
    t = event.id_task
    if t not in state.tasks:
        raise ProtocolViolationError(f"completion for unknown task {t}")
    assignment = state.org.assignments.get(t)
    if (
        state.status[t] is not TaskStatus.ASSIGNED
        or assignment is None
        or assignment.assignee != event.robot
        or not state.alive(event.robot)
        # a timer of an earlier award, since revoked; a task with no due tick
        # (a surround goal) completes when its evader is captured
        or state.exec_started.get(t, event.tick) != event.tick
    ):
        result.notes.append({"kind": "completion_ignored"})
        return
    state.status[t] = TaskStatus.COMPLETED
    state.locks.release(event.robot, t, state.now)
    result.notes.append({"kind": "completed"})
    parent = state.task_parent.get(t)
    if parent is not None:
        _maybe_complete_parent(state, parent, result)


def _check_mission_done(state: FormationState, result: StepResult) -> None:
    if state.phase in (Phase.DONE, Phase.FAILED):
        return
    if state.root_task is None:
        if state.world is not None and state.world.captured == state.world.evaders.keys():
            # everything was captured before any tree formed; goal met anyway
            state.phase = Phase.DONE
            result.notes.append({"kind": "mission_done", "utilities": {}})
        return
    if state.status[state.root_task] is not TaskStatus.COMPLETED:
        return
    state.phase = Phase.DONE
    payouts: dict[str, Fraction] = {}
    for t in state.effective_tasks():
        if state.status[t] is not TaskStatus.COMPLETED:
            continue
        if t not in state.org.assignments:
            continue  # goal met without an assignee; nobody to pay
        if state.task_parent.get(t) is None:
            payouts[t] = state.tasks[t].reward
        else:
            payouts[t] = state.org.assignments[t].price
    deltas = org_core.settle_utilities(state.org, payouts)
    result.notes.append(
        {"kind": "mission_done", "utilities": {r: str(d) for r, d in sorted(deltas.items())}}
    )


# --- membership dynamics -----------------------------------------------------------------


def robot_pose(robot: CooperativeRobot, cell: pursuit.Cell) -> pursuit.RobotPose:
    """A pursuer at cell, with the speed and vision range of its capabilities."""
    return pursuit.RobotPose(
        cell,
        int(robot.capability(CapabilityKind.MOVING, "speed")),
        int(robot.capability(CapabilityKind.SENSING, "vision")),
    )


def handle_join(
    state: FormationState, robot: CooperativeRobot, *, pose: tuple[int, int] | None = None
) -> StepResult:
    result = StepResult()
    if robot.id_cr in state.robots:
        raise DuplicateRobotIdError(robot.id_cr)
    state.robots[robot.id_cr] = robot
    if state.world is not None and pose is not None:
        state.world.robots[robot.id_cr] = robot_pose(robot, pose)
    result.notes.append({"kind": "joined"})
    for t, auction in sorted(state.active_auctions.items()):
        speaker = _speaker(state, t)
        if org_core.communication_allowed(state.org, speaker, robot.id_cr):
            result.messages.append(
                wire.Message(
                    speaker, robot.id_cr, wire.KIND_ANNOUNCE, auction.announcement, state.now
                )
            )
    return result


def handle_withdrawal(state: FormationState, robot: str, reason: WithdrawReason) -> StepResult:
    result = StepResult()
    if not state.alive(robot):
        result.notes.append({"kind": "withdraw_noop"})
        return result
    if reason is WithdrawReason.FAILURE:
        state.dead.add(robot)
    else:
        state.departed.add(robot)
    if state.world is not None and robot in state.world.robots:
        state.world.robots[robot].alive = False

    ix = org_core.index(state.org)
    led = ix.led_by.get(robot, [])
    leaf = ix.leaf_of_robot.get(robot)
    if not led and leaf is None:
        result.notes.append({"kind": "withdrew_idle", "reason": reason.value})
        return result

    # the robot's own unfinished work returns to the queue
    for t in sorted(ix.tasks_by_robot.get(robot, ())):
        assignment = state.org.assignments[t]
        if state.status[t] is not TaskStatus.ASSIGNED or assignment.mode is AssignmentMode.LED:
            continue
        _revoke_task(state, t, reason.value, result)
        state.pending.append(t)

    if leaf is not None:
        holder = ix.parent[leaf.id_ros]
        if holder is None:
            state.org.root = None
        else:
            holder.children.remove(leaf)
    if led:
        # re-election looks its team up in the index: seal the edits above first
        _renumber(state)
        for team in sorted(led, key=lambda n: -n.level_i):
            reelect_leader(state, team.id_ros, result)

    _renumber(state)
    result.notes.append({"kind": "withdrew", "reason": reason.value})
    return result


def reelect_leader(state: FormationState, node_id: str, result: StepResult) -> None:
    """Least-reward mini-auction among the team's remaining live members:
    `compute_bid` declines a member without the organization ability, and
    the team dissolves if nobody bids.

    Resolved synchronously: a leadership change is an internal team mechanism,
    so the winner lock on outstanding task work does not bar a member from
    taking over coordination.
    """
    ix = org_core.index(state.org)
    node = ix.node.get(node_id)
    if node is None:
        return
    parent = ix.parent[node_id]
    t = node.goals[0]
    node.id_robot = None
    state.org.assignments.pop(t, None)
    if state.status[t] in (TaskStatus.ASSIGNED, TaskStatus.ANNOUNCED):
        state.status[t] = TaskStatus.UNASSIGNED
        state.active_auctions.pop(t, None)
    election = Announcement(
        id_task=t,
        reward=state.current_reward[t],
        required_capabilities=LEADERSHIP_REQUIREMENTS,
        deadline=state.now,
        leadership=True,
    )
    members = sorted(c.id_robot for c in node.children if c.id_robot is not None)
    offers: dict[str, Bid] = {}  # by bidder
    for rid in filter(state.alive, members):
        decision = compute_bid(state.robots[rid], election, state.cost_of, state.params.markup, state.now)
        if isinstance(decision, Bid):
            offers[rid] = decision
    if not offers:
        _dissolve_team(state, node, parent, result)
        return
    winner = select_winner(list(offers.values()))
    price = offers[winner].price
    node.id_robot = winner
    element = next((c for c in node.children if c.id_robot == winner), None)
    if element is not None:
        node.children.remove(element)
        node.children.insert(0, element)
    _assign(state, t, winner, price, AssignmentMode.LED)
    result.notes.append(
        {
            "kind": "reelected",
            "task": t,
            "robot": winner,
            "price": str(price),
            "offers": {rid: str(b.price) for rid, b in offers.items()},
        }
    )
    _renumber(state)
    _maybe_complete_parent(state, t, result)


# --- pursuit glue ---------------------------------------------------------------------

#: A pursuit's one root task, registered when the first organizer is elected:
#: its leader is the organizer, and each capture root is its subtask.
SOCIETY = "society"


def _pursuit_tick(state: FormationState, result: StepResult) -> None:
    world = state.world
    assert world is not None
    params = state.params.pursuit or PursuitParams()

    targets: dict[str, tuple[int, int]] = {}
    centers: dict[str, tuple[int, int]] = {}
    for t, (evader, sg) in sorted(state.flank.items()):
        # a captured evader's goals are done or superseded; an Assigned
        # goal's holder is alive, as a withdrawal revokes the goals it holds
        if evader in world.captured or state.status[t] is not TaskStatus.ASSIGNED:
            continue
        center = centers.get(evader)
        if center is None:
            center = centers[evader] = pursuit.predicted_position(world, evader)
        holder = state.org.assignments[t].assignee
        # tick_world clamps the target
        targets[holder] = (center[0] + sg.offset[0], center[1] + sg.offset[1])

    # a capture tree whose holder failed in the capture tick is left open: a
    # goal queued again, or a completion timer voided. It is finished now,
    # before anything is auctioned for an evader already caught
    late = [
        ev
        for ev in sorted(world.captured)
        if state.status.get(f"capture:{ev}", TaskStatus.COMPLETED) is not TaskStatus.COMPLETED
    ]
    for evader in late:
        _finish_evader_tree(state, evader, result)
    before = set(world.captured)
    pursuit.tick_world(world, targets, capture_quorum=params.capture_quorum)
    caught = sorted(world.captured - before)
    for evader in caught:
        result.notes.append({"kind": "captured", "evader": evader, "tick": world.tick})
        _finish_evader_tree(state, evader, result)
    if (late or caught) and SOCIETY in state.tasks:
        # the last evader may be caught with no led capture root to report it
        _maybe_complete_parent(state, SOCIETY, result)

    # sensing is pure and the first tick is kept, so a robot that has already
    # seen every uncaptured evader has nothing left to record. A pose is
    # alive exactly while its robot is
    open_evaders = [ev for ev in sorted(world.evaders) if ev not in world.captured]
    for rid, pose in sorted(world.robots.items()):
        if not pose.alive:
            continue
        for ev in open_evaders:
            if (rid, ev) not in state.first_detection:
                break
        else:
            continue
        for ev_id, _, tick in pursuit.sense(world, rid):
            state.first_detection.setdefault((rid, ev_id), tick)

    if SOCIETY not in state.tasks:
        # the first to detect founds the society; from then on its leader
        # changes only by re-election, by a re-plan, or by its auction after
        # a dissolution
        eligible = [
            (rid, ev, tick)
            for (rid, ev), tick in state.first_detection.items()
            if world.robots[rid].alive and state.robots[rid].dominates(LEADERSHIP_REQUIREMENTS)
        ]
        chosen = pursuit.elect_organizer(eligible)
        if chosen is not None:
            register_task_tree(state, TaskNode(SOCIETY, params.mission_reward * len(world.evaders)))
            _hang_team(state, SOCIETY, chosen, state.current_reward[SOCIETY], result)
            _renumber(state)
            state.phase = Phase.FORMING
            result.notes.append({"kind": "organizer_elected", "robot": chosen})

    organizer = state.organizer
    if organizer is None:
        return
    detected = {ev for (_, ev) in state.first_detection}
    for evader in sorted(detected):
        if evader in world.captured or f"capture:{evader}" in state.tasks:
            continue  # an evader is planned once its capture task is registered
        subgoals = pursuit.plan_pursuit(
            world,
            organizer,
            evader,
            k=params.k,
            base_reward=params.base_reward,
            required_speed=params.required_speed,
        )
        root = TaskNode(
            id_task=f"capture:{evader}",
            reward=params.mission_reward,
            subtasks=[
                TaskNode(
                    id_task=f"sg:{evader}:{i}",
                    reward=sg.reward,
                    required_capabilities=frozenset(
                        {CapabilityRequirement(CapabilityKind.MOVING, "speed", sg.required_speed)}
                    ),
                )
                for i, sg in enumerate(subgoals)
            ],
        )
        register_task_tree(state, root, SOCIETY)
        state.org.subtasks[SOCIETY].append(root.id_task)
        for i, sg in enumerate(subgoals):
            state.flank[f"sg:{evader}:{i}"] = (evader, sg)
        # the organizer leads it from the tick that plans it, at its reward
        _hang_team(state, root.id_task, organizer, root.reward, result)
        _renumber(state)
        result.notes.append(
            {
                "kind": "planned",
                "evader": evader,
                "organizer": organizer,
                "subgoals": [list(sg.cell) for sg in subgoals],
            }
        )


def _finish_evader_tree(state: FormationState, evader: str, result: StepResult) -> None:
    root_id = f"capture:{evader}"
    if root_id not in state.tasks:
        return
    live: list[str] = []
    for t in state.org.subtasks.get(root_id, []):
        status = state.status[t]
        if status in (TaskStatus.ASSIGNED, TaskStatus.COMPLETED):
            live.append(t)
            if status is TaskStatus.ASSIGNED:
                a = state.org.assignments[t]
                result.timers.append(TaskCompleted(tick=state.now, id_task=t, robot=a.assignee))
        else:
            state.status[t] = TaskStatus.FAILED
            state.active_auctions.pop(t, None)
            result.notes.append({"kind": "superseded_by_capture", "task": t})
    state.org.subtasks[root_id] = live
    state.pending = deque(p for p in state.pending if state.task_parent[p] != root_id)
    root_assignment = state.org.assignments.get(root_id)
    if root_assignment is not None:
        if state.status[root_id] is TaskStatus.ASSIGNED and all(
            state.status[t] is TaskStatus.COMPLETED for t in live
        ):
            result.timers.append(
                TaskCompleted(tick=state.now, id_task=root_id, robot=root_assignment.assignee)
            )
    elif state.status[root_id] is not TaskStatus.COMPLETED:
        # captured while the tree was leaderless: the goal is met regardless
        state.active_auctions.pop(root_id, None)
        state.pending = deque(p for p in state.pending if p != root_id)
        state.status[root_id] = TaskStatus.COMPLETED
        result.notes.append({"kind": "captured_unled", "task": root_id})


# --- the transition function ---------------------------------------------------------


def step(state: FormationState, event: FormationEvent) -> StepResult:
    """Apply one event. Deterministic; mutates the state in place."""
    if event.tick < state.now:
        raise ProtocolViolationError(f"event at tick {event.tick} after state reached {state.now}")
    state.now = event.tick
    result = StepResult()

    if isinstance(event, Tick):
        if state.world is not None and state.phase not in (Phase.DONE, Phase.FAILED):
            _pursuit_tick(state, result)
            _check_mission_done(state, result)
        if state.phase not in (Phase.DONE, Phase.FAILED):
            queued, state.pending = state.pending, deque()
            for t in queued:
                _announce(state, t, result)
    elif isinstance(event, TaskArrived):
        if event.id_task not in state.tasks:
            raise ProtocolViolationError(f"arrival of unregistered task {event.id_task}")
        state.pending.append(event.id_task)
        result.notes.append({"kind": "queued"})
    elif isinstance(event, BidSubmitted):
        _accept_bid(state, event, result)
    elif isinstance(event, AuctionClosed):
        _close_auction(state, event, result)
    elif isinstance(event, TaskCompleted):
        _complete_task(state, event, result)
        _check_mission_done(state, result)
    elif isinstance(event, RobotFailed):
        result = handle_withdrawal(state, event.robot, WithdrawReason.FAILURE)
    elif isinstance(event, RobotWithdrew):
        result = handle_withdrawal(state, event.robot, event.reason)
    elif isinstance(event, RobotJoined):
        result = handle_join(state, event.robot, pose=event.pose)
    else:
        raise ProtocolViolationError(f"unknown event {event!r}")
    return result


def _accept_bid(state: FormationState, event: BidSubmitted, result: StepResult) -> None:
    bid = event.bid
    auction = state.active_auctions.get(bid.id_task)
    if auction is None:
        if bid.id_task in state.tasks:
            result.notes.append({"kind": "void_bid"})
            return
        raise ProtocolViolationError(f"bid for unknown auction {bid.id_task}")
    ann = auction.announcement
    if bid.round != ann.round:
        result.notes.append({"kind": "stale_bid"})
        return
    if event.tick > ann.deadline:
        result.notes.append({"kind": "late_bid", "deadline": ann.deadline})
        return
    if winner_locked(state.locks, bid.bidder, bid.sent_at):
        result.notes.append({"kind": "protocol_violation", "why": "locked_bid"})
        return
    if bid.bidder in auction.bids:
        result.notes.append({"kind": "duplicate_bid"})
        return
    auction.bids[bid.bidder] = bid
    result.notes.append({"kind": "bid"})


# --- snapshots / hashing ---------------------------------------------------------------


def state_snapshot(state: FormationState, org: dict | None = None) -> dict:
    """The state a hash seals, as plain data. `org` is the organization's
    `org_core.snapshot_dict` when the caller has built it already."""
    return {
        "now": state.now,
        "phase": state.phase.value,
        "level": _level(state),
        "pool": sorted(state.pool),
        "dead": sorted(state.dead),
        "departed": sorted(state.departed),
        "pending": [[t, owning_team(state, t)] for t in state.pending],
        "auctions": {
            t: {
                "round": a.announcement.round,
                "reward": str(a.announcement.reward),
                "deadline": a.announcement.deadline,
                "bids": [[b.bidder, str(b.price), b.round, b.sent_at] for b in a.bids.values()],
            }
            for t, a in sorted(state.active_auctions.items())
        },
        "tasks": {
            t: {"status": state.status[t].value, "reward": str(state.current_reward[t])}
            for t in sorted(state.tasks)
        },
        "org": org if org is not None else org_core.snapshot_dict(state.org),
        "busy": {
            r: b for r in sorted(org_core.index(state.org).tasks_by_robot) if (b := _busy_until(state, r))
        },
        "exec_started": sorted(state.exec_started),
        "organizer": state.organizer,
        "planned": sorted(
            t.removeprefix("capture:") for t in state.tasks if state.world and t.startswith("capture:")
        ),
        "detections": sorted([r, e, t] for (r, e), t in state.first_detection.items()),
        "world": pursuit.world_snapshot(state.world) if state.world is not None else None,
    }


def state_hash(state: FormationState, org: dict | None = None) -> str:
    """sha256 of the canonical JSON of `state_snapshot`: a log's `final_hash`."""
    return org_core.canonical_hash(state_snapshot(state, org))


# --- synchronous formation ----------------------------------------------------------------


def form(
    task: TaskNode,
    robots: list[CooperativeRobot],
    params: EngineParams | None = None,
    *,
    max_ticks: int = 500,
) -> Organization:
    """Run the formation machine to completion for one task tree.

    Returns the formed organization or raises FormationError when no
    capability- and rule-respecting assignment exists.
    """
    from .simnet import NetConfig, Scheduler  # simnet drives this module at runtime

    if not robots:
        raise FormationError("Unfillable", "no robots")
    state = new_state(robots, params or EngineParams())
    register_task_tree(state, task)
    scheduler = Scheduler(state, NetConfig())
    scheduler.push_event(TaskArrived(tick=0, id_task=task.id_task))
    scheduler.run(
        until=max_ticks,
        stop_when=lambda s: s.phase in (Phase.EXECUTING, Phase.DONE, Phase.FAILED),
    )
    if state.phase in (Phase.EXECUTING, Phase.DONE):
        return state.org
    raise FormationError("Unfillable", task.id_task)
