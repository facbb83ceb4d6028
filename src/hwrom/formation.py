"""Top-down formation state machine.

All state mutation happens in step(); the scheduler (simnet) only turns the
outbound messages and timers into future events. step() is deterministic:
identical (state, event) sequences produce identical states and hashes, which
is what makes logs replayable and verifiable.

The normal path is market-based: announce, collect bids, award by least
reward, escalate or re-split on silence. When the tactics ladder is
exhausted the acting society leader falls back on its allocation right and
re-plans assignments directly (without negotiation), which keeps formation
complete whenever a feasible assignment exists at all.
"""

from __future__ import annotations

import hashlib
import weakref
from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from functools import partial
from typing import Collection, Iterator

from . import org_core, pursuit, wire
from .market import (
    AdjustPolicy,
    Announcement,
    Bid,
    Decline,
    GiveUp,
    Redecompose,
    ScenarioContext,
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
    canonical_json,
)
from .rules_engine import (
    STANDARD_RULES,
    ConstraintKind,
    ConstraintRelation,
    LockLedger,
    Rule,
    RuleSet,
    check_assignment,
    preferred_teams,
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
    parent_node: str | None = None
    designated_leader: str | None = None


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

    `parallel_pairs` is derived once, at construction: the Parallel pairs
    {a, b} (a != b) the Parallel norm binds, empty unless the rules pool holds
    `no_parallel_coassignment`."""

    margin: Fraction = Fraction(1, 10)
    policy: AdjustPolicy = AdjustPolicy()
    bid_window: int = 3
    default_cost: Fraction = Fraction(1)
    cost_table: dict[tuple[str, str], Fraction] = field(default_factory=dict)
    constraints: tuple[ConstraintRelation, ...] = ()
    rules_pool: frozenset[Rule] = STANDARD_RULES
    robot_rules: dict[str, frozenset[Rule]] = field(default_factory=dict)
    pursuit: PursuitParams | None = None
    parallel_pairs: frozenset[frozenset[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        binds = RuleSet(self.rules_pool).has_predicate("no_parallel_coassignment")
        object.__setattr__(
            self,
            "parallel_pairs",
            frozenset(
                frozenset((c.a, c.b))
                for c in self.constraints
                if binds and c.kind is ConstraintKind.PARALLEL and c.a != c.b
            ),
        )


@dataclass
class AuctionState:
    announcement: Announcement
    parent_node: str | None
    bids: dict[str, Bid] = field(default_factory=dict)  # by bidder, in arrival order


@dataclass(frozen=True)
class PendingTask:
    id_task: str
    parent_node: str | None


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
    pending: deque[PendingTask] = field(default_factory=deque)
    active_auctions: dict[str, AuctionState] = field(default_factory=dict)
    org: Organization = field(default_factory=Organization)
    locks: LockLedger = field(default_factory=LockLedger)
    tasks: dict[str, TaskNode] = field(default_factory=dict)
    # the run's status of each task: the task nodes are the parsed, shared inputs
    status: dict[str, TaskStatus] = field(default_factory=dict)
    root_tasks: list[str] = field(default_factory=list)
    task_parent: dict[str, str | None] = field(default_factory=dict)
    task_children: dict[str, list[str]] = field(default_factory=dict)
    current_reward: dict[str, Fraction] = field(default_factory=dict)
    alternatives_used: dict[str, int] = field(default_factory=dict)
    phase: Phase = Phase.FORMING
    now: int = 0
    exec_started: dict[str, int] = field(default_factory=dict)  # atomic task -> due tick
    # the pricing context of tick `pricing.now`, derived and rebuilt by `_context`
    pricing: ScenarioContext | None = field(default=None, init=False, repr=False, compare=False)
    # pursuit bookkeeping
    world: pursuit.WorldState | None = None
    first_detection: dict[tuple[str, str], int] = field(default_factory=dict)
    organizer: str | None = None
    # surround goal -> (its evader, its planned sub-goal)
    flank: dict[str, tuple[str, pursuit.Subgoal]] = field(default_factory=dict)

    def alive(self, robot: str) -> bool:
        return robot in self.robots and robot not in self.dead and robot not in self.departed

    @property
    def pool(self) -> set[str]:
        """The live robots the org tree binds nowhere."""
        ix = org_core.index(self.org)
        bound = ix.leaf_of_robot.keys() | ix.led_by.keys()
        return {r for r in self.robots if self.alive(r) and r not in bound}

    def effective_tasks(self) -> Iterator[str]:
        stack = list(self.root_tasks)
        while stack:
            t = stack.pop(0)
            yield t
            stack = self.task_children.get(t, []) + stack

    def is_composite(self, id_task: str) -> bool:
        return bool(self.task_children.get(id_task))


# --- state construction ---------------------------------------------------------


def _leadership_capable(robot: CooperativeRobot) -> bool:
    return robot.dominates(LEADERSHIP_REQUIREMENTS)


def register_task_tree(state: FormationState, task: TaskNode, *, as_root: bool = True) -> None:
    for node in task.walk():
        if node.id_task in state.tasks:
            raise FormationError("DuplicateTaskId", node.id_task)
        state.tasks[node.id_task] = node
        state.status[node.id_task] = TaskStatus.UNASSIGNED
        state.task_children[node.id_task] = [s.id_task for s in node.subtasks]
        state.current_reward[node.id_task] = node.reward
        for sub in node.subtasks:
            state.task_parent[sub.id_task] = node.id_task
        state.org.known_tasks.add(node.id_task)
    if as_root:
        state.task_parent.setdefault(task.id_task, None)
        state.root_tasks.append(task.id_task)


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


def _task_depth(state: FormationState, t: str) -> int:
    d = 0
    while (p := state.task_parent.get(t)) is not None:
        t = p
        d += 1
    return d


def norm_violation(state: FormationState, t: str, held: Collection[str]) -> str | None:
    """The norm a robot holding `held` would break by also taking task t, as
    a decline reason, or None when it may take it. The auction (after the
    winner lock) and the allocation fallback both ask this.

    Leadership chain: the robot's composites, t among them and completed ones
    too, must form one parent-child chain, otherwise its own element would
    have to sit under two unrelated teams at once. Parallel: t must form no
    binding Parallel pair with a held task."""
    if state.is_composite(t):
        mine = {x for x in held if state.is_composite(x)}
        mine.add(t)
        if len(mine) > 1:
            xs = sorted(mine, key=lambda x: (_task_depth(state, x), x))
            if any(state.task_parent.get(b) != a for a, b in zip(xs, xs[1:])):
                return "leadership_chain"
    pairs = state.params.parallel_pairs
    if pairs and any(frozenset((t, h)) in pairs for h in held):
        return "parallel_conflict"
    return None


def _cost_of(state: FormationState, robot: CooperativeRobot, ann: Announcement) -> Fraction:
    if state.world is not None:
        flank = state.flank.get(ann.id_task)
        if flank is not None:
            if robot.id_cr not in state.world.robots:
                raise pursuit.ZeroSpeedError(robot.id_cr)
            return pursuit.robot_cost(state.world, robot.id_cr, flank[1].cell)
        if ann.leadership:
            return Fraction(0)
    return state.params.cost_table.get((robot.id_cr, ann.id_task), state.params.default_cost)


def _context(state: FormationState) -> ScenarioContext:
    """The pricing context of the current tick, built once per tick. It is
    kept on the state, so it reaches the state through a weak proxy: a strong
    reference would leave every finished state to the cycle collector."""
    ctx = state.pricing
    if ctx is None or ctx.now != state.now:
        ctx = state.pricing = ScenarioContext(
            cost_of=partial(_cost_of, weakref.proxy(state)),
            margin=state.params.margin,
            now=state.now,
        )
    return ctx


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
    return compute_bid(state.robots[robot_id], ann, _context(state))


# --- structural edits --------------------------------------------------------------


def _rules_for(state: FormationState, robot: str) -> RuleSet:
    return RuleSet(state.params.robot_rules.get(robot, state.params.rules_pool))


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
        return node.rules.rules, set(node.goals)
    rules: frozenset[Rule] | None = None
    goals = set(node.goals)
    for i, child in enumerate(node.children):
        child_rules, child_goals = _renumber_subtree(state, child, depth + 1, i, relations, bound)
        rules = child_rules if rules is None else rules & child_rules
        goals |= child_goals
    node.rules = RuleSet(rules)
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


def _announce(state: FormationState, item: PendingTask, result: StepResult) -> None:
    t = item.id_task
    if state.status.get(t) is not TaskStatus.UNASSIGNED:
        return
    if item.parent_node is None:
        auctioneer = ENV
    else:
        node = org_core.index(state.org).node.get(item.parent_node)
        if node is None:
            return  # owning team vanished; the task was revoked with it
        if node.id_robot is None:
            state.pending.append(item)  # team mid re-election; retry next tick
            return
        auctioneer = node.id_robot
    reqs, leadership = _requirements(state, t)
    ann = Announcement(
        id_task=t,
        reward=state.current_reward[t],
        required_capabilities=reqs,
        auctioneer=auctioneer,
        leadership=leadership,
    )
    _open_auction(state, ann, item.parent_node, result)
    result.notes.append(
        {
            "kind": "announce",
            "task": t,
            "round": ann.round,
            "reward": str(ann.reward),
            "auctioneer": auctioneer,
            "leadership": leadership,
        }
    )


def _open_auction(
    state: FormationState, ann: Announcement, parent_node: str | None, result: StepResult
) -> None:
    """Open one round of a task's auction: its bid window starts now, every
    live robot the auctioneer may talk to hears it, and its close is timed."""
    ann = replace(ann, deadline=state.now + state.params.bid_window)
    t = ann.id_task
    state.current_reward[t] = ann.reward
    state.status[t] = TaskStatus.ANNOUNCED
    state.active_auctions[t] = AuctionState(ann, parent_node)
    for rid in sorted(state.robots):
        if state.alive(rid) and org_core.communication_allowed(state.org, ann.auctioneer, rid):
            result.messages.append(wire.Message(ann.auctioneer, rid, wire.KIND_ANNOUNCE, ann, state.now))
    result.timers.append(AuctionClosed(tick=ann.deadline + 1, id_task=t, round=ann.round))


# --- awards --------------------------------------------------------------------------


def _award(state: FormationState, auction: AuctionState, bid: Bid, result: StepResult) -> None:
    t = bid.id_task
    winner = bid.bidder

    if state.is_composite(t):
        _hang_team(state, t, winner, bid.price, auction.parent_node, result)
    else:
        state.locks.lock(winner, t, state.now)
        _install_member(state, winner, t, auction.parent_node)
        state.org.assignments[t] = TaskAssignment(t, winner, bid.price, AssignmentMode.WON)
        state.status[t] = TaskStatus.ASSIGNED
        result.messages.append(
            wire.Message(
                auction.announcement.auctioneer,
                winner,
                wire.KIND_AWARD,
                {"task": t, "price": str(bid.price)},
                state.now,
            )
        )

    result.notes.append(
        {
            "kind": "award",
            "task": t,
            "robot": winner,
            "price": str(bid.price),
            "round": bid.round,
            "leadership": state.is_composite(t),
        }
    )
    _renumber(state)
    if state.phase is Phase.EXECUTING:
        # after `_renumber`: the dispatcher finds the new task in the index
        _start_execution(state, [winner], result)


def _lead(state: FormationState, t: str, leader: str, price: Fraction) -> None:
    """Give task t to leader to lead: the LED assignment over t's current
    decomposition, and t's status. Awards, designations, re-elections and
    the allocation fallback all take leadership through here."""
    state.org.assignments[t] = TaskAssignment(
        t, leader, price, AssignmentMode.LED, tuple(state.task_children[t])
    )
    state.status[t] = TaskStatus.ASSIGNED


def _new_team(t: str, leader: str) -> OrgNode:
    """The team node of task t, led by leader, before it gets its children;
    `_renumber` fills in its place, rules and constraints."""
    return OrgNode(id_ros=f"team:{t}", id_robot=leader, level_i=0, pos_j=0, goals=[t])


def _hang_team(
    state: FormationState,
    t: str,
    leader: str,
    price: Fraction,
    parent_node: str | None,
    result: StepResult,
) -> None:
    """Hang a new team for task t, led by leader, under parent_node (the root
    when None), hand leader the lead, and queue the arrival of each subtask
    still unassigned. The tree lookups come before the assignment is
    written, while the index still matches; the caller renumbers."""
    ix = org_core.index(state.org)
    team = _new_team(t, leader)
    existing_leaf = ix.leaf_of_robot.get(leader)
    if parent_node is None:
        team.children = [existing_leaf if existing_leaf is not None else _new_leaf(state, leader)]
        state.org.root = team
    else:
        parent = ix.node.get(parent_node)
        if parent is None:
            raise ProtocolViolationError(f"award under unknown node {parent_node}")
        if leader == parent.id_robot and parent.children:
            # leadership chain: the leader's own element grows a level
            element = parent.children[0]
            team.children = [element]
            parent.children[0] = team
        elif existing_leaf is not None and existing_leaf in parent.children:
            idx = parent.children.index(existing_leaf)
            team.children = [existing_leaf]
            parent.children[idx] = team
        else:
            if existing_leaf is not None:
                # one unit per robot: it moves into the new team from wherever it sits
                ix.parent[existing_leaf.id_ros].children.remove(existing_leaf)
            else:
                existing_leaf = _new_leaf(state, leader)
            team.children = [existing_leaf]
            parent.children.append(team)
    _lead(state, t, leader, price)
    for child in state.task_children[t]:
        if state.status[child] is TaskStatus.UNASSIGNED:
            result.timers.append(TaskArrived(tick=state.now, id_task=child, parent_node=f"team:{t}"))
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
    a leader after they all finished without one."""
    children = state.task_children.get(t, [])
    a = state.org.assignments.get(t)
    if (
        a is not None
        and state.status[t] is TaskStatus.ASSIGNED
        and children
        and all(state.status[s] is TaskStatus.COMPLETED for s in children)
    ):
        result.timers.append(TaskCompleted(tick=state.now, id_task=t, robot=a.assignee))


# --- escalation, redecomposition, allocation fallback ----------------------------------


def _close_auction(state: FormationState, event: AuctionClosed, result: StepResult) -> None:
    t = event.id_task
    auction = state.active_auctions.get(t)
    if auction is None:
        if t in state.tasks:
            result.notes.append({"kind": "close_ignored", "task": t})
            return
        raise ProtocolViolationError(f"close for unknown auction {t}")
    if auction.announcement.round != event.round:
        result.notes.append({"kind": "close_stale", "task": t, "round": event.round})
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
        _award(state, auction, auction.bids[winner], result)
        _check_formed(state, result)
        return

    tactic = adjust_tactics(ann, state.params.policy)
    if isinstance(tactic, Redecompose):
        if _apply_redecompose(state, t, tactic, result):
            _check_formed(state, result)
            return
        # no alternative left: escalate the reward instead
        tactic = replace(ann, reward=ann.reward * (1 + state.params.policy.delta), round=tactic.round)
    if isinstance(tactic, Announcement):
        _open_auction(state, tactic, auction.parent_node, result)
        result.notes.append(
            {"kind": "escalate", "task": t, "round": tactic.round, "reward": str(tactic.reward)}
        )
        return
    result.notes.append({"kind": "give_up", "task": t})
    try:
        planned = _replan(state, result)
    except ReplanBudgetExhausted:
        result.notes.append({"kind": "replan_budget_exhausted", "task": t})
        planned = False
    if not planned:
        state.phase = Phase.FAILED
        result.notes.append({"kind": "formation_failed", "task": t})
    _check_formed(state, result)


def _apply_redecompose(
    state: FormationState, t: str, tactic: Redecompose, result: StepResult
) -> bool:
    """Swap the failed task for its next alternative decomposition, if any."""
    task = state.tasks[t]
    parent_id = state.task_parent.get(t)
    used = state.alternatives_used.get(t, 0)
    if parent_id is None or used >= len(task.alternatives):
        return False
    pieces = task.alternatives[used]
    state.alternatives_used[t] = used + 1
    for piece in pieces:
        register_task_tree(state, piece, as_root=False)
        state.task_parent[piece.id_task] = parent_id
    siblings = state.task_children[parent_id]
    at = siblings.index(t)
    state.task_children[parent_id] = siblings[:at] + [p.id_task for p in pieces] + siblings[at + 1 :]
    state.status[t] = TaskStatus.FAILED
    parent_assignment = state.org.assignments.get(parent_id)
    if parent_assignment is not None and parent_assignment.subtask_ids:
        state.org.assignments[parent_id] = replace(
            parent_assignment, subtask_ids=tuple(state.task_children[parent_id])
        )
    owning = f"team:{parent_id}"
    for piece in pieces:
        state.pending.append(PendingTask(piece.id_task, owning))
    result.notes.append(
        {"kind": "redecompose", "task": t, "pieces": [p.id_task for p in pieces], "round": tactic.round}
    )
    return True


def _descendants(state: FormationState, t: str) -> list[str]:
    out: list[str] = []
    stack = list(state.task_children.get(t, []))
    while stack:
        x = stack.pop(0)
        out.append(x)
        stack.extend(state.task_children.get(x, []))
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
    """Reset a leaderless team: unfinished subtree tasks return to the parent's
    queue, members go back to the pool, accumulated margin is forfeited."""
    t = node.goals[0] if node.goals else None
    if t is not None:
        for sub in _descendants(state, t):
            if state.status[sub] is not TaskStatus.COMPLETED:
                _revoke_task(state, sub, "team_dissolved", result)
        state.org.assignments.pop(t, None)
        if state.status[t] is not TaskStatus.COMPLETED:
            state.status[t] = TaskStatus.UNASSIGNED
            state.pending.append(PendingTask(t, parent.id_ros if parent is not None else None))
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


class ReplanBudgetExhausted(Exception):
    """The allocation search visited REPLAN_NODE_BUDGET nodes without an answer."""


def _unfinished(state: FormationState) -> list[str]:
    return [
        t
        for t in state.effective_tasks()
        if state.status[t]
        in (TaskStatus.UNASSIGNED, TaskStatus.ANNOUNCED, TaskStatus.ASSIGNED)
    ]


def _allocation(state: FormationState, unfinished: list[str]) -> list[tuple[str, str]] | None:
    """The preference-best feasible assignment of `unfinished` tasks as
    (task, robot) pairs in `order` (composites first), or None if there is none.

    Best means the least key (team size, sorted team, assignee of each task in
    `order`): rules_engine.forming_key on the team, then the assignment vector.
    Depth-first searches capped at k distinct robots find the least team size
    k; teams of the candidate robots are then tried in forming_key order from
    k. Within a team a depth-first search over `order` takes each task's
    candidates in id order, so its first complete hit is the lexicographic
    optimum. Raises ReplanBudgetExhausted
    after REPLAN_NODE_BUDGET search nodes.
    """
    robots = sorted(r for r in state.robots if state.alive(r))
    tasks_by_robot = org_core.index(state.org).tasks_by_robot
    fixed_held: dict[str, set[str]] = {
        r: {t for t in tasks_by_robot.get(r, ()) if state.status[t] is TaskStatus.COMPLETED}
        for r in robots
    }

    composites = [t for t in unfinished if state.is_composite(t)]
    atomics = [t for t in unfinished if not state.is_composite(t)]
    order = composites + atomics

    eligible: dict[str, list[str]] = {}
    for t in order:
        reqs, _ = _requirements(state, t)
        eligible[t] = [r for r in robots if state.robots[r].dominates(reqs)]
    if not all(eligible.values()):
        return None

    nodes = 0

    def visit() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > REPLAN_NODE_BUDGET:
            raise ReplanBudgetExhausted

    # robots with the same candidacies and completed work are interchangeable
    # until one of them is used: swapping two unused ones maps any completion
    # onto another, so once one fails as t's assignee, the rest fail too
    kind = {r: (tuple(r in eligible[t] for t in order), frozenset(fixed_held[r])) for r in robots}
    chosen: dict[str, str] = {}
    # the partial assignment by robot, and how many robots it uses, kept in
    # step with `chosen`
    taken: dict[str, list[str]] = {r: [] for r in robots}
    used = 0

    def search(i: int, options: dict[str, list[str]], team: set[str], cap: int) -> bool:
        """Extend `chosen` over order[i:] with at most `cap` distinct robots,
        so that every member of `team` ends up with a task."""
        nonlocal used
        visit()
        # every robot in use is a member of `team` when `team` is not empty
        # (options hold members only), so this counts the members still idle
        if len(order) - i < len(team) - used:
            return False
        if i == len(order):
            return True
        t = order[i]
        fresh_tried = set()
        for r in options[t]:
            mine = taken[r]
            if not mine:
                if used >= cap or kind[r] in fresh_tried:
                    continue
                fresh_tried.add(kind[r])
            if norm_violation(state, t, [*fixed_held[r], *mine]) is None:
                chosen[t] = r
                mine.append(t)
                used += len(mine) == 1
                if search(i + 1, options, team, cap):
                    return True
                used -= len(mine) == 1
                mine.pop()
                del chosen[t]
        return False

    def forget() -> None:
        """Empty the assignment a successful search leaves behind."""
        nonlocal used
        chosen.clear()
        for mine in taken.values():
            mine.clear()
        used = 0

    try:
        # one first-hit search proves feasibility, so an infeasible instance never
        # pays for the team enumeration; its team bounds the least size from above
        if not search(0, eligible, set(), len(order)):
            return None
        upper = used
        forget()

        # each robot's composites form one parent-child path (the leadership
        # chain of `norm_violation`), and a composite with no unfinished
        # composite child can only end such a path
        open_composites = set(composites)
        size = max(1, sum(1 for t in composites if open_composites.isdisjoint(state.task_children[t])))
        # a search capped at `size` robots visits each partial assignment once,
        # where trying every team of that size would revisit it in each superset
        while size < upper and not search(0, eligible, set(), size):
            size += 1
        forget()

        # a robot that is no task's candidate can hold nothing, so it is in no team
        pool = set().union(*eligible.values())
        for team in preferred_teams(pool, size):
            visit()
            members = set(team)
            options = {t: [r for r in eligible[t] if r in members] for t in order}
            if all(options.values()) and search(0, options, members, size):
                return [(t, chosen[t]) for t in order]
        return None  # unreachable: the capped search above found a team of `size`
    finally:
        # `search` calls itself through its closure cell, a cycle that would
        # keep the state alive until the cycle collector runs; empty the cell
        del search


def _replan(state: FormationState, result: StepResult) -> bool:
    """Leader allocation without negotiation: find the preference-best feasible
    assignment of every unfinished task and install it wholesale."""
    unfinished = _unfinished(state)
    if not unfinished:
        return True
    best = _allocation(state, unfinished)
    if best is None:
        return False

    for t in unfinished:
        _revoke_task(state, t, "reallocated", result)
    state.pending.clear()
    state.active_auctions.clear()

    for t, assignee in best:
        price = state.current_reward[t]
        if state.is_composite(t):
            _lead(state, t, assignee, price)
        else:
            state.org.assignments[t] = TaskAssignment(t, assignee, price, AssignmentMode.ALLOCATED)
            state.status[t] = TaskStatus.ASSIGNED
        result.notes.append({"kind": "allocated", "task": t, "robot": assignee, "price": str(price)})

    _rebuild_tree(state)
    if state.world is not None and state.root_tasks:
        first_root = state.org.assignments.get(state.root_tasks[0])
        if first_root is not None:
            state.organizer = first_root.assignee
    if state.phase is Phase.EXECUTING:
        _start_execution(state, sorted({assignee for _, assignee in best}), result)
    return True


def _rebuild_tree(state: FormationState) -> None:
    """Rebuild the whole tree from the assignment record (used after re-plans)."""
    assignments = state.org.assignments
    leaders = {
        a.assignee
        for t, a in assignments.items()
        if state.is_composite(t) and state.status[t] in (TaskStatus.ASSIGNED, TaskStatus.COMPLETED)
    }
    placed: set[str] = set()

    def atomic_goals(robot: str) -> list[str]:
        return sorted(
            x
            for x, xa in assignments.items()
            if xa.assignee == robot and not state.is_composite(x)
        )

    def build(t: str) -> OrgNode | None:
        a = assignments.get(t)
        if a is None or not state.is_composite(t):
            return None
        leader = a.assignee
        team = _new_team(t, leader)
        leader_element: OrgNode | None = None
        rest: list[OrgNode] = []
        for sub in state.task_children.get(t, []):
            sub_team = build(sub)
            if sub_team is None:
                continue
            if sub_team.id_robot == leader:
                leader_element = sub_team
            else:
                rest.append(sub_team)
        for sub in state.task_children.get(t, []):
            sa = assignments.get(sub)
            if sa is None or state.is_composite(sub):
                continue
            rid = sa.assignee
            if rid in placed or rid in leaders or rid == leader:
                continue
            leaf = _new_leaf(state, rid)
            leaf.goals = atomic_goals(rid)
            placed.add(rid)
            rest.append(leaf)
        if leader_element is None:
            leader_element = _new_leaf(state, leader)
            leader_element.goals = atomic_goals(leader)
            placed.add(leader)
        team.children = [leader_element] + rest
        return team

    built = [b for b in (build(t) for t in state.root_tasks) if b is not None]
    # `build` calls itself through its closure cell, a cycle that would keep
    # the state alive until the cycle collector runs; empty the cell
    del build
    root: OrgNode | None = None
    if built:
        root = built[0]
        root.children.extend(built[1:])
    elif len(state.root_tasks) == 1:
        a = assignments.get(state.root_tasks[0])
        if a is not None:
            root = _new_leaf(state, a.assignee)
            root.goals = atomic_goals(a.assignee)
    state.org.root = root
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
            done = start + max(state.tasks[t].duration, 1) - 1
            state.exec_started[t] = done
            result.timers.append(TaskCompleted(tick=done, id_task=t, robot=robot))
            result.messages.append(
                wire.Message(ENV, robot, wire.KIND_START_WORK, {"task": t, "done_at": done}, state.now)
            )


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
        RuleSet(state.params.rules_pool), state.params.constraints, {robot: set(mine)}
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
        result.notes.append({"kind": "completion_ignored", "task": t, "robot": event.robot})
        return
    state.status[t] = TaskStatus.COMPLETED
    state.locks.release(event.robot, t, state.now)
    result.notes.append({"kind": "completed", "task": t, "robot": event.robot})
    parent = state.task_parent.get(t)
    if parent is not None:
        _maybe_complete_parent(state, parent, result)


def _check_mission_done(state: FormationState, result: StepResult) -> None:
    if state.phase in (Phase.DONE, Phase.FAILED):
        return
    if state.world is not None and set(state.world.evaders) - state.world.captured:
        return
    if not state.root_tasks:
        if state.world is not None and state.world.captured:
            # everything was captured before any tree formed; goal met anyway
            state.phase = Phase.DONE
            result.notes.append({"kind": "mission_done", "tick": state.now, "utilities": {}})
        return
    if not all(state.status[t] is TaskStatus.COMPLETED for t in state.root_tasks):
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
        {
            "kind": "mission_done",
            "tick": state.now,
            "utilities": {r: str(d) for r, d in sorted(deltas.items())},
        }
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
    result.notes.append({"kind": "joined", "robot": robot.id_cr})
    for t in sorted(state.active_auctions):
        auction = state.active_auctions[t]
        ann = auction.announcement
        if org_core.communication_allowed(state.org, ann.auctioneer, robot.id_cr):
            result.messages.append(
                wire.Message(ann.auctioneer, robot.id_cr, wire.KIND_ANNOUNCE, ann, state.now)
            )
    return result


def handle_withdrawal(state: FormationState, robot: str, reason: WithdrawReason) -> StepResult:
    result = StepResult()
    if robot not in state.robots or robot in state.dead or robot in state.departed:
        result.notes.append({"kind": "withdraw_noop", "robot": robot})
        return result
    if reason is WithdrawReason.FAILURE:
        state.dead.add(robot)
    else:
        state.departed.add(robot)
    if state.world is not None and robot in state.world.robots:
        state.world.robots[robot].alive = False
    if state.organizer == robot:
        state.organizer = None

    ix = org_core.index(state.org)
    led = ix.led_by.get(robot, [])
    leaf = ix.leaf_of_robot.get(robot)
    if not led and leaf is None:
        result.notes.append({"kind": "withdrew_idle", "robot": robot, "reason": reason.value})
        return result

    # the robot's own unfinished work returns to the queue
    for t in sorted(ix.tasks_by_robot.get(robot, ())):
        assignment = state.org.assignments[t]
        if state.status[t] is not TaskStatus.ASSIGNED or assignment.mode is AssignmentMode.LED:
            continue
        _revoke_task(state, t, reason.value, result)
        parent = state.task_parent.get(t)
        state.pending.append(PendingTask(t, f"team:{parent}" if parent is not None else None))

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
    result.notes.append({"kind": "withdrew", "robot": robot, "reason": reason.value})
    return result


def reelect_leader(
    state: FormationState, node_id: str, result: StepResult | None = None
) -> StepResult:
    """Least-reward mini-auction among the team's remaining members holding
    the organization ability; the team dissolves if nobody qualifies.

    Resolved synchronously: a leadership change is an internal team mechanism,
    so the winner lock on outstanding task work does not bar a member from
    taking over coordination.
    """
    result = result if result is not None else StepResult()
    ix = org_core.index(state.org)
    node = ix.node.get(node_id)
    if node is None:
        return result
    parent = ix.parent[node_id]
    t = node.goals[0] if node.goals else None
    node.id_robot = None
    if t is not None:
        state.org.assignments.pop(t, None)
        if state.status[t] in (TaskStatus.ASSIGNED, TaskStatus.ANNOUNCED):
            state.status[t] = TaskStatus.UNASSIGNED
            state.active_auctions.pop(t, None)
    candidates = sorted(
        c.id_robot
        for c in node.children
        if c.id_robot is not None
        and state.alive(c.id_robot)
        and _leadership_capable(state.robots[c.id_robot])
    )
    if not candidates or t is None:
        _dissolve_team(state, node, parent, result)
        return result
    election = Announcement(
        id_task=t,
        reward=state.current_reward[t],
        required_capabilities=LEADERSHIP_REQUIREMENTS,
        deadline=state.now,
        leadership=True,
    )
    offers: list[Bid] = []
    for rid in candidates:
        decision = compute_bid(state.robots[rid], election, _context(state))
        if isinstance(decision, Bid):
            offers.append(decision)
    if not offers:
        _dissolve_team(state, node, parent, result)
        return result
    winner = select_winner(offers)
    price = min(b.price for b in offers if b.bidder == winner)
    node.id_robot = winner
    element = next((c for c in node.children if c.id_robot == winner), None)
    if element is not None:
        node.children.remove(element)
        node.children.insert(0, element)
    _lead(state, t, winner, price)
    if state.task_parent.get(t) is None and state.world is not None:
        state.organizer = winner
    result.notes.append(
        {
            "kind": "reelected",
            "task": t,
            "robot": winner,
            "price": str(price),
            "offers": {b.bidder: str(b.price) for b in offers},
        }
    )
    _renumber(state)
    _maybe_complete_parent(state, t, result)
    return result


# --- pursuit glue ---------------------------------------------------------------------


def _pursuit_tick(state: FormationState, result: StepResult) -> None:
    world = state.world
    assert world is not None
    params = state.params.pursuit or PursuitParams()

    targets: dict[str, tuple[int, int]] = {}
    centers: dict[str, tuple[int, int]] = {}
    for t, (evader, sg) in sorted(state.flank.items()):
        # a captured evader's goals are done or superseded
        if evader in world.captured:
            continue
        assignment = state.org.assignments.get(t)
        if assignment is None or state.status[t] is not TaskStatus.ASSIGNED:
            continue
        if not state.alive(assignment.assignee):
            continue
        center = centers.get(evader)
        if center is None:
            center = centers[evader] = pursuit.predicted_position(world, evader)
        # tick_world clamps the target
        targets[assignment.assignee] = (center[0] + sg.offset[0], center[1] + sg.offset[1])

    before = set(world.captured)
    pursuit.tick_world(world, targets, capture_quorum=params.capture_quorum)
    for evader in sorted(world.captured - before):
        result.notes.append({"kind": "captured", "evader": evader, "tick": world.tick})
        _finish_evader_tree(state, evader, result)

    # sensing is pure and the first tick is kept, so a robot that has already
    # seen every uncaptured evader has nothing left to record
    open_evaders = [ev for ev in sorted(world.evaders) if ev not in world.captured]
    for rid in sorted(world.robots):
        if not state.alive(rid):
            continue
        for ev in open_evaders:
            if (rid, ev) not in state.first_detection:
                break
        else:
            continue
        for ev_id, _, tick in pursuit.sense(world, rid):
            state.first_detection.setdefault((rid, ev_id), tick)

    if state.organizer is None:
        eligible = [
            (rid, ev, tick)
            for (rid, ev), tick in state.first_detection.items()
            if state.alive(rid) and _leadership_capable(state.robots[rid])
        ]
        chosen = pursuit.elect_organizer(eligible)
        if chosen is not None:
            state.organizer = chosen
            if state.phase is Phase.IDLE:
                state.phase = Phase.FORMING
            result.notes.append({"kind": "organizer_elected", "robot": chosen})

    if state.organizer is None:
        return
    detected = {ev for (_, ev) in state.first_detection}
    for evader in sorted(detected):
        if evader in world.captured or f"capture:{evader}" in state.tasks:
            continue  # an evader is planned once its capture task is registered
        plan = pursuit.plan_pursuit(
            world,
            state.organizer,
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
                for i, sg in enumerate(plan.subgoals)
            ],
        )
        register_task_tree(state, root)
        for i, sg in enumerate(plan.subgoals):
            state.flank[f"sg:{evader}:{i}"] = (evader, sg)
        result.timers.append(
            TaskArrived(
                tick=state.now,
                id_task=root.id_task,
                parent_node=None,
                designated_leader=state.organizer,
            )
        )
        result.notes.append(
            {
                "kind": "planned",
                "evader": evader,
                "organizer": state.organizer,
                "subgoals": [list(sg.cell) for sg in plan.subgoals],
            }
        )


def _finish_evader_tree(state: FormationState, evader: str, result: StepResult) -> None:
    root_id = f"capture:{evader}"
    if root_id not in state.tasks:
        return
    live: list[str] = []
    for t in state.task_children.get(root_id, []):
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
    state.task_children[root_id] = live
    state.pending = deque(p for p in state.pending if state.task_parent.get(p.id_task) != root_id)
    root_assignment = state.org.assignments.get(root_id)
    if root_assignment is not None:
        state.org.assignments[root_id] = replace(root_assignment, subtask_ids=tuple(live))
        if not live and state.status[root_id] is TaskStatus.ASSIGNED:
            result.timers.append(
                TaskCompleted(tick=state.now, id_task=root_id, robot=root_assignment.assignee)
            )
    elif state.status[root_id] is not TaskStatus.COMPLETED:
        # captured while the tree was leaderless: the goal is met regardless
        state.active_auctions.pop(root_id, None)
        state.pending = deque(p for p in state.pending if p.id_task != root_id)
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
            for item in queued:
                _announce(state, item, result)
    elif isinstance(event, TaskArrived):
        if event.id_task not in state.tasks:
            raise ProtocolViolationError(f"arrival of unregistered task {event.id_task}")
        if state.phase is Phase.IDLE:
            state.phase = Phase.FORMING
        if event.designated_leader is not None:
            _install_designated_root(state, event, result)
        else:
            state.pending.append(PendingTask(event.id_task, event.parent_node))
            result.notes.append({"kind": "queued", "task": event.id_task})
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


def _install_designated_root(
    state: FormationState, event: TaskArrived, result: StepResult
) -> None:
    t = event.id_task
    leader = event.designated_leader
    assert leader is not None
    if not state.alive(leader):
        result.notes.append({"kind": "designation_void", "task": t, "robot": leader})
        return
    parent = state.org.root.id_ros if state.org.root is not None else None
    _hang_team(state, t, leader, Fraction(0), parent, result)
    result.notes.append({"kind": "designated_leader", "task": t, "robot": leader})
    _renumber(state)


def _accept_bid(state: FormationState, event: BidSubmitted, result: StepResult) -> None:
    bid = event.bid
    auction = state.active_auctions.get(bid.id_task)
    if auction is None:
        if bid.id_task in state.tasks:
            result.notes.append({"kind": "void_bid", "task": bid.id_task, "robot": bid.bidder})
            return
        raise ProtocolViolationError(f"bid for unknown auction {bid.id_task}")
    ann = auction.announcement
    if bid.round != ann.round:
        result.notes.append({"kind": "stale_bid", "task": bid.id_task, "robot": bid.bidder})
        return
    if event.tick > ann.deadline:
        result.notes.append(
            {"kind": "late_bid", "task": bid.id_task, "robot": bid.bidder, "deadline": ann.deadline}
        )
        return
    if winner_locked(state.locks, bid.bidder, bid.sent_at):
        result.notes.append(
            {
                "kind": "protocol_violation",
                "why": "locked_bid",
                "task": bid.id_task,
                "robot": bid.bidder,
            }
        )
        return
    if bid.bidder in auction.bids:
        result.notes.append({"kind": "duplicate_bid", "task": bid.id_task, "robot": bid.bidder})
        return
    auction.bids[bid.bidder] = bid
    result.notes.append(
        {
            "kind": "bid",
            "task": bid.id_task,
            "robot": bid.bidder,
            "price": str(bid.price),
            "round": bid.round,
        }
    )


# --- snapshots / hashing ---------------------------------------------------------------


def state_snapshot(state: FormationState) -> dict:
    """The state a hash seals, as plain data."""
    return {
        "now": state.now,
        "phase": state.phase.value,
        "level": _level(state),
        "pool": sorted(state.pool),
        "dead": sorted(state.dead),
        "departed": sorted(state.departed),
        "pending": [[p.id_task, p.parent_node] for p in state.pending],
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
        "org": org_core.snapshot_dict(state.org),
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


def state_hash(state: FormationState) -> str:
    """sha256 of the canonical JSON of `state_snapshot`: a log's `final_hash`."""
    return hashlib.sha256(canonical_json(state_snapshot(state)).encode()).hexdigest()


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
    scheduler.push_event(TaskArrived(tick=0, id_task=task.id_task, parent_node=None))
    scheduler.run(
        until=max_ticks,
        stop_when=lambda s: s.phase in (Phase.EXECUTING, Phase.DONE, Phase.FAILED),
    )
    if state.phase in (Phase.EXECUTING, Phase.DONE):
        return state.org
    raise FormationError("Unfillable", task.id_task)
