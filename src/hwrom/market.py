"""Auction protocol: announcements, bid computation, least-reward selection,
and the adjustment tactics applied when an auction attracts no winner.

`adjust_tactics` is the ladder's one decision (raise the reward, re-split the
task, give up); it returns what to do, not an announcement. The formation
engine acts on it, and `formation._open_auction` builds every round's one
`Announcement`."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .org_core import CapabilityRequirement, CooperativeRobot
from .wire import ENV

__all__ = [
    "ENV",
    "Announcement",
    "Bid",
    "Decline",
    "AdjustPolicy",
    "Escalate",
    "Redecompose",
    "GiveUp",
    "compute_bid",
    "select_winner",
    "adjust_tactics",
    "MarketError",
    "MixedTaskBidsError",
    "CostUnavailableError",
]


class MarketError(Exception):
    pass


class MixedTaskBidsError(MarketError):
    """Bids for different tasks or rounds were mixed into one selection."""


class CostUnavailableError(MarketError):
    """The scenario cannot price this robot/task pair (e.g. a robot that cannot move)."""


@dataclass(frozen=True)
class Announcement:
    """A task put out to bid: the offered income and what ability it takes."""

    id_task: str
    reward: Fraction
    required_capabilities: frozenset[CapabilityRequirement]
    round: int = 0
    deadline: int = 0
    auctioneer: str = ENV
    leadership: bool = False

    def __post_init__(self) -> None:
        if self.reward < 0:
            raise ValueError("announcement reward must be >= 0")


@dataclass(frozen=True)
class Bid:
    """A robot's asking price for a task. Never below its own cost."""

    bidder: str
    id_task: str
    price: Fraction
    computed_cost: Fraction
    round: int = 0
    sent_at: int = 0

    def __post_init__(self) -> None:
        if self.price < self.computed_cost:
            raise ValueError("a robot never bids below its own cost")


@dataclass(frozen=True)
class Decline:
    bidder: str
    id_task: str
    reason: str


def compute_bid(
    robot: CooperativeRobot, ann: Announcement,
    cost_of: Callable[[CooperativeRobot, Announcement], Fraction], markup: Fraction, now: int = 0
) -> Bid | Decline:
    """Price a task for a robot at tick `now`, or decline it.

    Declines when a required capability is missing, the scenario's `cost_of`
    cannot price the task, or the cost exceeds the offered reward. Otherwise
    bids cost * markup (1 + margin), capped at the reward. The caller checks
    the norms (winner lock included) before asking for a price.
    """
    if not robot.dominates(ann.required_capabilities):
        return Decline(robot.id_cr, ann.id_task, "missing_capability")
    try:
        cost = cost_of(robot, ann)
    except CostUnavailableError:
        return Decline(robot.id_cr, ann.id_task, "cost_unavailable")
    if cost > ann.reward:
        return Decline(robot.id_cr, ann.id_task, "cost_exceeds_reward")
    price = min(cost * markup, ann.reward)
    return Bid(robot.id_cr, ann.id_task, price, cost, ann.round, now)


def select_winner(bids: list[Bid]) -> str | None:
    """Least-reward selection: the lowest asking price wins, ties go to the
    lowest bidder id. Returns None when nobody bid."""
    if not bids:
        return None
    tasks = {(b.id_task, b.round) for b in bids}
    if len(tasks) > 1:
        raise MixedTaskBidsError(sorted(tasks))
    return min(bids, key=lambda b: (b.price, b.bidder)).bidder


@dataclass(frozen=True)
class AdjustPolicy:
    """Escalation policy for failed auctions.

    Rounds 1..max_reward_rounds raise the reward by a factor of (1 + delta);
    later rounds ask the leader to re-split the task, or raise the reward
    again when it cannot; past max_total_rounds the task is given up.
    """

    delta: Fraction = Fraction(1, 4)
    max_reward_rounds: int = 3
    max_total_rounds: int = 5

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise ValueError("delta must be positive so rewards strictly increase")
        if not 0 < self.max_reward_rounds <= self.max_total_rounds:
            raise ValueError("need 0 < max_reward_rounds <= max_total_rounds")


@dataclass(frozen=True)
class Escalate:
    """Announce the task again as `round`, at the raised `reward`."""

    reward: Fraction
    round: int


@dataclass(frozen=True)
class Redecompose:
    """Swap the task for its next alternative decomposition in `round`."""

    round: int


@dataclass(frozen=True)
class GiveUp:
    """Stop auctioning the task."""


def adjust_tactics(
    ann: Announcement, policy: AdjustPolicy, *, can_resplit: bool
) -> Escalate | Redecompose | GiveUp:
    """The next tactic after round `ann` closed with no winner.

    `can_resplit` says whether the task has an alternative decomposition left
    to try; in the re-split range a task without one escalates instead.
    """
    if ann.round >= policy.max_total_rounds:
        return GiveUp()
    if ann.round >= policy.max_reward_rounds and can_resplit:
        return Redecompose(ann.round + 1)
    return Escalate(ann.reward * (1 + policy.delta), ann.round + 1)
