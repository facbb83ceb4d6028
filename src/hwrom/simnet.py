"""Deterministic discrete-event network and scheduler.

Messages route with configurable latency and seeded drops; the topology rule
(only leaders talk across teams) is enforced per delivery. The scheduler owns
the event heap: it feeds events to the formation machine in (tick, seq)
order, converts outbound messages into future deliveries, and runs the
robot-side bidding responses at delivery time. Everything it does is a pure
function of (config, seed, script), so the same inputs give the same trace,
record for record.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from . import formation as fm
from . import org_core, wire
from .market import Bid, Decline
from .wire import ENV, Message


class NetError(Exception):
    pass


class UnknownRobotError(NetError):
    pass


@dataclass(frozen=True)
class NetConfig:
    latency: int = 1
    drop_rate: Fraction = Fraction(0)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError("latency must be >= 0")
        if not 0 <= self.drop_rate <= 1:
            raise ValueError("drop_rate must be within [0, 1]")


@dataclass(frozen=True)
class Deliver:
    at: int


@dataclass(frozen=True)
class Reject:
    reason: str


@dataclass(frozen=True)
class Drop:
    pass


def _drop_draw(seed: int, msg_seq: int) -> int:
    """Counter-based uniform draw in [0, 2**64): independent per message,
    stable under insertion of unrelated messages. A message drops when
    draw / 2**64 < drop_rate."""
    digest = hashlib.sha256(b"%d:%d" % (seed, msg_seq)).digest()
    return int.from_bytes(digest[:8], "big")


def route(
    net: NetConfig,
    msg: Message,
    org: org_core.Organization,
    *,
    msg_seq: int = 0,
    robots: Mapping[str, org_core.CooperativeRobot] | None = None,
) -> Deliver | Reject | Drop:
    """Decide one message's fate: deliver after latency, reject, or drop. An
    endpoint in `robots` must list the kind in its interface, if not empty."""
    if robots is not None:
        for endpoint in (msg.sender, msg.to):
            robot = robots.get(endpoint)
            if robot is not None and robot.interface and msg.kind not in robot.interface:
                return Reject("InterfaceMismatch")
    if not org_core.communication_allowed(org, msg.sender, msg.to):
        return Reject("CrossTeamViolation")
    rate = net.drop_rate
    # draw / 2**64 < p / q, in exact integers
    if rate and _drop_draw(net.seed, msg_seq) * rate.denominator < rate.numerator << 64:
        return Drop()
    return Deliver(msg.sent_at + net.latency)


# Heap entry kinds (the fourth field): a formation event, a message delivery,
# or a Tick whose seq `run` reserved in advance. An event's seq lives only in
# its heap entry; `run` writes it into the event's record.
_EVENT, _DELIVERY, _TICK = 0, 1, 2


class Scheduler:
    """Single-threaded event loop over one formation state."""

    def __init__(
        self,
        state: fm.FormationState,
        net: NetConfig,
        *,
        record: Callable[[dict], None] | None = None,
        hash_states: bool | None = None,
    ):
        # `hash_states` has no effect: event records carry no state hash since
        # log version 2. The benchmark harness still passes it; the next change
        # to the benchmark removes that argument and this keyword together.
        self.state = state
        self.net = net
        self.record = record
        self.trace: list[dict] = []
        self._heap: list[tuple[int, int, int, int, object]] = []
        self._seq = 0
        self._msg_seq = 0
        self._ticks_reserved = 0
        # Ticks reserved by `run` and not yet stepped, as [next tick, last tick,
        # seq of next tick] blocks. Only the first block's next Tick is in the
        # heap.
        self._tick_blocks: deque[list[int]] = deque()

    # -- queue management ------------------------------------------------
    # Heap key is (tick, lane, seq): the Tick transition runs first within a
    # tick, then everything else in scheduling order. A withdrawal scripted
    # for tick T therefore re-announces at T+1, never within T itself.

    def push_event(self, event: fm.FormationEvent) -> None:
        lane = 0 if isinstance(event, fm.Tick) else 1
        heapq.heappush(self._heap, (event.tick, lane, self._seq, _EVENT, event))
        self._seq += 1

    def _push_delivery(self, at: int, msg: Message) -> None:
        heapq.heappush(self._heap, (at, 1, self._seq, _DELIVERY, msg))
        self._seq += 1

    def _reserve_ticks(self, until: int) -> None:
        """Give Ticks through `until` the seqs pushing them all now would, but
        queue only the next one; each Tick queues its successor as it pops."""
        if until <= self._ticks_reserved:
            return
        self._tick_blocks.append([self._ticks_reserved + 1, until, self._seq])
        self._seq += until - self._ticks_reserved
        self._ticks_reserved = until
        if len(self._tick_blocks) == 1:
            self._queue_tick()

    def _queue_tick(self) -> None:
        tick, _, seq = self._tick_blocks[0]
        heapq.heappush(self._heap, (tick, 0, seq, _TICK, fm.Tick(tick=tick)))

    def _tick_popped(self) -> None:
        block = self._tick_blocks[0]
        if block[0] == block[1]:
            self._tick_blocks.popleft()
        else:
            block[0] += 1
            block[2] += 1
        if self._tick_blocks:
            self._queue_tick()

    def inject_failure(self, robot: str, at: int) -> fm.FormationEvent:
        """Schedule a hardware failure; the formation machine sees RobotFailed."""
        if robot not in self.state.robots:
            raise UnknownRobotError(robot)
        if at < self.state.now:
            raise ValueError(f"cannot schedule a failure in the past (tick {at})")
        event = fm.RobotFailed(tick=at, robot=robot)
        self.push_event(event)
        return event

    # -- logging -----------------------------------------------------------

    def _emit(self, rec: dict) -> None:
        self.trace.append(rec)
        if self.record is not None:
            self.record(rec)

    # -- message plumbing ----------------------------------------------------

    def send(self, msg: Message) -> None:
        seq = self._msg_seq
        self._msg_seq += 1
        rec = {
            "type": "net",
            "tick": self.state.now,
            "msg_seq": seq,
            "kind": msg.kind,
            "sender": msg.sender,
            "to": msg.to,
        }
        outcome = route(self.net, msg, self.state.org, msg_seq=seq, robots=self.state.robots)
        if isinstance(outcome, Deliver):
            rec["outcome"] = "deliver"
            rec["at"] = outcome.at
            self._push_delivery(outcome.at, msg)
        elif isinstance(outcome, Reject):
            rec["outcome"] = "reject"
            rec["reason"] = outcome.reason
        else:
            rec["outcome"] = "drop"
        self._emit(rec)

    def _deliver(self, msg: Message, at: int) -> None:
        state = self.state
        if msg.to != ENV and not state.alive(msg.to):
            return
        if msg.kind == wire.KIND_BID:
            self.push_event(fm.BidSubmitted(tick=at, bid=msg.payload))
        elif msg.kind == wire.KIND_ANNOUNCE:  # never addressed to ENV
            decision = fm.consider_announcement(state, msg.to, msg.payload)
            if isinstance(decision, Bid):
                reply = Message(msg.to, msg.sender, wire.KIND_BID, decision, at)
                self.send(reply)
            elif isinstance(decision, Decline):
                self._emit(
                    {
                        "type": "decline",
                        "tick": at,
                        "robot": decision.bidder,
                        "task": decision.id_task,
                        "reason": decision.reason,
                    }
                )
        # award / start_work deliveries are informational for the robot

    # -- the loop ---------------------------------------------------------------

    def run(
        self,
        until: int,
        stop_when: Callable[[fm.FormationState], bool] | None = None,
    ) -> list[dict]:
        """Process events through tick `until` in (tick, seq) order.

        Resumable: a later call with a larger `until` continues where the
        previous one stopped."""
        self._reserve_ticks(until)
        while self._heap and self._heap[0][0] <= until:
            tick, _, seq, kind, item = heapq.heappop(self._heap)
            if kind == _DELIVERY:
                self._deliver(item, tick)  # type: ignore[arg-type]
                continue
            if kind == _TICK:
                self._tick_popped()
            event = item  # type: ignore[assignment]
            result = fm.step(self.state, event)
            self._emit(
                {
                    "type": "event",
                    "event": type(event).__name__,
                    "seq": seq,
                    "tick": event.tick,
                    "data": event_data(self.state, event),
                    "detail": {"notes": result.notes},
                }
            )
            for m in result.messages:
                self.send(m)
            for timer in result.timers:
                self.push_event(timer)
            if stop_when is not None and stop_when(self.state):
                break
        return self.trace


# --- event data for logs ---------------------------------------------------------


def event_data(state: fm.FormationState, event: fm.FormationEvent) -> dict:
    """An event's own fields, as its record's `data`; a Tick has none. A
    TaskArrived record also names the task's owning team, from the tree."""
    if isinstance(event, fm.TaskArrived):
        return {"id_task": event.id_task, "parent_node": fm.owning_team(state, event.id_task)}
    if isinstance(event, fm.BidSubmitted):
        b = event.bid
        return {
            "bid": {
                "bidder": b.bidder,
                "id_task": b.id_task,
                "price": str(b.price),
                "computed_cost": str(b.computed_cost),
                "round": b.round,
                "sent_at": b.sent_at,
            }
        }
    if isinstance(event, fm.AuctionClosed):
        return {"id_task": event.id_task, "round": event.round}
    if isinstance(event, fm.TaskCompleted):
        return {"id_task": event.id_task, "robot": event.robot}
    if isinstance(event, fm.RobotWithdrew):
        return {"robot": event.robot, "reason": event.reason.value}
    if isinstance(event, fm.RobotFailed):
        return {"robot": event.robot}
    if isinstance(event, fm.RobotJoined):
        # logs name the robot's id "id", as configs do
        robot = org_core.robot_dict(event.robot)
        robot["id"] = robot.pop("id_cr")
        return {"robot": robot, "pose": list(event.pose) if event.pose is not None else None}
    return {}
