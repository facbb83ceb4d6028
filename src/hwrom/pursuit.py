"""Pursuit-evasion grid world: sensing, organizer election, surround planning,
pursuit cost, and the deterministic movement/capture law.

Geometry is Chebyshev (8-connected moves); a surround plan rings the evader's
predicted cell. Capture needs a quorum of pursuers within distance 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .market import CostUnavailableError

Cell = tuple[int, int]


class PursuitError(Exception):
    pass


class UnknownRobotError(PursuitError):
    pass


class EvaderUnknownError(PursuitError):
    pass


class ZeroSpeedError(CostUnavailableError):
    """A robot that cannot move cannot pursue; declines upstream."""


def chebyshev(a: Cell, b: Cell) -> int:
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


@dataclass
class RobotPose:
    pos: Cell
    speed: int
    radius: int
    alive: bool = True


@dataclass
class EvaderState:
    pos: Cell
    speed: int
    policy: str = "flee"
    intention: Cell = (0, 0)  # last movement direction, (0,0) until it moves


@dataclass
class WorldState:
    width: int
    height: int
    robots: dict[str, RobotPose] = field(default_factory=dict)
    evaders: dict[str, EvaderState] = field(default_factory=dict)
    tick: int = 0
    captured: set[str] = field(default_factory=set)

    def in_bounds(self, cell: Cell) -> bool:
        return 0 <= cell[0] < self.width and 0 <= cell[1] < self.height

    def clamp(self, cell: Cell) -> Cell:
        return (min(max(cell[0], 0), self.width - 1), min(max(cell[1], 0), self.height - 1))


@dataclass(frozen=True)
class Subgoal:
    cell: Cell
    required_speed: Fraction
    reward: Fraction
    offset: Cell  # surround offset relative to the predicted cell; used to track


#: Surround offsets in announcement order; the first k are used.
SURROUND_OFFSETS: tuple[Cell, ...] = (
    (-1, 0),
    (1, 0),
    (0, -1),
    (0, 1),
    (-1, -1),
    (-1, 1),
    (1, -1),
    (1, 1),
)


def sense(world: WorldState, robot: str) -> list[tuple[str, Cell, int]]:
    """Uncaptured evaders within the robot's sensing radius, true positions,
    ordered by evader id."""
    pose = world.robots.get(robot)
    if pose is None:
        raise UnknownRobotError(robot)
    out = []
    for ev_id in sorted(world.evaders):
        if ev_id in world.captured:
            continue
        ev = world.evaders[ev_id]
        if chebyshev(pose.pos, ev.pos) <= pose.radius:
            out.append((ev_id, ev.pos, world.tick))
    return out


def elect_organizer(detections: list[tuple[str, str, int]]) -> str | None:
    """The robot that detected first becomes the organizer; ties go to the
    lowest robot id. Order of the detection list does not matter."""
    if not detections:
        return None
    return min(detections, key=lambda d: (d[2], d[0]))[0]


def predicted_position(world: WorldState, evader: str) -> Cell:
    ev = world.evaders[evader]
    raw = (ev.pos[0] + ev.speed * ev.intention[0], ev.pos[1] + ev.speed * ev.intention[1])
    return world.clamp(raw)


def plan_pursuit(
    world: WorldState,
    organizer: str,
    evader: str,
    *,
    k: int = 4,
    base_reward: Fraction = Fraction(5),
    required_speed: Fraction | None = None,
) -> tuple[Subgoal, ...]:
    """Ring the evader's predicted cell with k surround sub-goals.

    Cells falling off the grid are clipped away, so a cornered evader yields
    fewer sub-goals. Required speed defaults to the evader's own speed.
    """
    if organizer not in world.robots:
        raise UnknownRobotError(organizer)
    if evader not in world.evaders or evader in world.captured:
        raise EvaderUnknownError(evader)
    ev = world.evaders[evader]
    need = required_speed if required_speed is not None else Fraction(ev.speed)
    center = predicted_position(world, evader)
    subgoals = []
    for off in SURROUND_OFFSETS[:k]:
        cell = (center[0] + off[0], center[1] + off[1])
        if world.in_bounds(cell):
            subgoals.append(Subgoal(cell, need, base_reward, off))
    return tuple(subgoals)


def robot_cost(world: WorldState, robot: str, cell: Cell) -> Fraction:
    """Travel time to a cell: Chebyshev distance over speed."""
    pose = world.robots.get(robot)
    if pose is None:
        raise UnknownRobotError(robot)
    if pose.speed <= 0:
        raise ZeroSpeedError(robot)
    return Fraction(chebyshev(pose.pos, cell), pose.speed)


def _flee_step(world: WorldState, pos: Cell, hunters: list[Cell]) -> Cell:
    """One evader step: the in-bounds neighbor (staying put included) that
    maximizes the minimum distance to the hunters' cells. Cells are scanned in
    (x, y) order and the first best one wins, so ties go to the lowest
    coordinate."""
    x0, y0 = pos
    xs = range(max(x0 - 1, 0), min(x0 + 2, world.width))
    ys = range(max(y0 - 1, 0), min(y0 + 2, world.height))
    if not hunters:
        return (xs[0], ys[0])
    # every cell is in bounds, so no distance reaches width + height
    far = world.width + world.height
    best, best_score = pos, -1
    for x in xs:
        for y in ys:
            score = far
            for hx, hy in hunters:
                dx = hx - x if hx > x else x - hx
                dy = hy - y if hy > y else y - hy
                d = dx if dx > dy else dy
                if d <= best_score:
                    break  # this cell cannot beat the best one
                if d < score:
                    score = d
            else:
                best, best_score = (x, y), score
    return best


def tick_world(
    world: WorldState,
    assignments: dict[str, Cell],
    *,
    capture_quorum: int = 2,
) -> WorldState:
    """Advance one tick: pursuers move toward their cells, evaders flee,
    captures are resolved. Mutates and returns the world."""
    for rid in sorted(assignments):
        pose = world.robots.get(rid)
        if pose is None or not pose.alive or pose.speed <= 0:
            continue
        tx, ty = world.clamp(assignments[rid])
        x, y = pose.pos
        s = pose.speed
        # each step closes each coordinate by one until it is reached, and a
        # step toward an in-bounds target never leaves the grid
        pose.pos = (x + max(-s, min(tx - x, s)), y + max(-s, min(ty - y, s)))

    # the hunters stand still while the evaders move
    hunters = [p.pos for p in world.robots.values() if p.alive]
    order = sorted(world.evaders)
    for ev_id in order:
        if ev_id in world.captured:
            continue
        ev = world.evaders[ev_id]
        for _ in range(ev.speed):
            nxt = _flee_step(world, ev.pos, hunters)
            ev.intention = (nxt[0] - ev.pos[0], nxt[1] - ev.pos[1])
            if nxt == ev.pos:
                break  # with the hunters fixed, every later step stays too
            ev.pos = nxt

    for ev_id in order:
        if ev_id in world.captured:
            continue
        ev = world.evaders[ev_id]
        ex, ey = ev.pos
        near = 0
        for hx, hy in hunters:
            if -1 <= hx - ex <= 1 and -1 <= hy - ey <= 1:
                near += 1
        if near >= capture_quorum:
            world.captured.add(ev_id)
            ev.intention = (0, 0)

    world.tick += 1
    return world


def world_snapshot(world: WorldState) -> dict:
    return {
        "grid": [world.width, world.height],
        "tick": world.tick,
        "robots": {
            rid: {"pos": list(p.pos), "speed": p.speed, "radius": p.radius, "alive": p.alive}
            for rid, p in sorted(world.robots.items())
        },
        "evaders": {
            eid: {
                "pos": list(e.pos),
                "speed": e.speed,
                "policy": e.policy,
                "intention": list(e.intention),
            }
            for eid, e in sorted(world.evaders.items())
        },
        "captured": sorted(world.captured),
    }
