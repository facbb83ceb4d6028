"""Scenario configuration: loading, schema validation, state construction.

One self-describing JSON file declares the robot fleet, the task tree (or a
pursuit block), behavior rules, constraints, auction and network parameters,
and the scripted membership events. Every numeric money/cost value is parsed
into an exact rational; "1/10", "0.1" and 0.1 all mean the same thing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any

from . import formation as fm
from . import pursuit, simnet
from .market import AdjustPolicy
from .org_core import (
    Capability,
    CapabilityKind,
    CapabilityRequirement,
    CooperativeRobot,
    TaskNode,
    canonical_json,
)
from .rules_engine import (
    PREDICATES,
    STANDARD_RULES,
    ConstraintKind,
    ConstraintRelation,
    Rule,
    RuleCategory,
)
from .wire import ALL_KINDS


class ConfigError(Exception):
    """Schema or cross-reference problem, anchored to a config path."""

    def __init__(self, where: str, problem: str):
        super().__init__(f"{where}: {problem}")
        self.where = where
        self.problem = problem


def _frac(value: Any, where: str) -> Fraction:
    try:
        if isinstance(value, bool):
            raise ValueError(value)
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, float):
            return Fraction(str(value))
        if isinstance(value, str):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise ConfigError(where, f"expected a rational number, got {value!r}")


def _money(value: Any, where: str) -> Fraction:
    """A reward, margin or cost: a rational >= 0. A robot never bids below its
    own cost, and a negative amount would make it."""
    amount = _frac(value, where)
    if amount.numerator < 0:
        raise ConfigError(where, "must be >= 0")
    return amount


def _int(value: Any, where: str, minimum: int | None = None) -> int:
    """An integer field: whatever int() takes (floats truncate), at least
    `minimum` when one is given."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(where, f"expected an integer, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise ConfigError(where, f"must be >= {minimum}")
    return number


def _cell(value: Any, where: str, w: int, h: int) -> tuple[int, int]:
    """A grid position: [x, y], two integers (not booleans) inside a w x h grid."""
    if (
        not isinstance(value, list)
        or len(value) != 2
        or any(isinstance(c, bool) or not isinstance(c, int) for c in value)
    ):
        raise ConfigError(where, f"expected [x, y] with two integers, got {value!r}")
    x, y = value
    if not (0 <= x < w and 0 <= y < h):
        raise ConfigError(where, f"position {value} out of grid bounds")
    return x, y


def _require(data: dict, key: str, where: str) -> Any:
    if key not in data:
        raise ConfigError(where, f"missing required field {key!r}")
    return data[key]


def _as_list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(where, "expected a list")
    return value


def _as_dict(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(where, "expected an object")
    return value


def config_hash(data: dict) -> str:
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()


@dataclass
class ScenarioConfig:
    """A validated scenario. build_state() yields a fresh simulation each call.

    `robots`, the `task` tree, the `script` events (joins with their robots)
    and the pursuit start `world` are built once. Every simulation shares the
    first three and copies the world: a run keeps its own state, task
    statuses included, in its `FormationState`."""

    raw: dict
    seed: int
    max_ticks: int
    net: simnet.NetConfig
    params: fm.EngineParams
    robots: list[CooperativeRobot]
    task: TaskNode | None = None
    script: list[fm.FormationEvent] = field(default_factory=list)
    world: pursuit.WorldState | None = None

    def hash(self) -> str:
        return config_hash(self.raw)

    def build_world(self) -> pursuit.WorldState | None:
        start = self.world
        if start is None:
            return None
        world = pursuit.WorldState(start.width, start.height)
        for rid, p in start.robots.items():
            world.robots[rid] = pursuit.RobotPose(p.pos, p.speed, p.radius)
        for eid, e in start.evaders.items():
            world.evaders[eid] = pursuit.EvaderState(e.pos, e.speed)
        return world

    def build_state(self) -> fm.FormationState:
        state = fm.new_state(self.robots, self.params, world=self.build_world())
        if self.task is not None:
            fm.register_task_tree(state, self.task)
        return state

    def schedule(self, scheduler: simnet.Scheduler) -> None:
        """Queue the root task arrival and the scripted membership events."""
        if self.task is not None:
            scheduler.push_event(fm.TaskArrived(tick=0, id_task=self.task.id_task))
        for event in self.script:
            scheduler.push_event(event)


# --- builders ----------------------------------------------------------------


def _build_capability(data: Any, where: str) -> Capability:
    if isinstance(data, list) and len(data) == 3:
        kind, subkind, magnitude = data
    elif isinstance(data, dict):
        kind = _require(data, "kind", where)
        subkind = data.get("subkind", "")
        magnitude = data.get("magnitude", 1)
    else:
        raise ConfigError(where, "capability must be [kind, subkind, magnitude] or an object")
    try:
        ck = CapabilityKind(kind)
    except ValueError:
        raise ConfigError(where, f"unknown capability kind {kind!r}") from None
    amount = _frac(magnitude, where)
    if amount.numerator < 0:
        raise ConfigError(where, "capability magnitude must be >= 0")
    return Capability(ck, str(subkind), amount)


def _build_requirement(data: Any, where: str) -> CapabilityRequirement:
    if isinstance(data, list) and len(data) in (2, 3):
        kind, subkind = data[0], data[1]
        minimum = data[2] if len(data) == 3 else 0
    elif isinstance(data, dict):
        kind = _require(data, "kind", where)
        subkind = data.get("subkind", "")
        minimum = data.get("min", 0)
    else:
        raise ConfigError(where, "requirement must be [kind, subkind, min] or an object")
    try:
        ck = CapabilityKind(kind)
    except ValueError:
        raise ConfigError(where, f"unknown capability kind {kind!r}") from None
    return CapabilityRequirement(ck, str(subkind), _frac(minimum, where))


def _build_robot(data: dict, where: str) -> CooperativeRobot:
    data = _as_dict(data, where)
    rid = _require(data, "id", where)
    caps = frozenset(
        _build_capability(c, f"{where}.capabilities[{i}]")
        for i, c in enumerate(_as_list(data.get("capabilities", []), f"{where}.capabilities"))
    )
    resources = tuple(
        sorted(
            (str(k), _int(v, f"{where}.resources.{k}"))
            for k, v in _as_dict(data.get("resources", {}), f"{where}.resources").items()
        )
    )
    # the message kinds the robot understands: all of them by default, and []
    # means every kind too
    interface = ALL_KINDS
    if "interface" in data:
        kinds = _as_list(data["interface"], f"{where}.interface")
        for i, kind in enumerate(kinds):
            if not isinstance(kind, str) or kind not in ALL_KINDS:
                raise ConfigError(
                    f"{where}.interface[{i}]",
                    f"unknown message kind {kind!r}, expected one of {sorted(ALL_KINDS)}",
                )
        interface = frozenset(kinds)
    return CooperativeRobot(str(rid), caps, resources, interface)


def _build_task(data: dict, where: str) -> TaskNode:
    data = _as_dict(data, where)
    tid = str(_require(data, "id", where))
    reward = _money(data.get("reward", 0), f"{where}.reward")
    requires = frozenset(
        _build_requirement(r, f"{where}.requires[{i}]")
        for i, r in enumerate(_as_list(data.get("requires", []), f"{where}.requires"))
    )
    subtasks = [
        _build_task(s, f"{where}.subtasks[{i}]")
        for i, s in enumerate(_as_list(data.get("subtasks", []), f"{where}.subtasks"))
    ]
    alternatives = [
        [_build_task(s, f"{where}.alternatives[{i}][{j}]") for j, s in enumerate(_as_list(alt, f"{where}.alternatives[{i}]"))]
        for i, alt in enumerate(_as_list(data.get("alternatives", []), f"{where}.alternatives"))
    ]
    duration = _int(data.get("duration", 1), f"{where}.duration")
    return TaskNode(tid, reward, requires, subtasks, alternatives, duration)


def _build_rules(data: dict) -> tuple[frozenset[Rule], dict[str, frozenset[Rule]]]:
    declared: dict[str, Rule] = {}
    for i, entry in enumerate(_as_list(data.get("rules", []), "rules")):
        where = f"rules[{i}]"
        entry = _as_dict(entry, where)
        rid = str(_require(entry, "id", where))
        category = entry.get("category", "Custom")
        predicate = str(_require(entry, "predicate", where))
        try:
            cat = RuleCategory(category)
        except ValueError:
            raise ConfigError(where, f"unknown rule category {category!r}") from None
        if predicate not in PREDICATES:
            raise ConfigError(where, f"unknown rule predicate {predicate!r}")
        rule = Rule(rid, cat, predicate)
        if rid in declared and declared[rid] != rule:
            raise ConfigError(where, f"rule id {rid!r} redeclared with a different body")
        declared[rid] = rule
    pool = frozenset(declared.values()) if declared else STANDARD_RULES
    by_id = {r.id_rule: r for r in pool}
    robot_rules: dict[str, frozenset[Rule]] = {}
    for rid, rule_ids in _as_dict(data.get("robot_rules", {}), "robot_rules").items():
        rules = []
        for rule_id in _as_list(rule_ids, f"robot_rules.{rid}"):
            if rule_id not in by_id:
                raise ConfigError(f"robot_rules.{rid}", f"unknown rule id {rule_id!r}")
            rules.append(by_id[rule_id])
        robot_rules[rid] = frozenset(rules)
    return pool, robot_rules


def from_dict(data: dict) -> ScenarioConfig:
    data = _as_dict(data, "config")
    robots = _as_list(_require(data, "robots", "config"), "robots")
    if not robots:
        raise ConfigError("robots", "at least one robot is required")
    built_robots = [_build_robot(r, f"robots[{i}]") for i, r in enumerate(robots)]
    robot_ids: set[str] = set()
    for i, built in enumerate(built_robots):
        if built.id_cr in robot_ids:
            raise ConfigError(f"robots[{i}].id", f"duplicate robot id {built.id_cr!r}")
        robot_ids.add(built.id_cr)

    task_ids: set[str] = set()
    root: TaskNode | None = None
    if "task" in data:
        root = _build_task(data["task"], "task")
        stack = [root]
        while stack:
            node = stack.pop()
            if node.id_task in task_ids:
                raise ConfigError("task", f"duplicate task id {node.id_task!r}")
            task_ids.add(node.id_task)
            stack.extend(node.subtasks)
            for alt in node.alternatives:
                stack.extend(alt)

    if "task" not in data and "pursuit" not in data:
        raise ConfigError("config", "either a task tree or a pursuit block is required")

    constraints = []
    for i, entry in enumerate(_as_list(data.get("constraints", []), "constraints")):
        where = f"constraints[{i}]"
        entry = _as_dict(entry, where)
        a = str(_require(entry, "a", where))
        b = str(_require(entry, "b", where))
        kind = _require(entry, "kind", where)
        try:
            ck = ConstraintKind(kind)
        except ValueError:
            raise ConfigError(where, f"unknown constraint kind {kind!r}") from None
        if task_ids:
            for ref in (a, b):
                if ref not in task_ids:
                    raise ConfigError(where, f"constraint references unknown task {ref!r}")
        constraints.append(ConstraintRelation(a, b, ck))

    auction = _as_dict(data.get("auction", {}), "auction")
    delta = _frac(auction.get("delta", "1/4"), "auction.delta")
    max_reward_rounds = _int(auction.get("max_reward_rounds", 3), "auction.max_reward_rounds")
    max_total_rounds = _int(auction.get("max_total_rounds", 5), "auction.max_total_rounds")
    try:
        policy = AdjustPolicy(delta, max_reward_rounds, max_total_rounds)
    except ValueError as exc:
        raise ConfigError("auction", str(exc)) from None
    # an auction's close fires at now + bid_window + 1: any less closes in the past
    bid_window = _int(auction.get("bid_window", 3), "auction.bid_window", -1)

    cost_table: dict[tuple[str, str], Fraction] = {}
    for rid, tasks in _as_dict(data.get("costs", {}), "costs").items():
        if rid not in robot_ids:
            raise ConfigError(f"costs.{rid}", f"unknown robot {rid!r}")
        for tid, cost in _as_dict(tasks, f"costs.{rid}").items():
            if task_ids and tid not in task_ids:
                raise ConfigError(f"costs.{rid}.{tid}", f"unknown task {tid!r}")
            cost_table[(rid, tid)] = _money(cost, f"costs.{rid}.{tid}")

    rules_pool, robot_rules = _build_rules(data)
    for rid in robot_rules:
        if rid not in robot_ids:
            raise ConfigError(f"robot_rules.{rid}", f"unknown robot {rid!r}")

    pursuit_params: fm.PursuitParams | None = None
    world: pursuit.WorldState | None = None
    if "pursuit" in data:
        block = _as_dict(data["pursuit"], "pursuit")
        grid = _as_list(_require(block, "grid", "pursuit"), "pursuit.grid")
        if len(grid) != 2 or any(not isinstance(g, int) or g < 2 for g in grid):
            raise ConfigError("pursuit.grid", "grid must be [width, height] with sides >= 2")
        w, h = grid
        world = pursuit.WorldState(w, h)
        # the engine names its own tasks after the evaders
        for tid in sorted(task_ids):
            if tid.startswith(("capture:", "sg:")):
                raise ConfigError("task", f"task id {tid!r} is reserved for pursuit goals")
        robot_by_id = {r.id_cr: r for r in built_robots}
        for i, entry in enumerate(_as_list(_require(block, "robots", "pursuit"), "pursuit.robots")):
            where = f"pursuit.robots[{i}]"
            entry = _as_dict(entry, where)
            rid = str(_require(entry, "id", where))
            if rid not in robot_ids:
                raise ConfigError(where, f"unknown robot {rid!r}")
            cell = _cell(_require(entry, "pos", where), f"{where}.pos", w, h)
            world.robots[rid] = fm.robot_pose(robot_by_id[rid], cell)
        string_ids: set[bool] = set()
        for i, entry in enumerate(_as_list(_require(block, "evaders", "pursuit"), "pursuit.evaders")):
            where = f"pursuit.evaders[{i}]"
            entry = _as_dict(entry, where)
            raw_id = _require(entry, "id", where)
            string_ids.add(isinstance(raw_id, str))
            if len(string_ids) > 1:
                raise ConfigError(f"{where}.id", "evader ids mix strings and numbers")
            eid = str(raw_id)
            if eid in world.evaders:
                raise ConfigError(f"{where}.id", f"duplicate evader id {eid!r}")
            if entry.get("policy", "flee") != "flee":
                raise ConfigError(f"{where}.policy", f"unknown evader policy {entry['policy']!r}")
            world.evaders[eid] = pursuit.EvaderState(
                _cell(_require(entry, "pos", where), f"{where}.pos", w, h),
                _int(entry.get("speed", 1), f"{where}.speed", 0),
            )
        pursuit_params = fm.PursuitParams(
            k=_int(block.get("k", 4), "pursuit.k", 1),
            base_reward=_money(block.get("base_reward", 5), "pursuit.base_reward"),
            capture_quorum=_int(block.get("capture_quorum", 2), "pursuit.capture_quorum", 1),
            mission_reward=_money(block.get("mission_reward", 20), "pursuit.mission_reward"),
            required_speed=
            _frac(block["required_speed"], "pursuit.required_speed")
            if "required_speed" in block
            else None,
        )

    max_ticks = _int(data.get("max_ticks", 500), "max_ticks", 0)
    seed = _int(data.get("seed", 0), "seed")
    net_block = _as_dict(data.get("net", {}), "net")
    drop_rate = _frac(net_block.get("drop_rate", 0), "net.drop_rate")
    if not 0 <= drop_rate <= 1:
        raise ConfigError("net.drop_rate", "must be within [0, 1]")
    net = simnet.NetConfig(
        latency=_int(net_block.get("latency", 1), "net.latency", 0),
        drop_rate=drop_rate,
        seed=seed,
    )

    # (order key, event): events run by tick, type, then robot id, so their
    # order does not depend on the key order of the entries
    script: list[tuple[tuple, fm.FormationEvent]] = []
    known = set(robot_ids)
    for i, entry in enumerate(_as_list(data.get("events", []), "events")):
        where = f"events[{i}]"
        entry = _as_dict(entry, where)
        kind = _require(entry, "type", where)
        at = _int(_require(entry, "at", where), f"{where}.at", 0)
        if kind == "join":
            robot = _build_robot(_require(entry, "robot", where), f"{where}.robot")
            if robot.id_cr in known:
                raise ConfigError(f"{where}.robot", f"duplicate robot id {robot.id_cr!r}")
            known.add(robot.id_cr)
            if "pursuit" in data:
                pose = _cell(_require(entry, "pos", where), f"{where}.pos", w, h)
            else:  # a generic run has no grid: the pose is only logged
                pos = entry.get("pos")
                pose = tuple(_as_list(pos, f"{where}.pos")) if pos is not None else None
            event = fm.RobotJoined(tick=at, robot=robot, pose=pose)
            script.append(((at, kind, robot.id_cr), event))
        elif kind in ("fail", "withdraw"):
            rid = str(_require(entry, "robot", where))
            if rid not in known:
                raise ConfigError(f"{where}.robot", f"unknown robot {rid!r}")
            if kind == "fail":
                event = fm.RobotFailed(tick=at, robot=rid)
            else:
                reason = entry.get("reason", "Unwilling")
                try:
                    event = fm.RobotWithdrew(tick=at, robot=rid, reason=fm.WithdrawReason(reason))
                except ValueError:
                    raise ConfigError(f"{where}.reason", f"unknown reason {reason!r}") from None
            script.append(((at, kind, rid), event))
        else:
            raise ConfigError(where, f"unknown event type {kind!r}")

    params = fm.EngineParams(
        margin=_money(auction.get("margin", "1/10"), "auction.margin"),
        policy=policy,
        bid_window=bid_window,
        default_cost=_money(auction.get("default_cost", 1), "auction.default_cost"),
        cost_table=cost_table,
        constraints=tuple(constraints),
        rules_pool=rules_pool,
        robot_rules=robot_rules,
        pursuit=pursuit_params,
    )
    return ScenarioConfig(
        raw=data,
        seed=seed,
        max_ticks=max_ticks,
        net=net,
        params=params,
        robots=built_robots,
        task=root,
        script=[event for _, event in sorted(script, key=lambda keyed: keyed[0])],
        world=world,
    )


def load_config(path: str | Path) -> ScenarioConfig:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(str(p), f"cannot read config: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{p}:{exc.lineno}:{exc.colno}", f"invalid JSON: {exc.msg}"
        ) from None
    return from_dict(data)
