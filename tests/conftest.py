"""Shared builders for tests: the session walk of the corpora (`corpus.py`),
robots, tasks, randomized instances and a runner for them, note lookups, and
the oracles used to cross-check the formation engine."""

from __future__ import annotations

import gc
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import settings

from hwrom import formation as fm
from hwrom import simnet
from hwrom.cli import main
from hwrom.org_core import (
    Capability,
    CapabilityKind,
    CapabilityRequirement,
    CooperativeRobot,
    OrgNode,
    TaskNode,
    canonical_json,
)
from hwrom.rules_engine import ConstraintKind, ConstraintRelation

import corpus
from corpus import SKILLS


@pytest.fixture(scope="session")
def walk() -> corpus.Walk:
    """The shared corpora of `corpus.walk_runs`, each distinct config run
    once, with the probe of every collected module installed. The runs live
    as long as the session, so they are frozen out of the collector: no
    later collection scans them again."""
    runs = corpus.walk(corpus.walk_runs(), corpus.PROBES)
    gc.collect()
    gc.freeze()
    return runs


# the allocation property draws the same Problems on every run: a failure
# reproduces, and the examples cost the same time everywhere
settings.register_profile("allocation", derandomize=True, database=None, deadline=None, max_examples=200)


def renumbered(root: OrgNode) -> OrgNode:
    """`root` after the engine's `_renumber`, in a state that knows every
    robot the tree names: each team then holds the rules all its members
    abide."""
    ids = sorted({n.id_robot for n in root.walk() if n.id_robot is not None})
    state = fm.new_state([CooperativeRobot(r, frozenset()) for r in ids], fm.EngineParams())
    state.org.root = root
    fm._renumber(state)
    return root


def cap(kind: str, subkind: str, magnitude=1) -> Capability:
    return Capability(CapabilityKind(kind), subkind, Fraction(magnitude))


def req(kind: str, subkind: str = "", minimum=0) -> CapabilityRequirement:
    return CapabilityRequirement(CapabilityKind(kind), subkind, Fraction(minimum))


def robot(rid: str, *capabilities: Capability) -> CooperativeRobot:
    return CooperativeRobot(rid, frozenset(capabilities))


def organizer_caps() -> tuple[Capability, ...]:
    return (cap("Organization", "plan"), cap("Communication", "radio"))


def make_instance(seed: int) -> dict:
    """One member of the randomized desk-scale family: at most 6 robots and
    5 task nodes, random capabilities, random Parallel/Sequence constraints,
    random integer costs. Returned as plain data; build fresh objects per run."""
    rng = random.Random(seed)
    n_robots = rng.randint(1, 6)
    robots = []
    for i in range(1, n_robots + 1):
        caps = []
        if rng.random() < 0.6:
            caps.extend([("Organization", "plan", 1), ("Communication", "radio", 1)])
        for kind, sub in SKILLS:
            if rng.random() < 0.55:
                caps.append((kind, sub, rng.randint(1, 3)))
        robots.append({"id": f"R{i}", "caps": caps})

    def leaf(idx: int) -> dict:
        kind, sub = rng.choice(SKILLS)
        return {
            "id": f"t{idx}",
            "reward": rng.randint(1, 10),
            "requires": [(kind, sub, rng.randint(1, 2))],
            "subtasks": [],
        }

    if rng.random() < 0.15:
        kind, sub = rng.choice(SKILLS)
        task = {
            "id": "T",
            "reward": rng.randint(5, 20),
            "requires": [(kind, sub, 1)],
            "subtasks": [],
        }
        leaf_ids = []
    else:
        n_leaves = rng.randint(1, 4)
        subtasks = [leaf(i) for i in range(1, n_leaves + 1)]
        if n_leaves <= 2 and rng.random() < 0.3:
            inner = {
                "id": "c1",
                "reward": rng.randint(3, 12),
                "requires": [],
                "subtasks": [leaf(n_leaves + 1), leaf(n_leaves + 2)],
            }
            subtasks.append(inner)
        task = {"id": "T", "reward": rng.randint(10, 30), "requires": [], "subtasks": subtasks}
        leaf_ids = [s["id"] for s in _walk(task) if not s["subtasks"] and s["id"] != "T"]

    constraints = []
    for i, a in enumerate(leaf_ids):
        for b in leaf_ids[i + 1 :]:
            roll = rng.random()
            if roll < 0.2:
                constraints.append((a, b, "Parallel"))
            elif roll < 0.3:
                constraints.append((a, b, "Sequence"))

    costs = {}
    for r in robots:
        for node in _walk(task):
            if rng.random() < 0.5:
                costs[(r["id"], node["id"])] = rng.randint(0, 3)

    return {"robots": robots, "task": task, "constraints": constraints, "costs": costs}


def _walk(task: dict):
    yield task
    for s in task["subtasks"]:
        yield from _walk(s)


def build_robots(spec: dict) -> list[CooperativeRobot]:
    return [
        CooperativeRobot(
            r["id"], frozenset(cap(k, s, m) for k, s, m in r["caps"])
        )
        for r in spec["robots"]
    ]


def build_task(spec_task: dict) -> TaskNode:
    return TaskNode(
        id_task=spec_task["id"],
        reward=Fraction(spec_task["reward"]),
        required_capabilities=frozenset(req(k, s, m) for k, s, m in spec_task["requires"]),
        subtasks=[build_task(s) for s in spec_task["subtasks"]],
        duration=spec_task.get("duration", 1),
    )


def build_constraints(spec: dict) -> tuple[ConstraintRelation, ...]:
    return tuple(ConstraintRelation(a, b, ConstraintKind(k)) for a, b, k in spec["constraints"])


def spec_scheduler(spec: dict, observe=None) -> tuple[fm.FormationState, simnet.Scheduler]:
    """The state `spec` describes, with its root task arriving at tick 0, and
    a scheduler that shows each record to `observe(state, record)`, if given."""
    costs = {k: Fraction(v) for k, v in spec["costs"].items()}
    state = fm.new_state(build_robots(spec), fm.EngineParams(cost_table=costs, constraints=build_constraints(spec)))
    fm.register_task_tree(state, build_task(spec["task"]))
    record = observe and (lambda rec: observe(state, rec))
    sched = simnet.Scheduler(state, simnet.NetConfig(), record=record)
    sched.push_event(fm.TaskArrived(tick=0, id_task=spec["task"]["id"]))
    return state, sched


def run_scenario(spec: dict, until=200, stop_at_formed=False, observe=None):
    """Run `spec` until it is Done or Failed, or formed with `stop_at_formed`."""
    state, sched = spec_scheduler(spec, observe)
    stop = (fm.Phase.DONE, fm.Phase.FAILED) + ((fm.Phase.EXECUTING,) if stop_at_formed else ())
    sched.run(until=until, stop_when=lambda s: s.phase in stop)
    return state, sched.trace


def run_cli_logged(config: dict, workdir: Path) -> tuple[int, Path]:
    """`hwrom run --log` on `config`; returns the exit code and the log path."""
    config_path = workdir / "scenario.json"
    log_path = workdir / "trace.jsonl"
    config_path.write_text(json.dumps(config))
    result = CliRunner().invoke(main, ["run", str(config_path), "--log", str(log_path)])
    assert result.exit_code in (0, 1), result.output
    return result.exit_code, log_path


def noted(trace, *kinds):
    """(record, note) for each note of one of `kinds`, in trace order."""
    return [
        (rec, note)
        for rec in trace
        if rec.get("type") == "event"
        for note in rec["detail"]["notes"]
        if note["kind"] in kinds
    ]


def notes(trace, *kinds):
    return [(rec["tick"], note) for rec, note in noted(trace, *kinds)]


def log_notes(log_path: Path) -> list[dict]:
    """Every note of every event record in a JSONL log, in order."""
    return [
        note
        for rec in map(json.loads, log_path.read_text().splitlines())
        if rec.get("type") == "event"
        for note in rec["detail"]["notes"]
    ]


# --- the log v2 oracle -------------------------------------------------------------

# Since v3 a note leaves out each field that always equals a fact of its own event
# or its record's tick. These are the fields, by note kind.
V3_DROPPED = {
    "bid": ("task", "robot", "price", "round"),
    **dict.fromkeys(
        ("void_bid", "stale_bid", "duplicate_bid", "late_bid", "protocol_violation"), ("task", "robot")
    ),
    "queued": ("task",),
    **dict.fromkeys(("award", "close_stale"), ("task", "round")),
    **dict.fromkeys(
        ("close_ignored", "escalate", "redecompose", "give_up", "replan_budget_exhausted", "formation_failed"),
        ("task",),
    ),
    **dict.fromkeys(("completed", "completion_ignored"), ("task", "robot")),
    **dict.fromkeys(("joined", "withdrew", "withdrew_idle", "withdraw_noop"), ("robot",)),
    "mission_done": ("tick",),
}
V2_DIGESTS = json.loads((Path(__file__).parent / "fixtures" / "v2_digests.json").read_text())


def v4_to_v2(record: dict) -> dict:
    """The v2 record a v4 record stands for: the header's version 2, and an
    event record's top-level task/robot/round summary, its `data`'s tick,
    seq and type, each field its notes leave out (v3), and a TaskArrived's
    `designated_leader`, null in every run v2 logged outside pursuit (v4).
    Other records are the same in all three versions."""
    if record["type"] == "header":
        return {**record, "version": 2}
    if record["type"] != "event":
        return record
    data = record["data"]
    if "bid" in data:
        bid = data["bid"]
        summary = {"task": bid["id_task"], "robot": bid["bidder"], "round": bid["round"]}
        facts = dict(summary, price=bid["price"])
    else:
        robot = data.get("robot")
        robot = robot["id"] if isinstance(robot, dict) else robot
        summary = {"task": data.get("id_task"), "robot": robot, "round": data.get("round")}
        facts = dict(summary)
    if record["event"] == "TaskArrived":
        data = {**data, "designated_leader": None}
    facts["tick"] = record["tick"]
    notes = [
        {**note, **{field: facts[field] for field in V3_DROPPED.get(note["kind"], ())}}
        for note in record["detail"]["notes"]
    ]
    return {
        **record,
        **summary,
        "data": {"tick": record["tick"], "seq": record["seq"], "type": record["event"], **data},
        "detail": {**record["detail"], "notes": notes},
    }


def v2_moved(group: str, name: str, lines: list[str]) -> bool:
    """Whether the v2 log that a v4 log's lines stand for no longer hashes to
    its frozen digest in `V2_DIGESTS[group]`. A run with no frozen digest,
    one deleted by a change that moved its log on purpose, never moves."""
    if name not in V2_DIGESTS[group]:
        return False
    v2 = (canonical_json(v4_to_v2(json.loads(line))) + "\n" for line in lines)
    return hashlib.sha256("".join(v2).encode()).hexdigest() != V2_DIGESTS[group][name]


# --- the winner lock by a scan of wins and releases ------------------------------

Record = tuple[int, str, str]  # (tick, robot, task)


def scan_locked(wins: list[Record], releases: list[Record], robot: str, at: int) -> bool:
    """True iff some locking win of the robot at tick t <= at has no
    completion or revocation of its task at a tick r with t <= r <= at."""
    return any(
        won_by == robot
        and won <= at
        and not any(by == robot and t == task and won <= r <= at for r, by, t in releases)
        for won, won_by, task in wins
    )


# --- independent feasibility oracle ---------------------------------------------


def _has(robot_caps: list, kind: str, sub: str, minimum: int) -> bool:
    for k, s, m in robot_caps:
        if k == kind and (not sub or s == sub):
            if minimum > 0 and m >= minimum:
                return True
            if minimum == 0 and m > 0:
                return True
    return False


def brute_force_feasible(spec: dict) -> bool:
    """Exhaustive search over robot -> task maps respecting capabilities, the
    Parallel rule, and leadership-chain legality. Independent of the engine."""
    nodes = list(_walk(spec["task"]))
    parent: dict[str, str | None] = {spec["task"]["id"]: None}
    depth: dict[str, int] = {spec["task"]["id"]: 0}
    for node in nodes:
        for s in node["subtasks"]:
            parent[s["id"]] = node["id"]
            depth[s["id"]] = depth[node["id"]] + 1
    parallel = {
        frozenset((a, b)) for a, b, k in spec["constraints"] if k == "Parallel"
    }
    robots = {r["id"]: r["caps"] for r in spec["robots"]}

    def eligible(node: dict, is_root: bool) -> list[str]:
        out = []
        for rid, caps in robots.items():
            if (node["subtasks"] or is_root) and not (
                _has(caps, "Organization", "", 0) and _has(caps, "Communication", "", 0)
            ):
                continue
            if not node["subtasks"] and not all(
                _has(caps, k, s, m) for k, s, m in node["requires"]
            ):
                continue
            out.append(rid)
        return out

    order = sorted(nodes, key=lambda n: (depth[n["id"]], n["id"]))
    cand = {n["id"]: eligible(n, parent[n["id"]] is None) for n in order}
    composite_ids = {n["id"] for n in nodes if n["subtasks"]}

    def chain_legal(assignment: dict[str, str]) -> bool:
        by_robot: dict[str, list[str]] = {}
        for t, r in assignment.items():
            if t in composite_ids:
                by_robot.setdefault(r, []).append(t)
        for xs in by_robot.values():
            xs = sorted(xs, key=lambda x: (depth[x], x))
            for i in range(len(xs) - 1):
                if parent[xs[i + 1]] != xs[i]:
                    return False
        return True

    def parallel_legal(assignment: dict[str, str]) -> bool:
        held: dict[str, set[str]] = {}
        for t, r in assignment.items():
            held.setdefault(r, set()).add(t)
        for tasks in held.values():
            for pair in parallel:
                if pair <= tasks:
                    return False
        return True

    def search(i: int, assignment: dict[str, str]) -> bool:
        if i == len(order):
            return chain_legal(assignment) and parallel_legal(assignment)
        t = order[i]["id"]
        for r in cand[t]:
            assignment[t] = r
            # cheap pruning; full validation happens at the leaf
            ok = all(
                not (frozenset((t, other)) in parallel and assignment.get(other) == r)
                for other in assignment
                if other != t
            )
            if ok and search(i + 1, assignment):
                return True
            del assignment[t]
        return False

    return search(0, {})


@pytest.fixture
def standard_instance() -> dict:
    """One organizer plus three specialists; three independent sub-tasks."""
    return {
        "robots": [
            {"id": "R1", "caps": [("Organization", "plan", 1), ("Communication", "radio", 1)]},
            {"id": "R2", "caps": [("Action", "weld", 2), ("Communication", "radio", 1)]},
            {"id": "R3", "caps": [("Sensing", "vision", 3), ("Communication", "radio", 1)]},
            {"id": "R4", "caps": [("Moving", "speed", 2), ("Communication", "radio", 1)]},
        ],
        "task": {
            "id": "T",
            "reward": 30,
            "requires": [],
            "subtasks": [
                {"id": "t1", "reward": 10, "requires": [("Action", "weld", 1)], "subtasks": []},
                {"id": "t2", "reward": 10, "requires": [("Sensing", "vision", 1)], "subtasks": []},
                {"id": "t3", "reward": 10, "requires": [("Moving", "speed", 1)], "subtasks": []},
            ],
        },
        "constraints": [],
        "costs": {},
    }
