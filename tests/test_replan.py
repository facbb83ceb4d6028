"""The allocation fallback: the ordered team search against the exhaustive
search it replaced, the node budget, and sizes the exhaustive search could
not finish."""

from __future__ import annotations

import random
import time
from fractions import Fraction

from hwrom import eventlog
from hwrom.config import from_dict
from hwrom import formation as fm
from hwrom.formation import EngineParams, _leadership_capable
from hwrom.org_core import AssignmentMode, TaskAssignment, TaskNode, TaskStatus
from hwrom.rules_engine import RULE_NO_PARALLEL, STANDARD_RULES, ConstraintKind, ConstraintRelation

from conftest import SKILLS, cap, log_notes, organizer_caps, req, robot, run_cli_logged


def exhaustive_allocation(
    state: fm.FormationState, unfinished: list[str], *, completed_composites: bool = True
):
    """Reference: enumerate every candidate^task assignment and keep the least
    key (team size, sorted team, assignment vector in `order`).

    Tasks are taken in `order`, and each must keep its robot's norms with
    what the robot already holds: its completed work and its earlier tasks
    in `order`. `completed_composites=False` leaves a robot's completed
    composites out of its leadership chain, as the fallback once did."""
    robots = sorted(r for r in state.robots if state.alive(r))
    fixed_held: dict[str, set[str]] = {
        r: {
            t
            for t, a in state.org.assignments.items()
            if a.assignee == r and state.status[t] is TaskStatus.COMPLETED
        }
        for r in robots
    }

    composites = [t for t in unfinished if state.is_composite(t)]
    atomics = [t for t in unfinished if not state.is_composite(t)]
    order = composites + atomics

    def candidates(t: str) -> list[str]:
        task = state.tasks[t]
        need_leadership = state.is_composite(t) or state.task_parent.get(t) is None
        out = []
        for r in robots:
            rb = state.robots[r]
            if need_leadership and not _leadership_capable(rb):
                continue
            if not state.is_composite(t) and not rb.dominates(task.required_capabilities):
                continue
            out.append(r)
        return out

    # a Parallel pair binds only under the pool's no_parallel_coassignment norm
    enforced = any(r.predicate == "no_parallel_coassignment" for r in state.params.rules_pool)
    parallel_pairs = {
        frozenset((c.a, c.b))
        for c in state.params.constraints
        if c.kind is ConstraintKind.PARALLEL and enforced
    }

    def parallel_ok(robot: str, t: str, chosen: dict[str, str]) -> bool:
        held = fixed_held[robot] | {x for x, r in chosen.items() if r == robot}
        return all(frozenset((t, h)) not in parallel_pairs for h in held)

    def chain_ok(robot: str, t: str, chosen: dict[str, str]) -> bool:
        # the robot's composites form one parent-child path: exactly one of
        # them has no parent among them, and none has two children among them
        if not state.is_composite(t):
            return True
        mine = {x for x in composites if chosen.get(x) == robot} | {t}
        if completed_composites:
            mine |= {x for x in fixed_held[robot] if state.is_composite(x)}
        tops = [x for x in mine if state.task_parent.get(x) not in mine]
        return len(tops) == 1 and all(
            sum(state.task_parent.get(y) == x for y in mine) <= 1 for x in mine
        )

    best: dict[str, str] | None = None
    best_key: tuple | None = None

    def search(i: int, chosen: dict[str, str]) -> None:
        nonlocal best, best_key
        if i == len(order):
            team = tuple(sorted(set(chosen.values())))
            key = (len(team), team, tuple(chosen[t] for t in order))
            if best_key is None or key < best_key:
                best, best_key = dict(chosen), key
            return
        t = order[i]
        for r in candidates(t):
            if parallel_ok(r, t, chosen) and chain_ok(r, t, chosen):
                chosen[t] = r
                search(i + 1, chosen)
                del chosen[t]

    search(0, {})
    return None if best is None else [(t, best[t]) for t in order]


def random_instance(seed: int) -> fm.FormationState:
    """A state as the fallback finds it: up to 5 live robots, a random task
    tree with up to 5 unfinished nodes (so nested and sibling composites),
    up to 2 leaves already completed by some robot, sometimes a completed
    composite `dc` (with its leaf `dc1`) that some robot led, Parallel pairs
    that may touch completed work, and sometimes a dead robot. Every fifth
    pool lacks the no_parallel_coassignment norm."""
    rng = random.Random(seed)
    robots = []
    for i in range(1, rng.randint(1, 5) + 1):
        caps = list(organizer_caps()) if rng.random() < 0.6 else []
        caps += [cap(k, s, rng.randint(1, 2)) for k, s in rng.sample(SKILLS, rng.randint(1, 2))]
        robots.append(robot(f"R{i}", *caps))
    dead = rng.choice([r.id_cr for r in robots]) if len(robots) > 1 and rng.random() < 0.2 else None

    children: dict[str, list[str]] = {"T": []}
    for i in range(1, rng.randint(1, 5)):
        tid = f"n{i}"
        children[rng.choice(sorted(children))].append(tid)
        children[tid] = []
    done = []
    for i in range(rng.randint(0, 2)):
        tid = f"d{i}"
        children[rng.choice([t for t in sorted(children) if children[t] or t == "T"])].append(tid)
        children[tid] = []
        done.append(tid)
    if rng.random() < 0.4:
        children[rng.choice([t for t in sorted(children) if children[t] or t == "T"])].append("dc")
        children["dc"], children["dc1"] = ["dc1"], []
        done += ["dc", "dc1"]

    def build(tid: str) -> TaskNode:
        kind, sub = rng.choice(SKILLS)
        needs = frozenset() if children[tid] else frozenset({req(kind, sub, 1)})
        return TaskNode(tid, Fraction(10), needs, [build(c) for c in children[tid]])

    atomic = [t for t in sorted(children) if not children[t]]
    constraints = tuple(
        ConstraintRelation(a, b, ConstraintKind.PARALLEL)
        for i, a in enumerate(atomic)
        for b in atomic[i + 1 :]
        if rng.random() < 0.4
    )
    pool = STANDARD_RULES - {RULE_NO_PARALLEL} if seed % 5 == 0 else STANDARD_RULES
    state = fm.new_state(robots, EngineParams(constraints=constraints, rules_pool=pool))
    fm.register_task_tree(state, build("T"))
    for tid in done:
        state.status[tid] = TaskStatus.COMPLETED
        holder = rng.choice([r.id_cr for r in robots])
        mode = AssignmentMode.LED if children[tid] else AssignmentMode.WON
        state.org.assignments[tid] = TaskAssignment(
            tid, holder, Fraction(10), mode, tuple(children[tid])
        )
    if dead is not None:
        state.dead.add(dead)
    return state


def test_team_search_matches_exhaustive_search():
    seen = {"infeasible": 0, "parallel": 0, "parallel_unenforced": 0, "nested": 0, "siblings": 0,
            "fixed_held": 0, "team>2": 0, "twins": 0, "completed_chain": 0}
    for seed in range(600):
        state = random_instance(seed)
        unfinished = fm._unfinished(state)
        want = exhaustive_allocation(state, unfinished)
        assert fm._allocation(state, unfinished) == want, f"seed {seed}"

        composites = [t for t in unfinished if state.is_composite(t)]
        seen["infeasible"] += want is None
        seen["parallel"] += bool(state.params.constraints)
        seen["parallel_unenforced"] += bool(state.params.constraints) and not state.params.parallel_pairs
        seen["nested"] += any(state.task_parent[t] in composites for t in composites)
        seen["siblings"] += sum(state.task_parent[t] == "T" for t in composites) > 1
        seen["fixed_held"] += any(t.startswith("d") for t in state.org.assignments)
        seen["team>2"] += want is not None and len({r for _, r in want}) > 2
        caps = [rb.capabilities for rb in state.robots.values()]
        seen["twins"] += len(set(caps)) < len(caps)
        # a completed composite in a robot's leadership chain changes the answer
        seen["completed_chain"] += want != exhaustive_allocation(
            state, unfinished, completed_composites=False
        )
    assert all(seen.values()), seen


def give_up_config(size: int, leaves: int | None = None, parallel: bool = False,
                   bystanders: int = 0) -> dict:
    """`size` robots R1.. that can all lead and weld, and a root with `leaves`
    (default `size`) weld leaves priced above their reward: the first auction
    gives up and the leader allocates everything. `parallel` makes the leaves
    pairwise Parallel; `bystanders` adds vision-only robots B01.. that sort
    first and are no task's candidate."""
    names = [f"R{i}" for i in range(1, size + 1)]
    goals = [f"g{k}" for k in range(1, (size if leaves is None else leaves) + 1)]
    return {
        "seed": 1,
        "max_ticks": 200,
        "robots": [
            {"id": f"B{i:02d}", "capabilities": [["Sensing", "vision", 1]]}
            for i in range(1, bystanders + 1)
        ] + [
            {"id": r, "capabilities": [["Organization", "plan", 1], ["Communication", "radio", 1],
                                       ["Action", "weld", 1]]}
            for r in names
        ],
        "task": {"id": "T", "reward": 100, "subtasks": [
            {"id": g, "reward": 10, "requires": [["Action", "weld", 1]]} for g in goals
        ]},
        "constraints": [
            {"a": a, "b": b, "kind": "Parallel"}
            for i, a in enumerate(goals) if parallel for b in goals[i + 1 :]
        ],
        "costs": {r: {g: 1000 for g in goals} for r in names},
        "auction": {"max_reward_rounds": 1, "max_total_rounds": 1},
    }


def test_ten_by_ten_give_up_finishes(tmp_path):
    t0 = time.perf_counter()
    exit_code, log_path = run_cli_logged(give_up_config(10), tmp_path)
    assert time.perf_counter() - t0 < 5.0
    assert exit_code == 0
    # fewest members: one robot leads the root and does every leaf
    allocated = [note for note in log_notes(log_path) if note["kind"] == "allocated"]
    assert len(allocated) == 11 and {note["robot"] for note in allocated} == {"R1"}


def test_budget_exhaustion_fails_formation_and_replays(tmp_path, monkeypatch):
    monkeypatch.setattr(fm, "REPLAN_NODE_BUDGET", 3)
    exit_code, log_path = run_cli_logged(give_up_config(5), tmp_path)
    assert exit_code == 1
    kinds = [note["kind"] for note in log_notes(log_path)]
    at = kinds.index("replan_budget_exhausted")
    assert kinds[at - 1 : at + 2] == ["give_up", "replan_budget_exhausted", "formation_failed"]
    assert "allocated" not in kinds
    assert eventlog.replay(log_path).ok


def test_robots_that_are_no_candidate_join_no_team(tmp_path):
    # 45 vision-only robots sort before the 5 that must each take one of the
    # Parallel leaves; the fallback draws teams from task candidates only
    config = give_up_config(5, parallel=True, bystanders=45)
    state = from_dict(config).build_state()
    unfinished = fm._unfinished(state)
    want = exhaustive_allocation(state, unfinished)
    assert fm._allocation(state, unfinished) == want
    assert {r for _, r in want} == {"R1", "R2", "R3", "R4", "R5"}

    t0 = time.perf_counter()
    exit_code, log_path = run_cli_logged(config, tmp_path)
    assert time.perf_counter() - t0 < 5.0
    assert exit_code == 0
    allocated = [(note["task"], note["robot"]) for note in log_notes(log_path) if note["kind"] == "allocated"]
    assert allocated == want


def test_interchangeable_robots_are_tried_once():
    small = from_dict(give_up_config(8, leaves=4, parallel=True)).build_state()
    unfinished = fm._unfinished(small)
    assert fm._allocation(small, unfinished) == exhaustive_allocation(small, unfinished)

    # 30 identical robots: every team of up to 4 fails on the 5 Parallel
    # leaves, which only the symmetry cut keeps within the budget
    state = from_dict(give_up_config(30, leaves=5, parallel=True)).build_state()
    t0 = time.perf_counter()
    got = fm._allocation(state, fm._unfinished(state))
    assert time.perf_counter() - t0 < 1.0
    assert got == [("T", "R1"), ("g1", "R1"), ("g2", "R10"), ("g3", "R11"), ("g4", "R12"), ("g5", "R13")]
