"""The allocation fallback: the solver against an exhaustive search of the
same Problem, on Problems the engine poses and on Problems drawn with no
state around them; the Problem the engine poses against an independent
derivation; the node budget; and sizes the exhaustive search could not
finish."""

from __future__ import annotations

import gc
import json
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hwrom import eventlog
from hwrom.allocation import BudgetExhausted, Problem, solve
from hwrom.config import from_dict
from hwrom import formation as fm
from hwrom.formation import EngineParams
from hwrom.org_core import LEADERSHIP_REQUIREMENTS, AssignmentMode, TaskAssignment, TaskNode, TaskStatus
from hwrom.rules_engine import RULE_NO_PARALLEL, STANDARD_RULES, ConstraintKind, ConstraintRelation

from conftest import SKILLS, cap, log_notes, organizer_caps, req, robot, run_cli_logged


def exhaustive_allocation(problem: Problem):
    """Reference: enumerate every candidate^task assignment and keep the least
    key (team size, sorted team, assignment vector in `order`), where `order`
    takes the composites of `problem.tasks` first.

    Each task must form no Parallel pair with what its robot holds: its
    completed work and its other tasks. Each robot's composites, its
    completed ones among them, must form one leadership chain on the
    complete assignment."""
    composites = [t for t in problem.tasks if t in problem.composites]
    order = composites + [t for t in problem.tasks if t not in problem.composites]
    parent = problem.parent

    def parallel_ok(robot: str, t: str, chosen: dict[str, str]) -> bool:
        held = problem.held[robot] | {x for x, r in chosen.items() if r == robot}
        return all(frozenset((t, h)) not in problem.pairs for h in held)

    def chains_ok(chosen: dict[str, str]) -> bool:
        # on the complete assignment, each robot's composites form one
        # parent-child path: exactly one of them has no parent among them,
        # and none has two children among them
        for robot in set(chosen.values()):
            mine = {x for x in composites if chosen[x] == robot}
            if not mine:
                continue
            mine |= problem.held[robot] & problem.composites
            tops = [x for x in mine if parent.get(x) not in mine]
            if len(tops) != 1 or any(sum(parent.get(y) == x for y in mine) > 1 for x in mine):
                return False
        return True

    best: dict[str, str] | None = None
    best_key: tuple | None = None

    def search(i: int, chosen: dict[str, str]) -> None:
        nonlocal best, best_key
        if i == len(order):
            if not chains_ok(chosen):
                return
            team = tuple(sorted(set(chosen.values())))
            key = (len(team), team, tuple(chosen[t] for t in order))
            if best_key is None or key < best_key:
                best, best_key = dict(chosen), key
            return
        t = order[i]
        for r in problem.eligible[t]:
            if parallel_ok(r, t, chosen):
                chosen[t] = r
                search(i + 1, chosen)
                del chosen[t]

    search(0, {})
    return None if best is None else [(t, best[t]) for t in order]


def reference_problem(state: fm.FormationState) -> Problem:
    """The Problem a re-plan of `state` poses, derived apart from the engine:
    the tree from the task nodes, its own candidate test, an assignment scan
    for completed work, and the Parallel pairs from the rules pool."""
    robots = sorted(r for r in state.robots if state.alive(r))
    parent = {
        sub.id_task: t for t, node in state.tasks.items() for sub in node.subtasks
    } | {state.root_task: None}

    def walk(node: TaskNode):
        yield node
        for sub in node.subtasks:
            yield from walk(sub)

    tasks = tuple(
        node.id_task
        for node in walk(state.tasks[state.root_task])
        if state.status[node.id_task] not in (TaskStatus.COMPLETED, TaskStatus.FAILED)
    )

    def candidates(t: str) -> tuple[str, ...]:
        task = state.tasks[t]
        need_leadership = bool(task.subtasks) or parent[t] is None
        out = []
        for r in robots:
            rb = state.robots[r]
            if need_leadership and not rb.dominates(LEADERSHIP_REQUIREMENTS):
                continue
            if not task.subtasks and not rb.dominates(task.required_capabilities):
                continue
            out.append(r)
        return tuple(out)

    held = {
        r: frozenset(
            t
            for t, a in state.org.assignments.items()
            if a.assignee == r and state.status[t] is TaskStatus.COMPLETED
        )
        for r in robots
    }
    # a Parallel pair binds only under the pool's no_parallel_coassignment norm
    enforced = any(r.predicate == "no_parallel_coassignment" for r in state.params.rules_pool)
    pairs = frozenset(
        frozenset((c.a, c.b))
        for c in state.params.constraints
        if c.kind is ConstraintKind.PARALLEL and c.a != c.b and enforced
    )
    return Problem(
        tasks=tasks,
        composites=frozenset(t for t, node in state.tasks.items() if node.subtasks),
        eligible={t: candidates(t) for t in tasks},
        held=held,
        parent=parent,
        pairs=pairs,
        budget=fm.REPLAN_NODE_BUDGET,
    )


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
        state.org.assignments[tid] = TaskAssignment(holder, Fraction(10), mode)
    if dead is not None:
        state.dead.add(dead)
    return state


def test_team_search_matches_exhaustive_search():
    seen = {"infeasible": 0, "parallel": 0, "parallel_unenforced": 0, "nested": 0, "siblings": 0,
            "fixed_held": 0, "team>2": 0, "twins": 0, "completed_chain": 0, "chain_over_a_gap": 0}
    for seed in range(600):
        state = random_instance(seed)
        problem = fm._problem(state)
        assert problem == reference_problem(state), f"seed {seed}"
        want = exhaustive_allocation(problem)
        assert solve(problem) == want, f"seed {seed}"

        composites = [t for t in problem.tasks if t in problem.composites]
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
            replace(problem, held={r: h - problem.composites for r, h in problem.held.items()})
        )
        # a robot leads a completed composite and two ancestors above it: the
        # top one is placed first, while its chain still misses the middle one
        lead = {t: r for t, r in want or () if t in composites}
        seen["chain_over_a_gap"] += any(
            (p := state.task_parent[t]) in lead and lead.get(state.task_parent[p]) == lead[p] == a.assignee
            for t, a in state.org.assignments.items()
            if state.is_composite(t)
        )
    assert all(seen.values()), seen


def test_a_chain_may_not_skip_a_completed_team():
    """R2 led g and R1 led d below it, both completed. T and d lie on one
    root path, but R1 leading T would skip g, so only R2 may lead T."""
    robots = [robot(r, *organizer_caps(), cap("Action", "weld")) for r in ("R1", "R2")]
    state = fm.new_state(robots, EngineParams())
    welds = frozenset({req("Action", "weld", 1)})
    d = TaskNode("d", Fraction(10), frozenset(), [TaskNode("d1", Fraction(10), welds)])
    g = TaskNode("g", Fraction(20), frozenset(), [d])
    fm.register_task_tree(state, TaskNode("T", Fraction(40), frozenset(), [g, TaskNode("t1", Fraction(10), welds)]))
    for t, holder, mode in (("g", "R2", AssignmentMode.LED),
                            ("d", "R1", AssignmentMode.LED),
                            ("d1", "R1", AssignmentMode.WON)):
        state.status[t] = TaskStatus.COMPLETED
        state.org.assignments[t] = TaskAssignment(holder, Fraction(10), mode)
    problem = fm._problem(state)
    assert solve(problem) == exhaustive_allocation(problem) == [
        ("T", "R2"), ("t1", "R2")
    ]


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
    # the notes name no task: the close that gave up names it
    [closed] = [
        rec
        for rec in map(json.loads, log_path.read_text().splitlines())
        if rec["type"] == "event" and {"kind": "replan_budget_exhausted"} in rec["detail"]["notes"]
    ]
    assert (closed["event"], closed["data"]) == ("AuctionClosed", {"id_task": "g1", "round": 1})
    assert closed["detail"]["notes"] == [
        {"kind": "give_up"}, {"kind": "replan_budget_exhausted"}, {"kind": "formation_failed"}
    ]
    assert eventlog.replay(log_path).ok


def test_robots_that_are_no_candidate_join_no_team(tmp_path):
    # 45 vision-only robots sort before the 5 that must each take one of the
    # Parallel leaves; the fallback draws teams from task candidates only
    config = give_up_config(5, parallel=True, bystanders=45)
    state = from_dict(config).build_state()
    problem = fm._problem(state)
    want = exhaustive_allocation(problem)
    assert solve(problem) == want
    assert {r for _, r in want} == {"R1", "R2", "R3", "R4", "R5"}

    t0 = time.perf_counter()
    exit_code, log_path = run_cli_logged(config, tmp_path)
    assert time.perf_counter() - t0 < 5.0
    assert exit_code == 0
    allocated = [(note["task"], note["robot"]) for note in log_notes(log_path) if note["kind"] == "allocated"]
    assert allocated == want


def test_interchangeable_robots_are_tried_once():
    small = from_dict(give_up_config(8, leaves=4, parallel=True)).build_state()
    problem = fm._problem(small)
    assert solve(problem) == exhaustive_allocation(problem)

    # 30 identical robots: every team of up to 4 fails on the 5 Parallel
    # leaves, which only the symmetry cut keeps within the budget
    state = from_dict(give_up_config(30, leaves=5, parallel=True)).build_state()
    t0 = time.perf_counter()
    got = solve(fm._problem(state))
    assert time.perf_counter() - t0 < 1.0
    assert got == [("T", "R1"), ("g1", "R1"), ("g2", "R10"), ("g3", "R11"), ("g4", "R12"), ("g5", "R13")]


@st.composite
def problems(draw) -> Problem:
    """A Problem with no state around it: 1-5 robots R1..; a root T with up to
    4 open tasks below it; up to 2 completed leaves d0.. and maybe a completed
    team dc with its leaf dc1, hung under open tasks, each held by one robot
    or by none (its holder is gone); candidates drawn per task; and Parallel
    pairs between any two tasks."""
    robots = [f"R{i}" for i in range(1, draw(st.integers(1, 5)) + 1)]
    parent: dict[str, str | None] = {"T": None}
    for i in range(1, draw(st.integers(1, 5))):
        parent[f"n{i}"] = draw(st.sampled_from(sorted(parent)))
    open_tasks = list(parent)
    done = [f"d{i}" for i in range(draw(st.integers(0, 2)))]
    for d in done:
        parent[d] = draw(st.sampled_from(open_tasks))
    if draw(st.booleans()):
        parent["dc"], parent["dc1"] = draw(st.sampled_from(open_tasks)), "dc"
        done += ["dc", "dc1"]

    def walk(t: str):
        yield t
        for sub in parent:
            if parent[sub] == t:
                yield from walk(sub)

    tasks = tuple(t for t in walk("T") if t in open_tasks)
    holders = {d: draw(st.sampled_from([*robots, None])) for d in done}
    pair = st.frozensets(st.sampled_from(sorted(parent)), min_size=2, max_size=2)
    return Problem(
        tasks=tasks,
        composites=frozenset(p for p in parent.values() if p is not None),
        eligible={t: tuple(sorted(draw(st.sets(st.sampled_from(robots), min_size=1)))) for t in tasks},
        held={r: frozenset(d for d in done if holders[d] == r) for r in robots},
        parent=parent,
        pairs=draw(st.frozensets(pair, max_size=4)) if len(parent) > 1 else frozenset(),
        budget=fm.REPLAN_NODE_BUDGET,
    )


@settings(settings.get_profile("allocation"))
@given(problems())
def test_solve_matches_exhaustive_search_on_drawn_problems(problem):
    want = exhaustive_allocation(problem)
    assert solve(problem) == want
    # a feasible Problem of 3 or more tasks needs more than 3 nodes: the first
    # search visits one per task and one for the complete assignment
    if want is not None and len(problem.tasks) >= 3:
        with pytest.raises(BudgetExhausted):
            solve(replace(problem, budget=3))


def test_solve_leaves_no_reference_cycle():
    problem = fm._problem(from_dict(give_up_config(8, leaves=4, parallel=True)).build_state())
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            solve(problem)
        assert gc.collect() == 0
    finally:
        gc.enable()
