"""The allocation fallback as a solver, apart from the engine that poses it.

When the market gives up, the acting leader assigns every unfinished task
directly. A `Problem` holds exactly what that search reads, and `solve`
finds the preference-best feasible assignment. The two norms the search
keeps, the leadership chain and Parallel, are stated here over plain maps;
the auction's norm check asks the same functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Collection, Iterable, Iterator, Mapping


class BudgetExhausted(Exception):
    """The search visited `Problem.budget` nodes without an answer."""


@dataclass(frozen=True)
class Problem:
    """One re-plan: `tasks`, the unfinished tasks in tree order; `composites`,
    every composite of the task tree; `eligible`, each task's candidates in
    id order; `held`, each live robot's completed work; `parent`, each task's
    parent (None for a root); `pairs`, the binding Parallel pairs; and
    `budget`, the search nodes one solve may visit."""

    tasks: tuple[str, ...]
    composites: frozenset[str]
    eligible: Mapping[str, tuple[str, ...]]
    held: Mapping[str, frozenset[str]]
    parent: Mapping[str, str | None]
    pairs: frozenset[frozenset[str]]
    budget: int


def depth(parent: Mapping[str, str | None], t: str) -> int:
    """How many ancestors task t has."""
    d = 0
    while (p := parent.get(t)) is not None:
        t = p
        d += 1
    return d


def chain_gaps(parent: Mapping[str, str | None], composites: Collection[str]) -> int | None:
    """How many tasks the root path through `composites` leaves out between
    its top and its bottom: 0 when they form one parent-child chain, None
    when they lie on no one root path."""
    path = [max(composites, key=lambda x: depth(parent, x))]
    while (up := parent.get(path[-1])) is not None:
        path.append(up)
    held = [i for i, x in enumerate(path) if x in composites]
    return None if len(held) < len(composites) else held[-1] + 1 - len(held)


def parallel_conflict(pairs: frozenset[frozenset[str]], t: str, held: Collection[str]) -> bool:
    """Whether task t forms a binding Parallel pair with a held task."""
    return bool(pairs) and any(frozenset((t, h)) in pairs for h in held)


def preferred_teams(robots: Iterable[str], min_size: int = 1) -> Iterator[tuple[str, ...]]:
    """Every team of at least `min_size` of `robots`, best first under
    rules_engine.forming_key.

    forming_key orders by size first, and combinations() of a sorted pool
    yields each size in id-lexicographic order, so the sizes in turn are the
    key order. Lazy: no team is built before it is asked for.
    """
    pool = sorted(robots)
    return chain.from_iterable(combinations(pool, k) for k in range(min_size, len(pool) + 1))


class _Search:
    """The depth-first searches of one `solve` over `order` (composites
    first): the partial assignment they share and the nodes they visited."""

    def __init__(self, problem: Problem, order: list[str], n_composites: int) -> None:
        self.problem, self.order, self.n_composites = problem, order, n_composites
        self.lead = {r: held & problem.composites for r, held in problem.held.items()}
        # robots with the same candidacies and completed work are interchangeable
        # until one of them is used: swapping two unused ones maps any completion
        # onto another, so once one fails as t's assignee, the rest fail too
        self.kind = {r: (tuple(r in problem.eligible[t] for t in order), h) for r, h in problem.held.items()}
        self.chosen: dict[str, str] = {}
        # the partial assignment by robot, and how many robots it uses, kept in
        # step with `chosen`
        self.taken: dict[str, list[str]] = {r: [] for r in problem.held}
        self.used = self.nodes = 0

    def visit(self) -> None:
        self.nodes += 1
        if self.nodes > self.problem.budget:
            raise BudgetExhausted

    def extend(self, i: int, options: Mapping[str, tuple[str, ...]], team: set[str], cap: int) -> bool:
        """Extend `chosen` over order[i:] with at most `cap` distinct robots,
        so that every member of `team` ends up with a task."""
        self.visit()
        order, parent = self.order, self.problem.parent
        # every robot in use is a member of `team` when `team` is not empty
        # (options hold members only), so this counts the members still idle
        if len(order) - i < len(team) - self.used:
            return False
        if i == self.n_composites and any(
            mine and chain_gaps(parent, {*self.lead[r], *mine}) for r, mine in self.taken.items()
        ):
            return False  # every composite is placed: each robot's must form one chain
        if i == len(order):
            return True
        t = order[i]
        fresh_tried = set()
        for r in options[t]:
            mine = self.taken[r]
            if not mine:
                if self.used >= cap or self.kind[r] in fresh_tried:
                    continue
                fresh_tried.add(self.kind[r])
            # a robot's chain may still miss a link that a later composite
            # fills: refuse only composites off one root path, judge chains above
            on_path = i >= self.n_composites or chain_gaps(parent, {*self.lead[r], *mine, t}) is not None
            if on_path and not parallel_conflict(self.problem.pairs, t, [*self.problem.held[r], *mine]):
                self.chosen[t] = r
                mine.append(t)
                self.used += len(mine) == 1
                if self.extend(i + 1, options, team, cap):
                    return True
                self.used -= len(mine) == 1
                mine.pop()
                del self.chosen[t]
        return False

    def forget(self) -> None:
        """Empty the assignment a successful search leaves behind."""
        self.chosen.clear()
        for mine in self.taken.values():
            mine.clear()
        self.used = 0


def solve(problem: Problem) -> list[tuple[str, str]] | None:
    """The preference-best feasible assignment of `problem.tasks` as
    (task, robot) pairs in `order` (composites first), or None if there is none.

    Best means the least key (team size, sorted team, assignee of each task in
    `order`): rules_engine.forming_key on the team, then the assignment vector.
    Depth-first searches capped at k distinct robots find the least team size
    k; teams of the candidate robots are then tried in forming_key order from
    k. Within a team a depth-first search over `order` takes each task's
    candidates in id order, so its first complete hit is the lexicographic
    optimum. Raises BudgetExhausted after `problem.budget` search nodes.
    """
    composites = [t for t in problem.tasks if t in problem.composites]
    order = composites + [t for t in problem.tasks if t not in problem.composites]
    eligible = problem.eligible
    if not all(eligible[t] for t in order):
        return None
    search = _Search(problem, order, len(composites))

    # one first-hit search proves feasibility, so an infeasible instance never
    # pays for the team enumeration; its team bounds the least size from above
    if not search.extend(0, eligible, set(), len(order)):
        return None
    upper = search.used
    search.forget()

    # each robot's composites form one parent-child path (the leadership
    # chain of `formation.norm_violation`), and a composite with no unfinished
    # composite child can only end such a path
    above = {problem.parent.get(t) for t in composites}
    size = max(1, sum(1 for t in composites if t not in above))
    # a search capped at `size` robots visits each partial assignment once,
    # where trying every team of that size would revisit it in each superset
    while size < upper and not search.extend(0, eligible, set(), size):
        size += 1
    search.forget()

    # a robot that is no task's candidate can hold nothing, so it is in no team
    pool = set().union(*(eligible[t] for t in order))
    for team in preferred_teams(pool, size):
        search.visit()
        members = set(team)
        options = {t: tuple(r for r in eligible[t] if r in members) for t in order}
        if all(options.values()) and search.extend(0, options, members, size):
            return [(t, search.chosen[t]) for t in order]
    return None  # unreachable: the capped search above found a team of `size`
