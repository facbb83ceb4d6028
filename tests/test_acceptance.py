"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion report.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from hwrom import config as cfg
from hwrom import formation as fm
from hwrom import org_core, simnet
from hwrom.market import Bid, select_winner
from hwrom.org_core import OrgNode, canonical_json, validate
from hwrom.rules_engine import (
    RULE_LEAST_REWARD,
    RULE_NO_PARALLEL,
    RULE_WINNER_LOCK,
)

from conftest import brute_force_feasible, make_instance, noted, renumbered, run_scenario, scan_locked
from corpus import FIXTURES, GOLDEN, probe, walk_runs

EXPECTED = json.loads((FIXTURES / "expected.json").read_text())
ROBUSTNESS_FIXTURES = sorted(p for p in FIXTURES.glob("pursuit_*.json"))

CORPUS_SIZE = 1000


def _report(criterion: str, ok: bool, detail: str = "", problems: list = ()) -> None:
    """Print the criterion's PASS or FAIL line and fail on FAIL: `ok` false,
    or any of `problems`, the first of which the line shows."""
    ok = ok and not problems
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] {criterion}: {status}"
    if detail:
        line += f" ({detail})"
    if problems:
        line += f"; {len(problems)} problems, the first: {problems[0]}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus():
    """1,000 randomized formation runs (at most 6 robots / 5 tasks each)."""
    runs = []
    t0 = time.perf_counter()
    for seed in range(CORPUS_SIZE):
        spec = make_instance(seed)
        state, trace = run_scenario(spec, until=300, stop_at_formed=True)
        runs.append((seed, spec, state, trace))
    elapsed = time.perf_counter() - t0
    return runs, elapsed


def _run_fixture(path: Path, observe=None):
    """Run a pursuit fixture with no failure, showing each record to
    `observe(state, record)` with the live state, when given."""
    raw = json.loads(path.read_text())
    raw.pop("meta", None)
    scenario = cfg.from_dict(raw)
    state = scenario.build_state()
    record = observe and (lambda rec: observe(state, rec))
    sched = simnet.Scheduler(state, scenario.net, record=record)
    scenario.schedule(sched)
    sched.run(
        until=scenario.max_ticks,
        stop_when=lambda s: s.phase in (fm.Phase.DONE, fm.Phase.FAILED),
    )
    return state, sched.trace


def _capture_tick(trace) -> int | None:
    ticks = [note["tick"] for _, note in noted(trace, "captured")]
    return ticks[-1] if ticks else None


def test_criterion_1_structural_validity_closure(corpus):
    runs, elapsed = corpus
    successes = 0
    bad = []
    for seed, spec, state, _ in runs:
        if state.phase in (fm.Phase.EXECUTING, fm.Phase.DONE):
            successes += 1
            report = validate(state.org)
            if not report.ok:
                bad.append((seed, report.codes()))
    _report(
        "1 structural validity closure",
        not bad and elapsed < 10.0,
        f"{successes}/{len(runs)} formed, 0 violations expected, got {len(bad)}; {elapsed:.2f}s",
    )


def test_criterion_2_feasibility_oracle_agreement(corpus):
    runs, _ = corpus
    disagreements = []
    for seed, spec, state, _ in runs:
        formed = state.phase in (fm.Phase.EXECUTING, fm.Phase.DONE)
        feasible = brute_force_feasible(spec)
        if formed != feasible:
            disagreements.append((seed, formed, feasible))
    _report(
        "2 feasibility oracle agreement",
        not disagreements,
        f"{len(runs)} instances, {len(disagreements)} disagreements",
    )


def test_criterion_3_auction_oracle():
    prices = [Fraction(p) for p in (1, 2, 3, 4, 5)]
    checked = 0
    for n in range(0, 7):
        ids = [f"R{i}" for i in range(1, n + 1)]
        for combo in itertools.product(prices, repeat=n):
            bids = [Bid(r, "t", p, Fraction(0)) for r, p in zip(ids, combo)]
            expect = min(bids, key=lambda b: (b.price, b.bidder)).bidder if bids else None
            assert select_winner(bids) == expect
            checked += 1
    _report("3 auction oracle (argmin price, id)", True, f"{checked} bid lists")


def _scan_locked_bids(trace) -> list[dict]:
    """Bids sent while the bidder was winner-locked, by a scan of the trace's
    records: a non-leadership award at tick t locks its winner from t on,
    until a completion or revocation of that task at a tick r >= t."""
    wins: list[tuple[int, str, str]] = []
    releases: list[tuple[int, str, str]] = []
    for rec in trace:
        if rec.get("type") != "event":
            continue
        tick, data = rec["tick"], rec["data"]
        for note in rec["detail"]["notes"]:
            if note["kind"] == "award" and not note["leadership"]:
                wins.append((tick, note["robot"], data["id_task"]))
            elif note["kind"] == "completed":
                releases.append((tick, data["robot"], data["id_task"]))
            elif note["kind"] == "revoked":
                releases.append((tick, note["robot"], note["task"]))

    return [
        rec["data"]["bid"]
        for rec in trace
        if rec.get("event") == "BidSubmitted"
        and scan_locked(wins, releases, rec["data"]["bid"]["bidder"], rec["data"]["bid"]["sent_at"])
    ]


def _trace(run) -> list[dict]:
    return list(map(json.loads, run.lines))


def test_criterion_4_winner_lock(corpus, walk):
    runs, _ = corpus
    offenders = []
    n_bids = 0
    for seed, _, _, trace in runs:
        n_bids += sum(r.get("event") == "BidSubmitted" for r in trace)
        offenders += [(f"instance {seed}", bid) for bid in _scan_locked_bids(trace)]
    for path in ROBUSTNESS_FIXTURES:
        for name in (path.stem, f"{path.stem}/member_failure"):
            offenders += [(name, bid) for bid in _scan_locked_bids(_trace(walk.run(name)))]
    _report("4 winner lock (post-hoc scan)", True, f"{n_bids}+ bids scanned", offenders)


def test_criterion_5_rule_intersection_oracle():
    pool = [RULE_NO_PARALLEL, RULE_WINNER_LOCK, RULE_LEAST_REWARD]
    rng = random.Random(5)

    def tree(depth: int) -> OrgNode:
        if depth == 0 or rng.random() < 0.35:
            rules = frozenset(r for r in pool if rng.random() < 0.6)
            return OrgNode(
                id_ros=f"unit:{rng.random()}", id_robot="r", level_i=1, pos_j=0,
                rules=rules,
            )
        node = OrgNode(id_ros=f"team:{rng.random()}", id_robot="r", level_i=0, pos_j=0)
        node.children = [tree(depth - 1) for _ in range(rng.randint(1, 3))]
        return node

    mismatches = 0
    for _ in range(500):
        t = tree(rng.randint(0, 4))
        leaves = [n for n in t.walk() if n.is_leaf]
        acc = leaves[0].rules
        for lf in leaves[1:]:
            acc &= lf.rules
        if renumbered(t).rules != acc:
            mismatches += 1
    _report("5 rule intersection oracle", mismatches == 0, "500 random trees, depth <= 4")


def _post_failure_pursuit_feasible(raw: dict, victim: str) -> bool:
    """Survivors must still be able to staff the surround plan and leadership."""
    survivors = [r for r in raw["robots"] if r["id"] != victim]
    evader_speed = raw["pursuit"]["evaders"][0].get("speed", 1)
    k = raw["pursuit"].get("k", 4)
    synthetic = {
        "robots": [
            {"id": r["id"], "caps": [tuple(c) for c in r["capabilities"]]} for r in survivors
        ],
        "task": {
            "id": "capture",
            "reward": 20,
            "requires": [],
            "subtasks": [
                {
                    "id": f"sg{i}",
                    "reward": 5,
                    "requires": [("Moving", "speed", evader_speed)],
                    "subtasks": [],
                }
                for i in range(k)
            ],
        },
        "constraints": [],
        "costs": {},
    }
    return brute_force_feasible(synthetic)


def test_criterion_6_robustness_under_member_failure(walk):
    assert len(ROBUSTNESS_FIXTURES) >= 20
    failures = []
    extra_ticks = {}
    for path in ROBUSTNESS_FIXTURES:
        raw = json.loads(path.read_text())
        expect = EXPECTED[path.stem]
        assert _post_failure_pursuit_feasible(raw, raw["meta"]["victim"])
        run = walk.run(f"{path.stem}/member_failure")
        captured = _capture_tick(_trace(run))
        if run.state.phase is not fm.Phase.DONE or captured != expect["failure_capture"]:
            failures.append((run.name, run.state.phase.value, captured))
        else:
            extra_ticks[path.stem] = captured - expect["baseline_capture"]
    detail = f"{len(ROBUSTNESS_FIXTURES)} fixtures, extra ticks {sorted(set(extra_ticks.values()))}"
    _report("6 robustness under non-leader failure", True, detail, failures)


def test_criterion_7_leader_failure_reelection(walk):
    failures = []
    for path in ROBUSTNESS_FIXTURES:
        run = walk.run(f"{path.stem}/leader_failure")
        ok = (
            run.state.phase is fm.Phase.DONE
            and "reelected" in run.notes
            and _capture_tick(_trace(run)) == EXPECTED[path.stem]["leader_failure_capture"]
        )
        if not ok:
            failures.append((run.name, run.state.phase.value, _capture_tick(_trace(run))))
    _report(
        "7 leader failure recovery",
        True,
        f"{len(ROBUSTNESS_FIXTURES)} fixtures, re-election observed in each",
        failures,
    )


class _TopologyScan:
    """An observer of live runs: checks every delivered message against the
    topology of the org at the moment it was sent."""

    def __init__(self) -> None:
        self.delivered = 0
        self.run = ""  # the name of the run being observed
        self.illegal: list[tuple[str, dict]] = []

    def __call__(self, state: fm.FormationState, rec: dict) -> None:
        if rec["type"] == "net" and rec["outcome"] == "deliver":
            self.delivered += 1
            if not org_core.communication_allowed(state.org, rec["sender"], rec["to"]):
                self.illegal.append((self.run, rec))


#: every pursuit run of the shared walk, by name, in walk order
PURSUIT_RUNS = [name for name, config in walk_runs().items() if "pursuit" in config]


@probe(covers=lambda name: name in PURSUIT_RUNS)
def topology(mp, run):
    """Check every delivery of the run against the topology of the org at
    the moment it is sent."""
    route = simnet.route

    def checked_route(net, msg, org, **kw):
        outcome = route(net, msg, org, **kw)
        if isinstance(outcome, simnet.Deliver):
            run.seen["topology"] += 1
            if not org_core.communication_allowed(org, msg.sender, msg.to):
                run.find("topology", msg.sent_at, f"{msg.kind} from {msg.sender} to {msg.to} delivered")
        return outcome

    mp.setattr(simnet, "route", checked_route)


def test_criterion_8_communication_topology(corpus, walk):
    runs, _ = corpus
    scan = _TopologyScan()
    for seed, spec, _, _ in runs[::10]:  # every 10th randomized run
        scan.run = f"instance {seed}"
        run_scenario(spec, until=300, stop_at_formed=True, observe=scan)
    delivered = walk.assert_clean("topology", PURSUIT_RUNS)["topology"]
    _report(
        "8 communication topology",
        scan.delivered > 0 and delivered > 0,
        f"{scan.delivered + delivered} deliveries re-checked, 0 cross-team non-leader expected",
        scan.illegal,
    )


def _hash_after_each_event(hashes: list[str]):
    """An observer that appends the state hash after every event to `hashes`,
    so two runs compare equal only if their hidden state matched throughout."""

    def observe(state: fm.FormationState, rec: dict) -> None:
        if rec["type"] == "event":
            hashes.append(fm.state_hash(state))

    return observe


def test_criterion_9_determinism_and_replay(walk):
    """Each fixture runs twice here, with the state hash taken after every
    event: both runs must emit the shared walk's log body, whose log must
    replay."""
    paths = ROBUSTNESS_FIXTURES + [FIXTURES / "canonical_pursuit.json"]
    problems = []
    for path in paths:
        hashes_a: list[str] = []
        hashes_b: list[str] = []
        _, trace_a = _run_fixture(path, observe=_hash_after_each_event(hashes_a))
        _, trace_b = _run_fixture(path, observe=_hash_after_each_event(hashes_b))
        run = walk.run(path.stem)
        if trace_a != trace_b:
            problems.append((path.stem, "the two runs' records differ"))
        elif hashes_a != hashes_b:
            problems.append((path.stem, "the two runs' state hashes differ"))
        elif run.lines[1:-1] != list(map(canonical_json, trace_a)):
            problems.append((path.stem, "the runs' records differ from the walk's log"))
        elif not run.replayed.ok:
            problems.append((path.stem, run.replayed.message))
    _report("9 determinism and replay", True, f"{len(paths)} fixtures run twice and replayed", problems)


def test_criterion_10_canonical_pursuit_fixture():
    expected = EXPECTED["canonical_pursuit"]["capture_tick"]
    t0 = time.perf_counter()
    state, trace = _run_fixture(FIXTURES / "canonical_pursuit.json")
    elapsed = time.perf_counter() - t0
    captured = _capture_tick(trace)
    _report(
        "10 canonical pursuit fixture",
        state.phase is fm.Phase.DONE and captured == expected and elapsed < 1.0,
        f"capture at tick {captured} (expected {expected}), {elapsed * 1000:.0f}ms",
    )


def _early_completions(config: dict, trace: list[dict]) -> tuple[list[tuple[str, int]], Counter]:
    """Atomic tasks that complete before their latest award or allocation
    tick plus their duration, as (task, tick), and the count of award,
    allocation and completion notes of atomic tasks that were checked. An
    award or completion note's task is its event's `id_task`; an
    allocation names its own."""
    durations: dict[str, int] = {}
    stack = [config["task"]]
    while stack:
        node = stack.pop()
        if not node.get("subtasks"):
            durations[node["id"]] = int(node.get("duration", 1))
        stack.extend(node.get("subtasks", []))
        for alternative in node.get("alternatives", []):
            stack.extend(alternative)
    assigned_at: dict[str, int] = {}
    early = []
    checked: Counter = Counter()
    for rec in trace:
        if rec["type"] != "event":
            continue
        for note in rec["detail"]["notes"]:
            if note["kind"] == "allocated":
                task = note["task"]
            elif note["kind"] in ("award", "completed"):
                task = rec["data"]["id_task"]
            else:
                continue
            if task not in durations:
                continue
            checked[note["kind"]] += 1
            if note["kind"] != "completed":
                assigned_at[task] = rec["tick"]
            elif rec["tick"] < assigned_at[task] + durations[task]:
                early.append((task, rec["tick"]))
    return early, checked


def test_completion_timers_belong_to_their_award(walk):
    runs = [f"golden/{name}" for name, entry in GOLDEN.items() if "task" in entry.get("config", {})]
    runs += [f"random_scenario/{seed}" for seed in range(200)]
    early = []
    checked: Counter = Counter()
    for name in runs:
        run_early, run_checked = _early_completions(walk.run(name).config, _trace(walk.run(name)))
        early += [(name, *completion) for completion in run_early]
        checked += run_checked
    _report(
        "completion timers",
        checked["award"] > 0 and checked["allocated"] > 0 and checked["completed"] > 0,
        f"{len(runs)} runs, {checked['completed']} completions of {checked['award']} awards and "
        f"{checked['allocated']} allocations, none before award + duration",
        [(name, f"{task} completed at {tick}") for name, task, tick in early],
    )
