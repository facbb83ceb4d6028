"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion report.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hwrom import config as cfg
from hwrom import eventlog
from hwrom import formation as fm
from hwrom import metrics as metrics_mod
from hwrom import org_core, simnet
from hwrom.market import Bid, select_winner
from hwrom.org_core import OrgNode, validate
from hwrom.rules_engine import (
    RULE_LEAST_REWARD,
    RULE_NO_PARALLEL,
    RULE_WINNER_LOCK,
    RuleSet,
)

from conftest import (
    brute_force_feasible,
    build_constraints,
    build_robots,
    build_task,
    make_instance,
    renumbered,
)
from test_golden_traces import GOLDEN, scenario_config
from test_state_hash import random_scenario

FIXTURES = Path(__file__).parent / "fixtures"
EXPECTED = json.loads((FIXTURES / "expected.json").read_text())
ROBUSTNESS_FIXTURES = sorted(p for p in FIXTURES.glob("pursuit_*.json"))

CORPUS_SIZE = 1000


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] {criterion}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _run_instance(spec: dict, until: int = 300, observe=None):
    state = fm.new_state(
        build_robots(spec),
        fm.EngineParams(
            cost_table={k: Fraction(v) for k, v in spec["costs"].items()},
            constraints=build_constraints(spec),
        ),
    )
    fm.register_task_tree(state, build_task(spec["task"]))
    sched = simnet.Scheduler(state, simnet.NetConfig(), record=_recorder(state, None, observe))
    sched.push_event(fm.TaskArrived(tick=0, id_task=spec["task"]["id"]))
    sched.run(
        until=until,
        stop_when=lambda s: s.phase in (fm.Phase.EXECUTING, fm.Phase.DONE, fm.Phase.FAILED),
    )
    return state, sched.trace


@pytest.fixture(scope="module")
def corpus():
    """1,000 randomized formation runs (at most 6 robots / 5 tasks each)."""
    runs = []
    t0 = time.perf_counter()
    for seed in range(CORPUS_SIZE):
        spec = make_instance(seed)
        state, trace = _run_instance(spec)
        runs.append((seed, spec, state, trace))
    elapsed = time.perf_counter() - t0
    return runs, elapsed


def _recorder(state: fm.FormationState, writer: eventlog.TraceWriter | None, observe):
    """The scheduler's record callback: write each record to `writer` and
    show it to `observe(state, record)` with the live state, when given."""

    def record(rec: dict) -> None:
        if writer is not None:
            writer.write(rec)
        if observe is not None:
            observe(state, rec)

    return record


def _run_fixture(
    path: Path, fail: tuple[str, int] | None = None, log_path: Path | None = None, observe=None
):
    raw = json.loads(path.read_text())
    raw.pop("meta", None)
    scenario = cfg.from_dict(raw)
    state = scenario.build_state()
    writer = eventlog.TraceWriter(log_path) if log_path else None
    sched = simnet.Scheduler(state, scenario.net, record=_recorder(state, writer, observe))
    if writer:
        writer.write(eventlog.header_record(scenario))
    scenario.schedule(sched)
    if fail is not None:
        sched.inject_failure(*fail)
    sched.run(
        until=scenario.max_ticks,
        stop_when=lambda s: s.phase in (fm.Phase.DONE, fm.Phase.FAILED),
    )
    if writer:
        final_hash = org_core.snapshot_hash(state.org)
        run_metrics = metrics_mod.compute_metrics(sched.trace, final_org_hash=final_hash)
        writer.write(eventlog.end_record(state, run_metrics.to_dict()))
        writer.close()
    return state, sched.trace


def _capture_tick(trace) -> int | None:
    tick = None
    for rec in trace:
        if rec.get("type") != "event":
            continue
        for note in rec["detail"]["notes"]:
            if note["kind"] == "captured":
                tick = note["tick"]
    return tick


def _note_kinds(trace) -> set[str]:
    return {
        n["kind"]
        for rec in trace
        if rec.get("type") == "event"
        for n in rec["detail"]["notes"]
    }


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
        tick = rec["tick"]
        for note in rec["detail"]["notes"]:
            if note["kind"] == "award" and not note["leadership"]:
                wins.append((tick, note["robot"], note["task"]))
            elif note["kind"] in ("completed", "revoked"):
                releases.append((tick, note["robot"], note["task"]))

    def locked(robot: str, at: int) -> bool:
        return any(
            won_by == robot
            and won <= at
            and not any(by == robot and t == task and won <= r <= at for r, by, t in releases)
            for won, won_by, task in wins
        )

    offenders = []
    for rec in trace:
        if rec.get("type") == "event" and rec.get("event") == "BidSubmitted":
            bid = rec["data"]["bid"]
            if locked(bid["bidder"], bid["sent_at"]):
                offenders.append(bid)
    return offenders


def test_criterion_4_winner_lock(corpus):
    runs, _ = corpus
    offenders = []
    n_bids = 0
    for seed, _, _, trace in runs:
        n_bids += sum(
            1 for r in trace if r.get("type") == "event" and r.get("event") == "BidSubmitted"
        )
        offenders.extend(_scan_locked_bids(trace))
    for path in ROBUSTNESS_FIXTURES:
        meta = json.loads(path.read_text())["meta"]
        for fail in (None, (meta["victim"], meta["fail_tick"])):
            _, trace = _run_fixture(path, fail=fail)
            offenders.extend(_scan_locked_bids(trace))
    _report("4 winner lock (post-hoc scan)", not offenders, f"{n_bids}+ bids scanned")


def test_criterion_5_rule_intersection_oracle():
    pool = [RULE_NO_PARALLEL, RULE_WINNER_LOCK, RULE_LEAST_REWARD]
    rng = random.Random(5)

    def tree(depth: int) -> OrgNode:
        if depth == 0 or rng.random() < 0.35:
            rules = frozenset(r for r in pool if rng.random() < 0.6)
            return OrgNode(
                id_ros=f"unit:{rng.random()}", id_robot="r", level_i=1, pos_j=0,
                rules=RuleSet(rules),
            )
        node = OrgNode(id_ros=f"team:{rng.random()}", id_robot="r", level_i=0, pos_j=0)
        node.children = [tree(depth - 1) for _ in range(rng.randint(1, 3))]
        return node

    mismatches = 0
    for _ in range(500):
        t = tree(rng.randint(0, 4))
        leaves = [n for n in t.walk() if n.is_leaf]
        acc = leaves[0].rules.rules
        for lf in leaves[1:]:
            acc &= lf.rules.rules
        if renumbered(t).rules.rules != acc:
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


def test_criterion_6_robustness_under_member_failure():
    assert len(ROBUSTNESS_FIXTURES) >= 20
    failures = []
    extra_ticks = {}
    for path in ROBUSTNESS_FIXTURES:
        raw = json.loads(path.read_text())
        meta = raw["meta"]
        expect = EXPECTED[path.stem]
        assert _post_failure_pursuit_feasible(raw, meta["victim"])
        state, trace = _run_fixture(path, fail=(meta["victim"], meta["fail_tick"]))
        captured = _capture_tick(trace)
        if state.phase is not fm.Phase.DONE or captured != expect["failure_capture"]:
            failures.append(path.stem)
        else:
            extra_ticks[path.stem] = captured - expect["baseline_capture"]
    detail = f"{len(ROBUSTNESS_FIXTURES)} fixtures, extra ticks {sorted(set(extra_ticks.values()))}"
    _report("6 robustness under non-leader failure", not failures, detail)


def test_criterion_7_leader_failure_reelection():
    failures = []
    for path in ROBUSTNESS_FIXTURES:
        raw = json.loads(path.read_text())
        meta = raw["meta"]
        expect = EXPECTED[path.stem]
        state, trace = _run_fixture(path, fail=(meta["leader"], meta["leader_fail_tick"]))
        kinds = _note_kinds(trace)
        ok = (
            state.phase is fm.Phase.DONE
            and "reelected" in kinds
            and _capture_tick(trace) == expect["leader_failure_capture"]
        )
        if not ok:
            failures.append(path.stem)
    _report(
        "7 leader failure recovery",
        not failures,
        f"{len(ROBUSTNESS_FIXTURES)} fixtures, re-election observed in each",
    )


class _TopologyScan:
    """An observer of live runs: checks every delivered message against the
    topology of the org at the moment it was sent."""

    def __init__(self) -> None:
        self.delivered = 0
        self.illegal: list[dict] = []

    def __call__(self, state: fm.FormationState, rec: dict) -> None:
        if rec["type"] == "net" and rec["outcome"] == "deliver":
            self.delivered += 1
            if not org_core.communication_allowed(state.org, rec["sender"], rec["to"]):
                self.illegal.append(rec)


def test_criterion_8_communication_topology(corpus):
    runs, _ = corpus
    scan = _TopologyScan()
    for _, spec, _, _ in runs[::10]:  # every 10th randomized run
        _run_instance(spec, observe=scan)
    for path in ROBUSTNESS_FIXTURES:
        meta = json.loads(path.read_text())["meta"]
        _run_fixture(path, fail=(meta["leader"], meta["leader_fail_tick"]), observe=scan)
    _report(
        "8 communication topology",
        scan.delivered > 0 and not scan.illegal,
        f"{scan.delivered} deliveries re-checked, 0 cross-team non-leader expected",
    )


def _hash_after_each_event(hashes: list[str]):
    """An observer that appends the state hash after every event to `hashes`,
    so two runs compare equal only if their hidden state matched throughout."""

    def observe(state: fm.FormationState, rec: dict) -> None:
        if rec["type"] == "event":
            hashes.append(fm.state_hash(state))

    return observe


def test_criterion_9_determinism_and_replay(tmp_path):
    paths = ROBUSTNESS_FIXTURES + [FIXTURES / "canonical_pursuit.json"]
    problems = []
    for path in paths:
        log_a = tmp_path / f"{path.stem}_a.jsonl"
        log_b = tmp_path / f"{path.stem}_b.jsonl"
        hashes_a: list[str] = []
        hashes_b: list[str] = []
        _run_fixture(path, log_path=log_a, observe=_hash_after_each_event(hashes_a))
        _run_fixture(path, log_path=log_b, observe=_hash_after_each_event(hashes_b))
        if log_a.read_bytes() != log_b.read_bytes() or hashes_a != hashes_b:
            problems.append((path.stem, "nondeterministic run"))
            continue
        outcome = eventlog.replay(log_a)
        if not outcome.ok:
            problems.append((path.stem, outcome.message))
    _report(
        "9 determinism and replay",
        not problems,
        f"{len(paths)} fixtures run twice and replayed",
    )


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


def _early_completions(config: dict, trace: list[dict]) -> list[tuple[str, int]]:
    """Atomic tasks that complete before their latest award or allocation
    tick plus their duration, as (task, tick)."""
    durations: dict[str, int] = {}
    stack = [config["task"]]
    while stack:
        node = stack.pop()
        if not node.get("subtasks"):
            durations[node["id"]] = max(int(node.get("duration", 1)), 1)
        stack.extend(node.get("subtasks", []))
        for alternative in node.get("alternatives", []):
            stack.extend(alternative)
    assigned_at: dict[str, int] = {}
    early = []
    for rec in trace:
        if rec["type"] != "event":
            continue
        for note in rec["detail"]["notes"]:
            task = note.get("task")
            if task not in durations:
                continue
            if note["kind"] in ("award", "allocated"):
                assigned_at[task] = rec["tick"]
            elif note["kind"] == "completed" and rec["tick"] < assigned_at[task] + durations[task]:
                early.append((task, rec["tick"]))
    return early


def test_completion_timers_belong_to_their_award():
    configs = [scenario_config(entry) for entry in GOLDEN.values() if "task" in entry.get("config", {})]
    configs += [random_scenario(seed) for seed in range(200)]
    early = []
    completed = 0
    for config in configs:
        trace: list[dict] = []
        eventlog.simulate(cfg.from_dict(config), trace.append)
        completed += sum(
            note["kind"] == "completed"
            for rec in trace
            if rec["type"] == "event"
            for note in rec["detail"]["notes"]
        )
        early.extend(_early_completions(config, trace))
    _report(
        "completion timers",
        completed > 0 and not early,
        f"{len(configs)} runs, {completed} completions, none before award + duration",
    )
