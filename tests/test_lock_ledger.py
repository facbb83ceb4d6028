"""The winner-lock ledger against the record scan it replaced.

Before `rules_engine.LockLedger`, the lock was answered by scanning every
locking win and, per win, every completion and revocation of its task:
`conftest.scan_locked` is that scan. The ledger must agree with it on seeded
random lock/release sequences, and `formation.winner_locked` must agree with
it on every call the engine makes, with the scan fed from the notes of the
steps taken so far. A probe checks every call of the shared walk's runs
(`corpus.py`): the golden-trace scenarios, every pursuit fixture with its
leader failure, and the 200 random churn scenarios; a team dissolution is
run here.
"""

from __future__ import annotations

import json
import random

import pytest

from hwrom import formation as fm
from hwrom.rules_engine import LockLedger, winner_locked

import corpus
from conftest import Record, noted, scan_locked
from corpus import GOLDEN, ORGANIZER, PURSUIT_FIXTURES, RANDOM_SEEDS

def test_ledger_matches_scan_on_random_sequences():
    rng = random.Random(5)
    robots, tasks = ["R1", "R2", "R3"], ["t1", "t2", "t3"]
    for _ in range(400):
        ledger = LockLedger()
        wins: list[Record] = []
        releases: list[Record] = []
        released_at: dict[tuple[str, str], int] = {}
        tick = 0
        for _ in range(rng.randint(1, 25)):
            tick += rng.choice((0, 0, 1, 2))
            robot, task = rng.choice(robots), rng.choice(tasks)
            if rng.random() < 0.5:
                # the engine announces a released task again on a later Tick
                # at the earliest, so no win follows its release within a tick
                if released_at.get((robot, task)) == tick:
                    continue
                ledger.lock(robot, task, tick)
                wins.append((tick, robot, task))
            else:
                ledger.release(robot, task, tick)
                releases.append((tick, robot, task))
                released_at[(robot, task)] = tick
        for robot in robots + ["R9"]:
            for at in range(-1, tick + 2):
                assert winner_locked(ledger, robot, at) == scan_locked(wins, releases, robot, at), (
                    wins, releases, robot, at
                )


@corpus.probe(covers=corpus.golden_or_pinned)
def lock_matches_scan(mp, run):
    """Check every `formation.winner_locked` call of the run against the scan
    over the wins, completions and revocations that the notes of its steps so
    far record, and that only atomic tasks lock; count each answer."""
    step, locked = fm.step, fm.winner_locked
    wins: list[Record] = []
    releases: list[Record] = []

    def noting_step(state, event):
        result = step(state, event)
        for note in result.notes:
            # an award names its task, and a completion its task and robot,
            # only through the step's event
            if note["kind"] == "award" and not note["leadership"]:
                wins.append((state.now, note["robot"], event.id_task))
            elif note["kind"] == "completed":
                releases.append((state.now, event.robot, event.id_task))
            elif note["kind"] == "revoked":
                releases.append((state.now, note["robot"], note["task"]))
        # only atomic tasks lock
        locked_tasks = [task for spans in state.locks.spans.values() for task, _, _ in spans]
        if any(map(state.is_composite, locked_tasks)):
            run.find("lock", state.now, f"a composite task locks: {locked_tasks}")
        return result

    def checking_winner_locked(ledger, robot, at):
        got = locked(ledger, robot, at)
        want = scan_locked(wins, releases, robot, at)
        if got != want:
            run.find("lock", at, f"winner_locked({robot!r}) is {got}, the scan says {want}")
        run.seen[f"lock {got}"] += 1
        run.seen["lock"] += 1
        return got

    mp.setattr(fm, "step", noting_step)
    mp.setattr(fm, "winner_locked", checking_winner_locked)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_engine_lock_matches_scan_on_golden_scenarios(name, walk):
    assert walk.assert_clean("lock", [f"golden/{name}"])["lock"]


@pytest.mark.parametrize("path", PURSUIT_FIXTURES, ids=lambda p: p.stem)
def test_engine_lock_matches_scan_on_pursuit_fixtures(path, walk):
    runs = [name for name, _ in corpus.pursuit_runs(path) if corpus.golden_or_pinned(name)]
    assert walk.assert_clean("lock", runs)["lock"]


def test_member_of_a_dissolved_team_may_win_again():
    """R2 leads c1 and R3 holds c1.1 when R2 fails; nobody left in c1 can
    lead, so the team dissolves and revokes c1.1. The revocation releases
    R3's lock, so R3 wins c1.1 again under R1. The timer of the first award
    (tick 35) is ignored: c1.1 takes its full 20 ticks from the second, which
    the revoked first award no longer delays."""
    config = {
        "max_ticks": 120,
        "robots": [
            {"id": "R1", "capabilities": ORGANIZER},
            {"id": "R2", "capabilities": ORGANIZER},
            {"id": "R3", "capabilities": [["Action", "weld", 1]]},
        ],
        "task": {"id": "T", "reward": 60, "subtasks": [
            {"id": "c1", "reward": 30, "subtasks": [
                {"id": "c1.1", "reward": 10, "requires": [["Action", "weld", 1]], "duration": 20}
            ]},
        ]},
        "costs": {"R1": {"c1": 5}},
        "events": [{"at": 22, "type": "fail", "robot": "R2"}],
    }
    walk = corpus.walk({"dissolution": config}, [(lambda name: True, lock_matches_scan)])
    records = list(map(json.loads, walk.run("dissolution").lines))
    assert walk.run("dissolution").state.phase is fm.Phase.DONE
    awards = [(rec["data"]["id_task"], note["robot"]) for rec, note in noted(records, "award")]
    assert awards == [("T", "R1"), ("c1", "R2"), ("c1.1", "R3"), ("c1", "R1"), ("c1.1", "R3")]
    completions = noted(records, "completion_ignored", "completed")
    assert [(n["kind"], rec["tick"]) for rec, n in completions if rec["data"]["id_task"] == "c1.1"] == [
        ("completion_ignored", 35),
        ("completed", 52),
    ]
    assert walk.assert_clean("lock", ["dissolution"])["lock"]


def test_engine_lock_matches_scan_on_random_churn(walk):
    runs = [f"random_scenario/{seed}" for seed in RANDOM_SEEDS]
    answers = walk.assert_clean("lock", runs)
    # both answers occur, over thousands of calls
    assert answers["lock True"] and answers["lock False"] and answers["lock"] > 5000
