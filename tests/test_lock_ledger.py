"""The winner-lock ledger against the record scan it replaced.

Before `rules_engine.LockLedger`, the lock was answered by scanning every
locking win and, per win, every completion and revocation of its task:
`scan_locked` below is that scan. The ledger must agree with it on seeded
random lock/release sequences, and `formation.winner_locked` must agree with
it on every call the engine makes, with the scan fed from the notes of the
steps taken so far: the golden-trace scenarios, every pursuit fixture with
its leader failure, a team dissolution, and the 200 random churn scenarios
of the state-hash test.
"""

from __future__ import annotations

import json
import random

import pytest

from hwrom import formation as fm
from hwrom.rules_engine import LockLedger, winner_locked

from test_golden_traces import GOLDEN, scenario_config
from test_state_hash import PURSUIT_FIXTURES, random_scenario, run_logged

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


@pytest.fixture
def checked_calls(monkeypatch) -> list[bool]:
    """Check every `formation.winner_locked` call against the scan over the
    wins, completions and revocations that the notes of the run's steps so far
    record; the list holds each call's answer."""
    step, locked = fm.step, fm.winner_locked
    records: dict[int, tuple[LockLedger, list[Record], list[Record]]] = {}

    def runs_records(ledger: LockLedger) -> tuple[list[Record], list[Record]]:
        # keyed by id, and holding the ledger keeps that id unique
        _, wins, releases = records.setdefault(id(ledger), (ledger, [], []))
        return wins, releases

    def noting_step(state, event):
        result = step(state, event)
        wins, releases = runs_records(state.locks)
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
        assert not any(
            state.is_composite(task) for spans in state.locks.spans.values() for task, _, _ in spans
        )
        return result

    answers: list[bool] = []

    def checking_winner_locked(ledger, robot, at):
        got = locked(ledger, robot, at)
        assert got == scan_locked(*runs_records(ledger), robot, at), (robot, at)
        answers.append(got)
        return got

    monkeypatch.setattr(fm, "step", noting_step)
    monkeypatch.setattr(fm, "winner_locked", checking_winner_locked)
    return answers


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_engine_lock_matches_scan_on_golden_scenarios(name, checked_calls):
    run_logged(scenario_config(GOLDEN[name]))
    assert checked_calls


@pytest.mark.parametrize("path", PURSUIT_FIXTURES, ids=lambda p: p.stem)
def test_engine_lock_matches_scan_on_pursuit_fixtures(path, checked_calls):
    raw = json.loads(path.read_text())
    meta = raw.pop("meta", None)
    run_logged(raw)
    if meta is not None:
        run_logged(raw, fail=(meta["leader"], meta["leader_fail_tick"]))
    assert checked_calls


def test_member_of_a_dissolved_team_may_win_again(checked_calls, monkeypatch):
    """R2 leads c1 and R3 holds c1.1 when R2 fails; nobody left in c1 can
    lead, so the team dissolves and revokes c1.1. The revocation releases
    R3's lock, so R3 wins c1.1 again under R1. The timer of the first award
    (tick 35) is ignored: c1.1 takes its full 20 ticks from the second, which
    the revoked first award no longer delays."""
    organizer = [["Organization", "plan", 1], ["Communication", "radio", 1]]
    config = {
        "max_ticks": 120,
        "robots": [
            {"id": "R1", "capabilities": organizer},
            {"id": "R2", "capabilities": organizer},
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
    awards = []
    completions = []
    step = fm.step

    def noting_step(state, event):
        result = step(state, event)
        awards.extend((event.id_task, n["robot"]) for n in result.notes if n["kind"] == "award")
        completions.extend(
            (n["kind"], event.id_task, state.now) for n in result.notes if n["kind"].startswith("complet")
        )
        return result

    monkeypatch.setattr(fm, "step", noting_step)
    state = run_logged(config)
    assert state.phase is fm.Phase.DONE
    assert awards == [("T", "R1"), ("c1", "R2"), ("c1.1", "R3"), ("c1", "R1"), ("c1.1", "R3")]
    assert [c for c in completions if c[1] == "c1.1"] == [
        ("completion_ignored", "c1.1", 35),
        ("completed", "c1.1", 52),
    ]
    assert checked_calls


def test_engine_lock_matches_scan_on_random_churn(checked_calls):
    for seed in range(200):
        run_logged(random_scenario(seed))
    # both answers occur, over thousands of calls
    assert True in checked_calls and False in checked_calls
    assert len(checked_calls) > 5000
