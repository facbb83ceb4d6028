"""Network and scheduler tests: routing law, determinism, drops, failures."""

import json
from fractions import Fraction

import pytest

from hwrom import config as cfg
from hwrom import formation as fm
from hwrom.org_core import CooperativeRobot, Organization, OrgNode
from hwrom.simnet import Deliver, Drop, NetConfig, Reject, Scheduler, UnknownRobotError, route
from hwrom.wire import ENV, Message

import corpus
from corpus import FIXTURES
from conftest import build_robots, build_task, cap, noted, notes, robot


def society() -> Organization:
    """R1 leads; team A = {R2 (leader), R3}; R4 a direct member."""
    team_a = OrgNode(id_ros="team:a", id_robot="R2", level_i=1, pos_j=1)
    team_a.children = [
        OrgNode(id_ros="unit:R2", id_robot="R2", level_i=2, pos_j=0),
        OrgNode(id_ros="unit:R3", id_robot="R3", level_i=2, pos_j=1),
    ]
    root = OrgNode(id_ros="team:T", id_robot="R1", level_i=0, pos_j=0)
    root.children = [
        OrgNode(id_ros="unit:R1", id_robot="R1", level_i=1, pos_j=0),
        team_a,
        OrgNode(id_ros="unit:R4", id_robot="R4", level_i=1, pos_j=2),
    ]
    return Organization(robots=[robot(r) for r in ("R1", "R2", "R3", "R4")], root=root)


def msg(sender, to, kind="announce", at=3) -> Message:
    return Message(sender, to, kind, None, at)


class TestRoute:
    def test_intra_team_delivers_after_latency(self):
        out = route(NetConfig(latency=1), msg("R3", "R2"), society())
        assert out == Deliver(at=4)

    def test_leader_to_leader_delivers(self):
        out = route(NetConfig(), msg("R1", "R2"), society())
        assert isinstance(out, Deliver)

    def test_member_to_foreign_member_rejected(self):
        out = route(NetConfig(), msg("R3", "R4"), society())
        assert out == Reject("CrossTeamViolation")

    def test_member_to_foreign_leader_rejected(self):
        out = route(NetConfig(), msg("R3", "R1"), society())
        assert out == Reject("CrossTeamViolation")

    def test_pool_robot_reachable(self):
        out = route(NetConfig(), msg("R1", "R9"), society())
        assert isinstance(out, Deliver)

    def test_env_bypasses_topology(self):
        assert isinstance(route(NetConfig(), msg(ENV, "R3"), society()), Deliver)

    def test_interface_mismatch_rejected(self):
        robots = {
            "R2": CooperativeRobot("R2", frozenset(), interface=frozenset({"bid"})),
            "R3": CooperativeRobot("R3", frozenset(), interface=frozenset({"announce", "bid"})),
        }
        out = route(NetConfig(), msg("R3", "R2", kind="announce"), society(), robots=robots)
        assert out == Reject("InterfaceMismatch")

    def test_drop_rate_one_drops_everything(self):
        out = route(NetConfig(drop_rate=Fraction(1)), msg("R3", "R2"), society())
        assert isinstance(out, Drop)

    def test_drop_decision_is_per_message_seq(self):
        net = NetConfig(drop_rate=Fraction(1, 2), seed=7)
        fates = [
            isinstance(route(net, msg("R3", "R2"), society(), msg_seq=i), Drop)
            for i in range(64)
        ]
        again = [
            isinstance(route(net, msg("R3", "R2"), society(), msg_seq=i), Drop)
            for i in range(64)
        ]
        assert fates == again
        assert any(fates) and not all(fates)


def fresh_scheduler(drop_rate=0, seed=0, spec=None, cls=Scheduler):
    spec = spec or {
        "robots": [
            {"id": "R1", "caps": [("Organization", "plan", 1), ("Communication", "radio", 1)]},
            {"id": "R2", "caps": [("Action", "weld", 1), ("Communication", "radio", 1)]},
        ],
        "task": {"id": "T", "reward": 20, "requires": [], "subtasks": [
            {"id": "t1", "reward": 10, "requires": [("Action", "weld", 1)], "subtasks": []},
        ]},
        "constraints": [],
        "costs": {},
    }
    state = fm.new_state(build_robots(spec), fm.EngineParams())
    fm.register_task_tree(state, build_task(spec["task"]))

    def hash_into(rec):
        # seal the post-transition state in each event record, so that traces
        # compare equal only when the hidden state matched at every event
        if rec["type"] == "event":
            rec["state_hash"] = fm.state_hash(state)

    sched = cls(state, NetConfig(drop_rate=Fraction(drop_rate), seed=seed), record=hash_into)
    sched.push_event(fm.TaskArrived(tick=0, id_task="T"))
    return state, sched


class TestScheduler:
    def test_empty_schedule_yields_only_ticks(self):
        state = fm.new_state([robot("R1")], fm.EngineParams())
        sched = Scheduler(state, NetConfig())
        trace = sched.run(until=10)
        events = [r for r in trace if r["type"] == "event"]
        assert len(events) == 10
        assert all(r["event"] == "Tick" for r in events)

    def test_same_seed_identical_traces(self):
        _, a = fresh_scheduler(drop_rate="1/3", seed=11)
        _, b = fresh_scheduler(drop_rate="1/3", seed=11)
        ta = a.run(until=40)
        tb = b.run(until=40)
        assert json.dumps(ta, sort_keys=True, default=str) == json.dumps(
            tb, sort_keys=True, default=str
        )

    def test_full_drop_rate_forces_timeout_path(self):
        state, sched = fresh_scheduler(drop_rate=1)
        trace = sched.run(until=60)
        assert noted(trace, "escalate"), "every announcement is dropped, auctions must time out"
        drops = [r for r in trace if r["type"] == "net" and r["outcome"] == "drop"]
        assert drops and not any(
            r["type"] == "net" and r["outcome"] == "deliver" for r in trace
        )

    def test_default_net_delivers_exactly_once_at_plus_one(self):
        state, sched = fresh_scheduler()
        trace = sched.run(until=30, stop_when=lambda s: s.phase is fm.Phase.DONE)
        delivered = [r for r in trace if r["type"] == "net" and r["outcome"] == "deliver"]
        assert delivered
        assert all(r["at"] == r["tick"] + 1 for r in delivered)

    def test_inject_failure_unknown_robot(self):
        _, sched = fresh_scheduler()
        with pytest.raises(UnknownRobotError):
            sched.inject_failure("R99", 5)

    def test_inject_failure_in_the_past(self):
        state, sched = fresh_scheduler()
        sched.run(until=10)
        with pytest.raises(ValueError):
            sched.inject_failure("R1", 2)

    def test_idle_pool_failure_no_reauction(self):
        spec = {
            "robots": [
                {"id": "R1", "caps": [("Organization", "plan", 1), ("Communication", "radio", 1)]},
                {"id": "R2", "caps": [("Action", "weld", 1), ("Communication", "radio", 1)]},
                {"id": "R9", "caps": [("Moving", "speed", 1)]},  # stays idle
            ],
            "task": {"id": "T", "reward": 20, "requires": [], "subtasks": [
                {"id": "t1", "reward": 10, "requires": [("Action", "weld", 1)], "subtasks": []},
            ]},
            "constraints": [],
            "costs": {},
        }
        state, sched = fresh_scheduler(spec=spec)
        sched.run(until=12, stop_when=lambda s: s.phase is fm.Phase.EXECUTING)
        announces_before = len(noted(sched.trace, "announce"))
        sched.inject_failure("R9", state.now + 1)
        sched.run(until=state.now + 6)
        assert len(noted(sched.trace, "announce")) == announces_before
        idle = [rec["data"]["robot"] for rec, _ in noted(sched.trace, "withdrew_idle")]
        assert idle and idle[0] == "R9"

    def test_failure_of_active_assignee_reannounces_once(self):
        spec = {
            "robots": [
                {"id": "R1", "caps": [("Organization", "plan", 1), ("Communication", "radio", 1)]},
                {"id": "R2", "caps": [("Action", "weld", 1), ("Communication", "radio", 1)]},
                {"id": "R5", "caps": [("Action", "weld", 1), ("Communication", "radio", 1)]},
            ],
            "task": {"id": "T", "reward": 20, "requires": [], "subtasks": [
                {"id": "t1", "reward": 10, "requires": [("Action", "weld", 1)],
                 "subtasks": [], "duration": 40},
            ]},
            "constraints": [],
            "costs": {("R2", "t1"): 1, ("R5", "t1"): 2},
        }
        state, sched = fresh_scheduler(spec=spec)
        sched.run(until=20, stop_when=lambda s: s.phase is fm.Phase.EXECUTING)
        assert state.org.assignments["t1"].assignee == "R2"
        fail_at = state.now + 1
        sched.inject_failure("R2", fail_at)
        sched.run(until=fail_at + 8)
        reannounces = [
            tick for tick, n in notes(sched.trace, "announce") if n["task"] == "t1" and tick > fail_at
        ]
        assert reannounces == [fail_at + 1]

    def test_event_records_carry_no_state_hash(self):
        state = fm.new_state([robot("R1")], fm.EngineParams())
        logged: list[dict] = []
        sched = Scheduler(state, NetConfig(), record=logged.append)
        sched.run(until=10)
        assert len(logged) == 10
        assert not any("state_hash" in r for r in logged)

    def test_joiner_interface_applies_to_later_messages(self):
        _, sched = fresh_scheduler()
        joiner = CooperativeRobot(
            "J1",
            frozenset({cap("Action", "weld", 2), cap("Communication", "radio")}),
            interface=frozenset({"bid"}),
        )
        sched.push_event(fm.RobotJoined(tick=1, robot=joiner))
        trace = sched.run(until=40)
        to_joiner = [r for r in trace if r["type"] == "net" and r["to"] == "J1" and r["kind"] == "announce"]
        assert to_joiner
        assert all(r["outcome"] == "reject" and r["reason"] == "InterfaceMismatch" for r in to_joiner)


class EagerTicks(Scheduler):
    """The reference: push every Tick through `until` before the first event."""

    def _reserve_ticks(self, until):
        for t in range(self._ticks_reserved + 1, until + 1):
            self.push_event(fm.Tick(tick=t))
        self._ticks_reserved = max(self._ticks_reserved, until)


def dumped(trace):
    return json.dumps(trace, sort_keys=True, default=str)


def without_seqs(trace):
    out = []
    for r in trace:
        if r["type"] == "event":
            r = {**r, "seq": None, "data": {**r["data"], "seq": None}}
        out.append(r)
    return out


class TestLazyTicks:
    def scheduler(self, cls=Scheduler):
        return fresh_scheduler(drop_rate="1/3", seed=11, cls=cls)[1]

    def test_resumed_run_equals_eager_and_single_run(self):
        resumed = self.scheduler()
        resumed.run(until=5)
        resumed.run(until=40)
        eager = self.scheduler(EagerTicks)
        eager.run(until=5)
        eager.run(until=40)
        assert dumped(resumed.trace) == dumped(eager.trace)
        # a second run() reserves its Ticks after the events the first one
        # queued, so only the seq numbers differ from one run(until=40)
        single = self.scheduler()
        single.run(until=40)
        assert dumped(without_seqs(resumed.trace)) == dumped(without_seqs(single.trace))

    def test_early_stop_keeps_eager_seqs(self):
        traces = []
        for cls in (Scheduler, EagerTicks):
            sched = self.scheduler(cls)
            sched.run(until=40, stop_when=lambda s: s.now >= 7)
            assert sched.state.now == 7
            sched.inject_failure("R2", 9)
            sched.run(until=40)
            traces.append(dumped(sched.trace))
        assert traces[0] == traces[1]

    def test_huge_max_ticks_holds_one_pending_tick(self, monkeypatch):
        raw = json.loads((FIXTURES / "canonical_pursuit.json").read_text())
        raw.pop("meta", None)
        raw["max_ticks"] = 10**6
        scenario = cfg.from_dict(raw)
        state = scenario.build_state()
        sched = Scheduler(state, scenario.net)
        scenario.schedule(sched)
        pending: list[int] = []
        step = fm.step

        def counting_step(st, event):
            pending.append(sum(isinstance(entry[4], fm.Tick) for entry in sched._heap))
            return step(st, event)

        monkeypatch.setattr(fm, "step", counting_step)
        trace = sched.run(until=scenario.max_ticks, stop_when=lambda s: s.phase is fm.Phase.DONE)
        captured = [n["tick"] for _, n in noted(trace, "captured")]
        expected = json.loads((FIXTURES / "expected.json").read_text())["canonical_pursuit"]
        assert state.phase is fm.Phase.DONE
        assert captured == [expected["capture_tick"]]
        assert pending and max(pending) <= 1


def sender_checked(name: str) -> bool:
    """The goldens, each pursuit fixture with no failure, its member failure
    and its leader failure, and `random_scenario(0..199)`."""
    return corpus.golden_or_pinned(name) or name.endswith("/member_failure")


@corpus.probe(covers=sender_checked)
def no_dead_sender(mp, run):
    """Note every message the run sends from a robot that is not alive."""
    send = Scheduler.send

    def checked_send(self, msg):
        run.seen["sender"] += 1
        if msg.sender != ENV and not self.state.alive(msg.sender):
            run.find("sender", self.state.now, f"{msg.kind} from {msg.sender} to {msg.to}")
        send(self, msg)

    mp.setattr(Scheduler, "send", checked_send)


def test_no_message_from_a_dead_sender(walk):
    """Every message comes from ENV or a live robot: each round, award and
    re-send of an auction speaks for the owning team's current leader, and a
    robot answers only an announcement it hears alive. Checked on every send
    of the shared walk's runs (`corpus.py`) that `sender_checked` names."""
    assert walk.assert_clean("sender", filter(sender_checked, walk))["sender"] > 10_000
