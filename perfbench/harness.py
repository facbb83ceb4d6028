"""One pass over a workload through the calls `hwrom run` and `hwrom replay` make.

Per scenario: `config.from_dict` -> `build_state` -> `Scheduler` ->
`schedule` (set-up), then the log header, `Scheduler.run`,
`metrics.compute_metrics` and the end record through `eventlog.TraceWriter`
(run), then `eventlog.replay` for logged scenarios (replay). Every output is
checked; the checks and the digest run outside the timed regions.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

from hwrom import config, eventlog, formation, metrics, org_core, pursuit, simnet

from tracer import Tracer
from workloads import Scenario, Workload

# Bound before any tracer wraps it: the digest is not engine work.
_final_state_hash = formation.state_hash

EVENT_TYPES = (
    "TaskArrived",
    "BidSubmitted",
    "AuctionClosed",
    "TaskCompleted",
    "RobotWithdrew",
    "RobotFailed",
    "RobotJoined",
    "Tick",
)


def _finished(state: formation.FormationState) -> bool:
    return state.phase in (formation.Phase.DONE, formation.Phase.FAILED)


@dataclass
class ScenarioResult:
    setup_s: float
    run_s: float
    replay_s: float
    log_bytes: int
    final_hash: str
    counts: dict[str, int]
    tasks_auctioned: int
    problem: str | None  # the first output check that failed

    @property
    def total_s(self) -> float:
        return self.setup_s + self.run_s + self.replay_s


def set_up(
    scenario: Scenario, writer: eventlog.TraceWriter | None
) -> tuple[config.ScenarioConfig, formation.FormationState, simnet.Scheduler]:
    """Everything `hwrom run` does before the first event."""
    parsed = config.from_dict(scenario.config)
    state = parsed.build_state()
    scheduler = simnet.Scheduler(
        state, parsed.net, record=writer.write if writer else None, hash_states=writer is not None
    )
    parsed.schedule(scheduler)
    return parsed, state, scheduler


def run_scenario(scenario: Scenario, log_path: Path, tracer: Tracer | None) -> ScenarioResult:
    t0 = time.perf_counter()
    writer = eventlog.TraceWriter(log_path) if scenario.logged else None
    try:
        t1 = time.perf_counter()
        parsed, state, scheduler = set_up(scenario, writer)
        t2 = time.perf_counter()
        # schedule() writes nothing, so the header still leads the log
        if writer:
            writer.write(eventlog.header_record(parsed))
        scheduler.run(until=parsed.max_ticks, stop_when=_finished)
        final_org_hash = org_core.snapshot_hash(state.org)
        run_metrics = metrics.compute_metrics(scheduler.trace, final_org_hash=final_org_hash)
        if writer:
            writer.write(eventlog.end_record(state, run_metrics.to_dict()))
    finally:
        if writer:
            writer.close()
    t3 = time.perf_counter()
    replay_ok = True
    if writer:
        if tracer is not None:
            tracer.replaying = True
        try:
            replay_ok = eventlog.replay(log_path).ok
        finally:
            if tracer is not None:
                tracer.replaying = False
    t4 = time.perf_counter()

    log_bytes = 0
    if writer:
        log_bytes = log_path.stat().st_size
        log_path.unlink()
    notes = [
        note
        for rec in scheduler.trace
        if rec["type"] == "event"
        for note in rec["detail"]["notes"]
    ]
    counts = {
        "records": len(scheduler.trace),
        "messages": run_metrics.messages_sent,
        "drops": run_metrics.messages_dropped,
        "rejects": run_metrics.messages_rejected,
        "formation_rounds": run_metrics.formation_rounds,
        "re_auctions": run_metrics.re_auctions,
        "replan_calls": sum(note["kind"] == "give_up" for note in notes),
        "reelections": run_metrics.reelections,
    }
    return ScenarioResult(
        setup_s=t2 - t1,
        run_s=(t1 - t0) + (t3 - t2),
        replay_s=t4 - t3 if writer else 0.0,
        log_bytes=log_bytes,
        final_hash=_final_state_hash(state),
        counts=counts,
        tasks_auctioned=len({note["task"] for note in notes if note["kind"] == "announce"}),
        problem=_check(scenario, state, run_metrics, replay_ok),
    )


def _check(
    scenario: Scenario,
    state: formation.FormationState,
    run_metrics: metrics.RunMetrics,
    replay_ok: bool,
) -> str | None:
    if not _finished(state):
        return f"still {state.phase.value} at max_ticks"
    if scenario.expect_done and state.phase is not formation.Phase.DONE:
        return f"ended {state.phase.value}, expected Done"
    if not replay_ok:
        return "log does not replay clean"
    if state.phase is formation.Phase.DONE and not org_core.validate(state.org).ok:
        return "Done org fails validate()"
    if scenario.expected_capture is not None:
        captured = max(run_metrics.capture_ticks.values(), default=None)
        if captured != scenario.expected_capture:
            return f"capture tick {captured}, expected {scenario.expected_capture}"
    return None


@dataclass
class PassResult:
    results: list[ScenarioResult]
    digest: str
    layers: dict[str, list[int]] | None = None  # traced passes only
    outcomes: dict[str, int] | None = None

    def total(self, attr: str) -> float:
        return sum(getattr(r, attr) for r in self.results)

    def count(self, key: str) -> int:
        return sum(r.counts[key] for r in self.results)


def run_pass(workload: Workload, log_path: Path, tracer: Tracer | None) -> PassResult:
    results = [run_scenario(s, log_path, tracer) for s in workload.scenarios]
    digest = hashlib.sha256()
    for scenario, result in zip(workload.scenarios, results):
        digest.update(f"{scenario.name}:{result.final_hash}:{result.counts['records']}\n".encode())
    out = PassResult(results, digest.hexdigest())
    if tracer is not None:
        out.layers = tracer.drain()
        out.outcomes = dict(tracer.counts)
        tracer.counts.clear()
    return out


def mean_of(passes: list[PassResult]) -> PassResult:
    """One sample from consecutive passes: each scenario's times averaged.

    A shared host's speed can swing by tens of percent within seconds; a
    median over single short passes jumps with whichever speed held most of
    them, a median over samples of several seconds jumps far less."""
    n = len(passes)
    results = [
        replace(
            first,
            setup_s=sum(p.results[i].setup_s for p in passes) / n,
            run_s=sum(p.results[i].run_s for p in passes) / n,
            replay_s=sum(p.results[i].replay_s for p in passes) / n,
        )
        for i, first in enumerate(passes[0].results)
    ]
    return PassResult(results, passes[0].digest)


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics name."""
    counts = tracer.counts

    def on_route(args, outcome, ns):
        counts[f"route.{type(outcome).__name__}"] += 1

    def on_announcement(args, decision, ns):
        counts["announcements"] += 1
        counts["bids"] += type(decision).__name__ == "Bid"

    def on_step(args, result, ns):
        kinds = {note["kind"] for note in result.notes}
        if tracer.replaying or "give_up" not in kinds:
            return
        counts["replan.calls"] += 1
        counts["replan.ns"] += ns
        counts["replan.ok"] += "formation_failed" not in kinds

    def in_replay(name):
        return lambda args: f"replay.{name}" if tracer.replaying else f"formation.{name}"

    def step_name(args):
        return "replay.step" if tracer.replaying else f"formation.step.{type(args[1]).__name__}"

    wrap = tracer.wrap
    wrap(simnet.Scheduler, "run", "simnet.scheduler")
    wrap(simnet, "route", "simnet.route", on_route)
    wrap(org_core, "communication_allowed", "org_core.communication_allowed")
    wrap(formation, "step", step_name, on_step)
    wrap(formation, "consider_announcement", "formation.consider_announcement", on_announcement)
    wrap(formation, "compute_bid", "formation.compute_bid")
    wrap(formation, "check_assignment", "formation.check_assignment")
    wrap(formation, "state_hash", in_replay("state_hash"))
    for fn in ("tick_world", "sense", "plan_pursuit"):
        wrap(pursuit, fn, f"pursuit.{fn}")
    wrap(eventlog.TraceWriter, "write", "eventlog.write")
    wrap(eventlog, "replay", "replay")
    wrap(eventlog, "read_log", "replay.read_log")
    wrap(metrics, "compute_metrics", "metrics.compute_metrics")
    wrap(config, "from_dict", "config.from_dict")
    wrap(config.ScenarioConfig, "build_state", "config.build_state")


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(p: PassResult) -> dict[str, tuple[float, str]]:
    """The per-layer figures of one traced pass: {name: (value, unit)}."""
    layers, outcomes = p.layers or {}, p.outcomes or {}
    out: dict[str, tuple[float, str]] = {}

    def span(name: str, *fields: str) -> None:
        calls, total_ns, self_ns = layers.get(name, (0, 0, 0))
        values = {"calls": (calls, "count"), "s": (total_ns / 1e9, "s"), "self_s": (self_ns / 1e9, "s")}
        for f in fields:
            out[f"{name}.{f}"] = values[f]

    span("simnet.route", "calls", "s", "self_s")
    span("org_core.communication_allowed", "calls", "s")
    span("simnet.scheduler", "self_s")
    routed = sum(v for k, v in outcomes.items() if k.startswith("route."))
    for outcome, label in (("Deliver", "deliver"), ("Drop", "drop"), ("Reject", "reject")):
        out[f"simnet.{label}_share"] = (_share(outcomes.get(f"route.{outcome}", 0), routed), "ratio")
    for event_type in EVENT_TYPES:
        span(f"formation.step.{event_type}", "calls", "s", "self_s")
    span("formation.consider_announcement", "calls", "s")
    span("formation.compute_bid", "s")
    out["market.bid_share"] = (_share(outcomes.get("bids", 0), outcomes.get("announcements", 0)), "ratio")
    span("formation.check_assignment", "calls", "s")
    out["formation.replan.calls"] = (outcomes.get("replan.calls", 0), "count")
    out["formation.replan.s"] = (outcomes.get("replan.ns", 0) / 1e9, "s")
    out["formation.replan.success_share"] = (
        _share(outcomes.get("replan.ok", 0), outcomes.get("replan.calls", 0)),
        "ratio",
    )
    span("formation.state_hash", "calls", "s")
    span("replay.state_hash", "calls", "s")
    span("replay.step", "s")
    span("eventlog.write", "calls", "s")
    out["eventlog.write.bytes"] = (p.total("log_bytes"), "bytes")
    span("replay.read_log", "s")
    for fn in ("tick_world", "sense", "plan_pursuit"):
        span(f"pursuit.{fn}", "calls", "s")
    span("config.from_dict", "calls", "s")
    span("config.build_state", "s")
    span("metrics.compute_metrics", "s")
    out["formation.auction_rounds_per_task"] = (
        _share(p.count("formation_rounds"), p.total("tasks_auctioned")),
        "rounds/task",
    )
    return out


def top_self_layer(p: PassResult) -> tuple[str, float]:
    name, (_, _, self_ns) = max((p.layers or {}).items(), key=lambda kv: kv[1][2])
    return name, self_ns / 1e9


def scenario_percentiles(samples: list[PassResult]) -> tuple[float, float, int]:
    """p50 and p90 over the workload's scenarios of each scenario's median
    time (set-up + run + replay) across samples, and the scenario count."""
    per_scenario = [
        statistics.median(p.results[i].total_s for p in samples) for i in range(len(samples[0].results))
    ]
    if len(per_scenario) == 1:
        return per_scenario[0], per_scenario[0], 1
    deciles = statistics.quantiles(per_scenario, n=10, method="inclusive")
    return statistics.median(per_scenario), deciles[8], len(per_scenario)
