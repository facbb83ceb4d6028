"""Run metrics, recomputable from the trace alone."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RunMetrics:
    formation_rounds: int = 0
    re_auctions: int = 0
    messages_sent: int = 0
    messages_dropped: int = 0
    messages_rejected: int = 0
    failures_handled: int = 0
    reelections: int = 0
    utilities: dict[str, str] = field(default_factory=dict)
    capture_ticks: dict[str, int] = field(default_factory=dict)
    mission_done: bool = False
    done_tick: int | None = None
    final_org_hash: str | None = None

    def to_dict(self) -> dict:
        return {**vars(self), "utilities": dict(self.utilities), "capture_ticks": dict(self.capture_ticks)}


def compute_metrics(trace: list[dict], *, final_org_hash: str | None = None) -> RunMetrics:
    """Derive all metrics by scanning the trace; nothing is kept out of band."""
    m = RunMetrics(final_org_hash=final_org_hash)
    announced_tasks: set[str] = set()
    for rec in trace:
        kind = rec.get("type")
        if kind == "net":
            m.messages_sent += 1
            if rec.get("outcome") == "drop":
                m.messages_dropped += 1
            elif rec.get("outcome") == "reject":
                m.messages_rejected += 1
        elif kind == "event":
            if rec.get("event") == "RobotFailed":
                m.failures_handled += 1
            for note in rec.get("detail", {}).get("notes", []):
                nk = note.get("kind")
                if nk in ("announce", "escalate"):
                    m.formation_rounds += 1
                    # an escalation re-opens the auction its record closed
                    task = note["task"] if nk == "announce" else rec["data"]["id_task"]
                    if nk == "escalate" or task in announced_tasks:
                        m.re_auctions += 1
                    announced_tasks.add(task)
                elif nk == "reelected":
                    m.reelections += 1
                elif nk == "captured":
                    m.capture_ticks[note["evader"]] = note["tick"]
                elif nk == "mission_done":
                    m.mission_done = True
                    m.done_tick = rec["tick"]
                    m.utilities = dict(note.get("utilities", {}))
    return m
