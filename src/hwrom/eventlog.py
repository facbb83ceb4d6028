"""Append-only JSONL event logs, and replay by re-running the logged scenario.

A log is self-contained: the header embeds the full scenario config, which
is every input of the run. The body holds the `event`, `net` and `decline`
records the run emitted, and the end record holds the final phase, the final
state hash and the run metrics. `simulate` is the run itself, shared by
`hwrom run` and `replay`. A deterministic machine fed the same inputs gives
the same outputs, so replay proves a log by running its header config again
and comparing every record it emits with the next log line, byte for byte;
the first line that differs is reported with its record type.
"""

from __future__ import annotations

import contextlib
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterator

from . import config as cfg
from . import formation as fm
from . import metrics, org_core, simnet
from .org_core import canonical_json

LOG_VERSION = 4

#: `TraceWriter` writes this many lines at a time, and the rest at `close`.
BLOCK_LINES = 256


class MalformedLogError(Exception):
    """The log cannot be checked: unreadable, no usable header, another
    version, or cut short."""


class TraceWriter:
    """Write trace records to a JSONL file, one record per line. Canonical
    JSON is ASCII, so the file is written as bytes, `BLOCK_LINES` lines per
    write; `close` writes the lines of the last, partial block."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh: IO[bytes] = self.path.open("wb")
        self._block: list[str] = []

    def write(self, record: dict) -> None:
        self._block.append(canonical_json(record))
        if len(self._block) == BLOCK_LINES:
            self._write_block()

    def _write_block(self) -> None:
        self._fh.write(("\n".join(self._block) + "\n").encode("ascii"))
        self._block = []

    def close(self) -> None:
        if self._block:
            self._write_block()
        self._fh.close()


def header_record(scenario: cfg.ScenarioConfig) -> dict:
    return {
        "type": "header",
        "version": LOG_VERSION,
        "seed": scenario.seed,
        "config_hash": scenario.hash(),
        "config": scenario.raw,
    }


def end_record(state: fm.FormationState, run_metrics: dict, org: dict | None = None) -> dict:
    """The end record; `org` is the final `org_core.snapshot_dict`, when
    the caller has built it already."""
    return {
        "type": "end",
        "phase": state.phase.value,
        "final_hash": fm.state_hash(state, org),
        "metrics": run_metrics,
    }


def simulate(
    scenario: cfg.ScenarioConfig, record: Callable[[dict], None] | None = None
) -> tuple[fm.FormationState, metrics.RunMetrics]:
    """Run a scenario until it is Done or Failed or its tick budget is spent,
    handing every log record to `record` in log order: header, body, end."""
    state = scenario.build_state()
    scheduler = simnet.Scheduler(state, scenario.net, record=record)
    if record is not None:
        record(header_record(scenario))
    scenario.schedule(scheduler)
    scheduler.run(
        until=scenario.max_ticks,
        stop_when=lambda s: s.phase in (fm.Phase.DONE, fm.Phase.FAILED),
    )
    org = org_core.snapshot_dict(state.org)
    run_metrics = metrics.compute_metrics(scheduler.trace, final_org_hash=org_core.canonical_hash(org))
    if record is not None:
        record(end_record(state, run_metrics.to_dict(), org))
    return state, run_metrics


def read_log(path: str | Path) -> Iterator[tuple[int, bytes]]:
    """Stream a log as (line number, line without its newline)."""
    try:
        with Path(path).open("rb") as fh:
            for number, line in enumerate(fh, start=1):
                if not line.endswith(b"\n"):
                    raise MalformedLogError(f"line {number} has no newline (truncated log?)")
                yield number, line[:-1]
    except OSError as exc:
        raise MalformedLogError(f"cannot read log: {exc}") from None


@dataclass
class ReplayOutcome:
    ok: bool
    line: int | None = None  # the first log line that differs from the re-run
    message: str = ""


class _Diverged(Exception):
    pass


def _describe(record: dict | bytes) -> str:
    """A record's type, with the seq of an event record."""
    if isinstance(record, bytes):
        try:
            record = json.loads(record)
        except ValueError:
            return "a line that is not JSON"
        if not isinstance(record, dict):
            return "a line that is not a record"
    if record.get("type") == "event":
        return f"event record (seq {record.get('seq')})"
    return f"{record.get('type')} record"


def replay(path: str | Path) -> ReplayOutcome:
    """Re-run the log's header config and compare each record it emits with
    the next log line, byte for byte."""
    with contextlib.closing(read_log(path)) as lines:
        return _replay(lines)


def _replay(lines: Iterator[tuple[int, bytes]]) -> ReplayOutcome:
    first = next(lines, None)
    try:
        header = json.loads(first[1]) if first is not None else None
    except ValueError:
        header = None
    if not isinstance(header, dict) or header.get("type") != "header":
        raise MalformedLogError("missing header record")
    if header.get("version") != LOG_VERSION:
        raise MalformedLogError(
            f"log version {header.get('version')!r} cannot be replayed, only version "
            f"{LOG_VERSION}: run the header's config again with `hwrom run` to get one"
        )
    try:
        scenario = cfg.from_dict(header.get("config"))
    except cfg.ConfigError as exc:
        raise MalformedLogError(f"header config invalid: {exc}") from None

    logged = itertools.chain([first], lines)
    emitted = 0

    def compare(record: dict) -> None:
        nonlocal emitted
        emitted += 1
        entry = next(logged, None)
        if entry is None:
            raise MalformedLogError(
                f"the log ends at line {emitted - 1}, before the re-run's "
                f"{_describe(record)} (truncated log?)"
            )
        number, line = entry
        if line != canonical_json(record).encode():
            logged_as, rerun_as = _describe(line), _describe(record)
            what = logged_as if logged_as == rerun_as else f"{logged_as}, re-run: {rerun_as}"
            raise _Diverged(number, f"line {number} differs from the re-run: {what}")

    try:
        simulate(scenario, compare)
    except _Diverged as exc:
        number, message = exc.args
        return ReplayOutcome(False, number, message)
    extra = next(logged, None)
    if extra is not None:
        number, line = extra
        return ReplayOutcome(False, number, f"line {number} follows the end record: {_describe(line)}")
    return ReplayOutcome(True, None, "replay verified")
