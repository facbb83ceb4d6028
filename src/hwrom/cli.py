"""Command line entry point: run seeded simulations, replay and verify traces.

Exit codes: 0 mission success or a verified replay, 1 formation/mission
failure (logs still written) or a replay that diverges, 2 configuration or
log-format errors (a truncated log or another log version included), or a
`--log` or `--snapshot` path that cannot be written.
"""

from __future__ import annotations

import contextlib
import json

import click

from . import config as cfg
from . import eventlog
from . import formation as fm
from . import org_core


@click.group()
def main() -> None:
    """Hierarchical multi-robot organization engine and simulator."""


def _fail_event(spec: str) -> dict:
    """A `--fail ROBOT@TICK` as the scripted event it adds to the config."""
    robot, sep, tick = spec.partition("@")
    if not sep or not robot:
        raise click.BadParameter(f"--fail expects ROBOT@TICK, got {spec!r}")
    try:
        return {"at": int(tick), "type": "fail", "robot": robot}
    except ValueError:
        raise click.BadParameter(f"--fail tick must be an integer, got {tick!r}") from None


@main.command(name="run")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--ticks", type=int, default=None, help="Override max ticks.")
@click.option("--fail", "fails", multiple=True,
              help="Add a scripted failure: ROBOT@TICK (repeatable).")
@click.option("--log", "log_path", type=click.Path(dir_okay=False), default=None,
              help="Write the JSONL event log here.")
@click.option("--snapshot", "snapshot_path", type=click.Path(dir_okay=False), default=None,
              help="Write the final organization snapshot here.")
@click.pass_context
def run_command(ctx, config_path, seed, ticks, fails, log_path, snapshot_path) -> None:
    """Run one scenario to completion (or until the tick budget runs out)."""
    try:
        scenario = cfg.load_config(config_path)
        if seed is not None or ticks is not None or fails:
            # the overrides go into the config, so the log header holds every input
            raw = dict(scenario.raw)
            if seed is not None:
                raw["seed"] = seed
            if ticks is not None:
                raw["max_ticks"] = ticks
            if fails:
                raw["events"] = [*raw.get("events", []), *map(_fail_event, fails)]
            scenario = cfg.from_dict(raw)
    except cfg.ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        ctx.exit(2)

    # both outputs are opened before the run, so a path that cannot be
    # written stops the run before it starts
    with contextlib.ExitStack() as outputs:
        try:
            snapshot = outputs.enter_context(open(snapshot_path, "w")) if snapshot_path else None
            writer = eventlog.TraceWriter(log_path) if log_path else None
        except OSError as exc:
            click.echo(f"cannot write {exc.filename}: {exc.strerror}", err=True)
            ctx.exit(2)
        if writer:
            outputs.callback(writer.close)
        state, run_metrics = eventlog.simulate(scenario, writer.write if writer else None)
        if snapshot:
            snapshot.write(org_core.snapshot_json(state.org) + "\n")

    summary = {
        "phase": state.phase.value,
        "ticks": state.now,
        "org_hash": run_metrics.final_org_hash,
        "metrics": run_metrics.to_dict(),
    }
    click.echo(json.dumps(summary, sort_keys=True))
    ctx.exit(0 if state.phase is fm.Phase.DONE else 1)


@main.command(name="replay")
@click.argument("log_path", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
def replay_command(ctx, log_path) -> None:
    """Re-run a log's header config and check every logged record."""
    try:
        outcome = eventlog.replay(log_path)
    except eventlog.MalformedLogError as exc:
        click.echo(f"malformed log: {exc}", err=True)
        ctx.exit(2)
    if outcome.ok:
        click.echo("replay ok")
        ctx.exit(0)
    else:
        click.echo(outcome.message, err=True)
        ctx.exit(1)


if __name__ == "__main__":
    main()
