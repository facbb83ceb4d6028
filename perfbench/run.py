"""hwrom benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload churn --seed 1 --seconds 60 --trace 0

Run from any directory; the engine is imported from the `src/` beside this
directory and the pursuit fixtures are read from `tests/fixtures/`. The
workloads (see workloads.py and BENCHMARK.json) are a closed loop in one
single-threaded process: a pass runs the workload's scenarios one after the
other, and passes repeat, each on the same seeded inputs, until `--seconds`
is spent. Consecutive passes are averaged into samples of a few seconds, and
timings are medians over samples.

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates untraced
and traced samples and reports the per-layer split of the traced passes plus
the tracing overhead. The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A scenario fails when it has
not ended Done or Failed by max_ticks, ends Failed where the inputs are
feasible, does not replay clean, leaves a Done org that fails validate(),
misses its frozen capture tick, or simulates differently from the first pass.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"

SAMPLE_SECONDS = 5.0  # passes are averaged into samples at least this long
MIN_SAMPLES = 3  # taken even when they outlast --seconds
MIN_TRACED_SAMPLES = 2


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "hwrom" / "__init__.py").is_file() or not (FIXTURES / "expected.json").is_file():
        print(f"perfbench: no hwrom source under {SRC} or fixtures under {FIXTURES}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    import workloads

    workload = workloads.build(args.workload, args.seed, FIXTURES)
    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return measure(harness, workload, args, scratch / "trace.jsonl")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def measure(harness, workload, args, log_path: Path) -> int:
    from tracer import Tracer

    started = time.perf_counter()
    tracer = Tracer() if args.trace else None
    passes: list = []  # every pass, for the output checks
    plain: list = []  # samples, untraced
    traced: list = []  # samples, traced
    traced_passes: list = []
    while True:
        trace_this = tracer is not None and len(traced) < len(plain)
        if trace_this:
            harness.install_layers(tracer)
        block: list = []
        t0 = time.perf_counter()
        try:
            while not block or time.perf_counter() - t0 < SAMPLE_SECONDS:
                gc.collect()
                block.append(harness.run_pass(workload, log_path, tracer if trace_this else None))
        finally:
            if trace_this:
                tracer.uninstall()
        passes += block
        if trace_this:
            traced.append(harness.mean_of(block))
            traced_passes += block
        else:
            plain.append(harness.mean_of(block))
        now = time.perf_counter()
        floor_met = len(plain) >= MIN_SAMPLES and (tracer is None or len(traced) >= MIN_TRACED_SAMPLES)
        # stop where another sample would end nearer past the budget than this one ends before it
        if floor_met and now - started + (now - t0) / 2 > args.seconds:
            break

    attempted, failed, problems = verify(workload, passes)
    median = statistics.median
    run_s = median(p.total("run_s") for p in plain)
    records = plain[0].count("records")
    p50, p90, n_scenarios = harness.scenario_percentiles(plain)
    end_to_end = {
        "setup_s": (median(p.total("setup_s") for p in plain), "s"),
        "run_s": (run_s, "s"),
        "records_per_s": (median(p.count("records") / p.total("run_s") for p in plain), "1/s"),
        "scenario_p50_s": (p50, "s"),
        "scenario_p90_s": (p90, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }

    config_hashes = [harness.config.config_hash(s.config) for s in workload.scenarios]
    print(f"workload: {workload.name}  seed: {args.seed}  scenarios: {len(workload.scenarios)}")
    print(f"passes: {len(passes) - len(traced_passes)} untraced, {len(traced_passes)} traced (closed loop, 1 process)")
    if len(config_hashes) == 1:
        print(f"config_hash: {config_hashes[0]}")
    else:
        print(f"config_digest: {_digest(config_hashes)}  (sha256 over {len(config_hashes)} config hashes)")
    print(f"sim_digest: {plain[0].digest}")
    print("sim_counts: " + " ".join(f"{k}={plain[0].count(k)}" for k in plain[0].results[0].counts))
    for name, (value, unit) in end_to_end.items():
        print(f"{name}: {value:.6g} {unit}")
    print(f"  setup_s, run_s and records_per_s: medians of {len(plain)} samples, each the mean of")
    print(f"  the passes in {SAMPLE_SECONDS:g}+ s; scenario_p50_s/p90_s over n={n_scenarios} scenarios")
    if traced:
        print("  peak_rss_mb includes the traced passes")
    print(f"replay_s: {median(p.total('replay_s') for p in plain):.6g} s")
    print(f"host_us_per_record: {run_s / records * 1e6:.6g} us")
    print(f"failed_share: {failed / attempted:.6g} ({failed}/{attempted} scenario runs)")
    for problem in problems[:10]:
        print(f"  FAILED {problem}")

    metrics = end_to_end
    if tracer is not None:
        metrics = report_layers(harness, plain, traced, traced_passes)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def verify(workload, passes) -> tuple[int, int, list[str]]:
    """Count scenario runs and failed ones: an output check failed, or the
    run simulated differently from the same scenario in the first pass."""
    first = passes[0].results
    attempted = failed = 0
    problems: list[str] = []
    for p in passes:
        for scenario, result, reference in zip(workload.scenarios, p.results, first):
            attempted += 1
            problem = result.problem
            if problem is None and (result.final_hash, result.counts) != (
                reference.final_hash,
                reference.counts,
            ):
                problem = "simulated differently from the first pass"
            if problem is not None:
                failed += 1
                problems.append(f"{scenario.name}: {problem}")
    return attempted, failed, problems


def report_layers(harness, plain, traced, traced_passes) -> dict[str, tuple[float, str]]:
    per_pass = [harness.layer_metrics(p) for p in traced_passes]
    layers = {
        name: (statistics.median_low(m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    plain_run_s = statistics.median(p.total("run_s") for p in plain)
    traced_run_s = statistics.median(p.total("run_s") for p in traced)
    layers["trace.overhead_s"] = (traced_run_s - plain_run_s, "s")
    layers["trace.overhead_share"] = ((traced_run_s - plain_run_s) / plain_run_s, "ratio")
    print(f"per-layer split: medians of {len(traced_passes)} traced passes")
    for name, (value, unit) in layers.items():
        print(f"  {name}: {value:.6g} {unit}")
    top, self_s = harness.top_self_layer(traced_passes[-1])
    print(f"top self time: {top} ({self_s:.6g} s of a traced pass)")
    return layers


def _digest(hashes: list[str]) -> str:
    return hashlib.sha256("\n".join(hashes).encode()).hexdigest()


if __name__ == "__main__":
    sys.exit(main())
