"""Benchmark of pufferot, end to end (``--trace 0``) and per layer (``--trace 1``).

Usage, from the root of a checkout:

    python3 bench/run.py --workload figure4-sweep --seed 1 --seconds 20 --trace 0

Workloads: figure4-sweep, counting-certify, census-release (see README.md).
One process drives one op at a time in a closed loop. Every op's outputs
are checked; an op fails if the library raises or a check fails. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The library is imported from
the checkout's ``src``; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from speed import timed_steps

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
#: Fresh `import pufferot.cli` interpreters per traced run; cli.import_ms is their median.
IMPORT_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_cpu_ms": "ms",
    "peak_rss_mb": "MB",
}
# Per-layer metric -> unit. Each is read from a traced op's snapshot (tracer.py)
# or from the run's extras, under its own name or the one in SNAPSHOT_KEYS.
PER_LAYER = {
    "mechanisms.relaxed_theta.calls": "count",
    "mechanisms.relaxed_theta.ms": "ms",
    "mechanisms.calibrate_pufferfish.calls": "count",
    "mechanisms.calibrate_pufferfish.self_ms": "ms",
    "mechanisms.release.ms": "ms",
    "mechanisms.release.values": "count",
    "transport.optimal_plan.calls": "count",
    "transport.optimal_plan.ms": "ms",
    "transport.plan_entries": "count",
    "transport.plan_sensitivity.ms": "ms",
    "verify.verify_pufferfish.ms": "ms",
    "verify.verify_delta_approx.ms": "ms",
    "verify.log_output_density.calls": "count",
    "verify.density_evals": "count",
    "scenarios.discriminative_pairs.ms": "ms",
    "scenarios.conditional_output_dist.calls": "count",
    "scenarios.conditional_output_dist.ms": "ms",
    "tabular.load_table.ms": "ms",
    "tabular.rows": "count",
    "tabular.empirical_conditionals.ms": "ms",
    "tabular.enumerate_pairs.pairs": "count",
    "cli.calibrate.wall_ms": "ms",
    "cli.calibrate.self_ms": "ms",
    "cli.release.wall_ms": "ms",
    "cli.release.self_ms": "ms",
    "cli.release.peak_rss_mb": "MB",
    "cli.import_ms": "ms",
    "trace.overhead_ms": "ms",
}
SNAPSHOT_KEYS = {"cli.calibrate.wall_ms": "cli.calibrate.ms",
                 "cli.release.wall_ms": "cli.release.ms"}


class Tally:
    """Counts attempted and failed ops; reports the first failure on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            if self.failed == 1:
                print(f"op {self.attempted} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None


def tail_summary(name: str, walls: list[float], raws: list[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it, and raw wall time."""
    n = len(walls)
    line = (f"{name}: {n} timed ops, op p50 {statistics.median(walls) * 1e3:.1f} ms "
            f"at reference speed ({statistics.median(raws) * 1e3:.1f} ms unscaled)")
    for q in (99.9, 99, 95, 90, 75):
        if n >= 40 and n * (1 - q / 100) >= 10:
            cut = statistics.quantiles(walls, n=1000, method="inclusive")[round(q * 10) - 1]
            return line + f", p{q:g} {cut * 1e3:.1f} ms"
    return line + ", fewer than 40 ops: median only"


def measure_setup(workload) -> float:
    walls = []
    for _ in range(SETUP_REPEATS):
        stdout, wall, _, _ = timed_steps(
            [lambda: workload.ctx.setup_probe(workload.name, workload.seed, *workload.setup_args())])
        workload.check_setup(json.loads(stdout.splitlines()[-1]))
        walls.append(wall)
    return statistics.median(walls)


def timed_run(workload, seconds: float) -> dict:
    tally = Tally()
    setup_s = measure_setup(workload)
    walls, cpus, raws = [], [], []

    def one(k: int):
        prepared = workload.prepare(k)
        outputs, wall, cpu, raw = timed_steps(workload.op_steps(prepared), workload.kernel)
        workload.check(prepared, outputs)
        return wall, cpu, raw

    tally.attempt(one, 0)  # warm-up: checked and counted, not timed
    deadline = time.perf_counter() + seconds
    k = 1
    while time.perf_counter() < deadline:
        timing = tally.attempt(one, k)
        if timing is not None:
            walls.append(timing[0])
            cpus.append(timing[1])
            raws.append(timing[2])
        k += 1
    if not walls:
        raise RuntimeError("no op completed")
    print(tail_summary(workload.name, walls, raws))
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(walls) / sum(walls),
        "op_p50_ms": statistics.median(walls) * 1e3,
        "op_cpu_ms": statistics.median(cpus) * 1e3,
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    return result(tally, values, END_TO_END)


def traced_run(workload, seconds: float) -> dict:
    """Alternates plain and traced in-process ops on the same inputs.

    Per-layer figures are medians over the traced ops, with times scaled
    by their op's factor; trace.overhead_ms is the median traced op minus
    the median plain op.
    """
    from tracer import Tracer

    tally = Tally()
    imports = [timed_steps([lambda: workload.ctx.child(["-c", "import pufferot.cli"])])[1]
               for _ in range(IMPORT_REPEATS)]
    tracer = Tracer(workload.bindings())
    plain, traced, snapshots = [], [], []

    def one(prepared, trace: bool):
        if trace:
            tracer.reset()
            tracer.install()
        try:
            steps = workload.in_process_steps(prepared, tracer if trace else None)
            outputs, wall, _, raw = timed_steps(steps, workload.kernel)
        finally:
            tracer.uninstall()
        workload.check(prepared, outputs)
        if not trace:
            return wall, None
        factor = wall / raw
        snapshot = {key: value * factor if key.endswith("ms") else value
                    for key, value in tracer.snapshot().items()}
        return wall, snapshot

    prepared = workload.prepare(0)
    tally.attempt(lambda: workload.check(
        prepared, timed_steps(workload.op_steps(prepared), workload.kernel)[0]))
    deadline = time.perf_counter() + seconds
    k = 1
    while time.perf_counter() < deadline:
        prepared = workload.prepare(k)
        for trace in ((False, True) if k % 2 else (True, False)):
            timing = tally.attempt(one, prepared, trace)
            if timing is None:
                continue
            (traced if trace else plain).append(timing[0])
            if trace:
                snapshots.append(timing[1])
        k += 1
    tracer.check_all_fired()
    if not (plain and traced):
        raise RuntimeError("no plain or no traced op completed")
    extras = {
        "cli.import_ms": statistics.median(imports) * 1e3,
        "trace.overhead_ms": (statistics.median(traced) - statistics.median(plain)) * 1e3,
        **workload.trace_extras(),
    }
    values = {}
    for name in PER_LAYER:
        key = SNAPSHOT_KEYS.get(name, name)
        if key in extras:
            values[name] = extras[key]
        else:
            values[name] = statistics.median(snap.get(key, 0.0) for snap in snapshots)
    print(f"{workload.name}: {len(traced)} traced and {len(plain)} plain ops, "
          f"tracing overhead {extras['trace.overhead_ms']:.2f} ms per op")
    return result(tally, values, PER_LAYER)


def result(tally: Tally, values: dict, units: dict) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "pufferot" / "__init__.py").is_file():
        print(f"bench: no pufferot sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import pufferot

    if Path(pufferot.__file__).resolve().parent != (src / "pufferot").resolve():
        print(f"bench: imported pufferot from {pufferot.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](Context(ROOT, work), args.seed)
        run = traced_run if args.trace else timed_run
        outcome = run(workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
