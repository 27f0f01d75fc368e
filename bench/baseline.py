"""Reference figures: the ROADMAP baseline cases and one timing per remaining CLI command.

Usage, from the root of a checkout (takes about two minutes):

    python3 bench/baseline.py

Each case prints its median unscaled wall time and the same at the
reference speed of ``speed.py``. CLI cases run ``bench/cli_child.py`` as a
subprocess and also print the child's own peak RSS. Inputs are seeded
and written under ``bench/.work``, which is removed at the end.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import pufferot as po  # noqa: E402
from speed import timed_steps  # noqa: E402
from workloads import Context  # noqa: E402

SEED = 2201


def timed(fn, repeats: int):
    runs = [timed_steps([fn]) for _ in range(repeats)]
    return statistics.median(r[3] for r in runs), statistics.median(r[1] for r in runs)


def show(case: str, raw: float, scaled: float, extra: str = "") -> None:
    print(f"| {case} | {raw * 1e3:.3g} ms | {scaled * 1e3:.3g} ms |{extra}", flush=True)


def random_pair(n: int) -> po.DiscriminativePair:
    support, p, q = inputs.random_pair_masses(np.random.default_rng([SEED, n]), n, 0)
    return po.DiscriminativePair(("p", "q"), po.DiscreteDistribution(support, p),
                                 po.DiscreteDistribution(support, q))


def library_cases() -> None:
    adult = po.adult_education_pair()
    laplace = po.MechanismSpec("laplace", 2.5, 0.8)
    cases = [
        ("`optimal_plan`, adult pair", lambda: po.optimal_plan(adult.p, adult.q), 200),
        ("theorem1, adult pair", lambda: po.calibrate_pufferfish([adult], 0.8, "theorem1"), 200),
        ("theorem2, adult pair", lambda: po.calibrate_pufferfish([adult], 0.8, "theorem2"), 30),
        ("Laplace verify, adult pair", lambda: po.verify_pufferfish([adult], laplace, 0.8), 30),
    ]
    for n, repeats in ((1_000, 3), (10_000, 1)):
        pair = random_pair(n)
        cases.append((f"theorem2, n={n}",
                      lambda pair=pair: po.calibrate_pufferfish([pair], 1.0, "theorem2"), repeats))
    big = random_pair(10_000)
    cases.append(("`optimal_plan`, n=10000", lambda: po.optimal_plan(big.p, big.q), 5))
    mid = random_pair(1_000)
    mid_spec = po.MechanismSpec(
        "laplace", po.calibrate_pufferfish([mid], 1.0, "theorem1").theta, 1.0)
    cases.append(("Laplace verify, n=1000", lambda: po.verify_pufferfish([mid], mid_spec, 1.0), 3))
    ps = np.random.default_rng([SEED, 1]).uniform(0.05, 0.95, 1_000)
    system = po.bernoulli_counting(ps)
    cases.append(("scenario pairs, V=1000, one user",
                  lambda: po.discriminative_pairs(system, 0, "values"), 3))
    for case, fn, repeats in cases:
        show(case, *timed(fn, repeats), " — |")


def cli_cases(ctx: Context) -> None:
    work = ctx.work
    peak_file = work / "peak_mb"

    def cli(*args):
        return ctx.child([str(BENCH / "cli_child.py"), str(peak_file), *args])

    def run(case: str, args: list[str], repeats: int = 3) -> None:
        raw, scaled = timed(lambda: cli(*args), repeats)
        show(case, raw, scaled, f" peak RSS {float(peak_file.read_text()):.1f} MB |")

    columns = inputs.census_columns(np.random.default_rng([SEED, 2]), rows=500_000,
                                    secrets=5, labels=16)
    table, mapping = work / "census500k.csv", work / "labels.json"
    inputs.write_census(columns, table, mapping)
    common = ["--table", str(table), "--data-col", "education", "--mapping", str(mapping)]
    run("CLI `calibrate --table --method theorem2`, 500k rows",
        ["calibrate", *common, "--secret-col", "group", "--epsilon", "1.0",
         "--method", "theorem2", "--out", str(work / "report.json")])
    run("CLI `release`, 500k rows",
        ["release", *common, "--theta", "2.5", "--out", str(work / "released.csv")])

    adult = po.adult_education_pair()
    (work / "p.json").write_text(json.dumps(adult.p.to_json_dict()))
    (work / "q.json").write_text(json.dumps(adult.q.to_json_dict()))
    (work / "pairs.json").write_text(json.dumps({
        "prior": "adult",
        "conditionals": {label: dist.to_json_dict()
                         for label, dist in po.adult_education_conditionals().items()},
        "pairs": [list(adult.labels)],
    }))
    (work / "scenario.json").write_text(json.dumps({"V": 25, "priors": [[0.3, 0.7]] * 25}))
    run("CLI `plan`, adult pair",
        ["plan", "--p", str(work / "p.json"), "--q", str(work / "q.json"),
         "--out", str(work / "plan.json")])
    run("CLI `verify`, adult pair, Laplace theta 2.5",
        ["verify", "--pairs", str(work / "pairs.json"), "--theta", "2.5", "--epsilon", "0.8",
         "--out", str(work / "verify.json")])
    run("CLI `scenario`, V=25 counting",
        ["scenario", "--scenario", str(work / "scenario.json"), "--out", str(work / "scen.json")])
    run("CLI `figure4`", ["figure4", "--out", str(work / "series")])
    run("CLI `tables`", ["tables", "--out", str(work / "tables.json")])
    raw, scaled = timed(lambda: ctx.child(["-c", "import pufferot"]), 5)
    show("`import pufferot`, fresh interpreter", raw, scaled, " — |")


def main() -> None:
    work = BENCH / ".work" / f"baseline-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        print("| Case | Unscaled | At reference speed | Peak RSS |")
        print("|---|---|---|---|")
        library_cases()
        cli_cases(Context(BENCH.parent, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
