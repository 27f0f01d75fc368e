"""The three benchmark workloads: inputs, one op, and the checks on its outputs.

Each workload generates its inputs from the run seed, runs one op at a
time in a closed loop, and checks every op's outputs against
``independent`` or against properties the method guarantees. The library
is always reached through module attributes (``mechanisms.calibrate_pufferfish``
and so on), which are the names the tracer wraps.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

import independent as ind
import inputs
from tracer import Binding

# The paper's Figure-4 noise variances for the education-by-race pair
# (Laplace noise, variance 2 theta^2), theorem 1 and theorem 2, published
# to 15 and 3 significant digits respectively.
FIGURE4_THEOREM1 = (12.5, 4.73372781065089, 2.46913580246914, 1.51228733459357,
                    1.02040816326531, 0.734618916437098, 0.554016620498615,
                    0.432666306111412, 0.347222222222222, 0.284798860804557,
                    0.237812128418549)
FIGURE4_THEOREM2 = (3.125, 1.18343195266272, 0.617283950617284, 0.397579269785382,
                    0.305394110969956, 0.244884060038036, 0.202304351924927,
                    0.170824401238967, 0.146680137698887, 0.127631329335633,
                    0.112262755234664)
PUBLISHED_RTOL = {"theorem1": 1e-6, "theorem2": 1e-3}
#: Relative slack for values the library and the checks compute by different float paths.
FLOAT_RTOL = 1e-12
#: theorem2 bisects log(theta) to 1e-10, so its theta may exceed the exact root by this factor.
ROOT_RTOL = math.exp(ind.ROOT_LOG_TOL) * (1 + FLOAT_RTOL)
#: Sampling bounds on the released noise are this many standard errors wide.
SAMPLING_SIGMAS = 6.0


class CheckFailed(AssertionError):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a: float, b: float, rtol: float = FLOAT_RTOL) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)


def _plan_counts(args, kwargs, plan):
    return {"transport.plan_entries": len(plan)}


def _density_counts(args, kwargs, log_density):
    dist = args[0] if args else kwargs["dist"]
    return {"verify.density_evals": log_density.size * int(np.count_nonzero(dist.mass > 0))}


def _release_counts(args, kwargs, noised):
    return {"mechanisms.release.values": noised.size}


def _table_counts(args, kwargs, counts):
    return {"tabular.rows": float(sum(c.sum() for c in counts.values()))}


def _pair_counts(args, kwargs, pairs):
    return {"tabular.enumerate_pairs.pairs": len(pairs)}


def _calibration_bindings(caller: str) -> list[Binding]:
    return [
        Binding(caller, "calibrate_pufferfish", "mechanisms.calibrate_pufferfish"),
        Binding("pufferot.mechanisms", "optimal_plan", "transport.optimal_plan", _plan_counts),
        Binding("pufferot.mechanisms", "plan_sensitivity", "transport.plan_sensitivity"),
    ]


class Context:
    """Where a run lives: the checkout's source tree and a private work directory."""

    def __init__(self, root: Path, work: Path) -> None:
        self.root = root
        self.work = work
        self.python = sys.executable
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env = {**env, "PYTHONPATH": str(root / "src")}

    def child(self, argv: list[str]) -> str:
        """Runs this interpreter on ``argv`` to its end; returns its standard output."""
        proc = subprocess.run([self.python, *argv], env=self.env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(argv[:3])} exited with {proc.returncode}: "
                               f"{proc.stderr[-2000:]}")
        return proc.stdout

    def setup_probe(self, workload: str, seed: int, *extra: str) -> str:
        probe = str(self.root / "bench" / "setup_probe.py")
        return self.child([probe, workload, str(seed), *extra])


class Workload:
    name = ""
    #: The reference kernel of speed.py whose slow-downs track this workload's.
    kernel = "mixed"

    def __init__(self, ctx: Context, seed: int) -> None:
        self.ctx = ctx
        self.seed = seed

    def prepare(self, k: int):
        """The seeded inputs of op ``k``, made outside the timed op."""
        return None

    def op_steps(self, prepared) -> list:
        """One op as a user runs it, as steps timed one by one; the last returns the outputs."""
        raise NotImplementedError

    def in_process_steps(self, prepared, tracer=None) -> list:
        """The op's steps driven in this process; ``tracer`` opens spans the op itself owns."""
        return self.op_steps(prepared)

    def check(self, prepared, outputs) -> None:
        raise NotImplementedError

    def setup_args(self) -> list[str]:
        return []

    def check_setup(self, digest: dict) -> None:
        raise NotImplementedError

    def bindings(self) -> list[Binding]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def trace_extras(self) -> dict:
        return {}


class Figure4Sweep(Workload):
    """Adult pair plus two seeded random pairs, swept over the Figure-4 grid."""

    name = "figure4-sweep"

    def __init__(self, ctx: Context, seed: int) -> None:
        super().__init__(ctx, seed)
        from pufferot import distributions, mechanisms, pairs, tabular

        self.dist = distributions
        self.mech = mechanisms
        self.pairs = pairs
        self.adult = tabular.adult_education_pair()

    def prepare(self, k: int):
        return inputs.figure4_random_pairs(inputs.op_rng(self.name, self.seed, k))

    def op_steps(self, prepared) -> list:
        """One op, as one step per pair and epsilon so that each timed span stays short."""
        out = []

        def build():
            batch = [self.adult] + [
                self.pairs.DiscriminativePair(
                    labels=("p", "q"),
                    p=self.dist.DiscreteDistribution(support, p),
                    q=self.dist.DiscreteDistribution(support, q),
                    prior="random",
                )
                for support, p, q in prepared
            ]
            out.extend((pair, {"theorem1": [], "theorem2": []}, {}) for pair in batch)

        def sweep(i: int, eps: float):
            pair, reports, _ = out[i]
            for method in ("theorem1", "theorem2"):
                reports[method].append(self.mech.calibrate_pufferfish([pair], eps, method))

        def gaussian(i: int):
            pair, _, reports = out[i]
            for variant in ("a", "b"):
                reports[variant] = self.mech.calibrate_pufferfish(
                    [pair], inputs.GAUSSIAN_EPSILON, f"gaussian-{variant}", delta=inputs.DELTA)
            return out

        steps = [build]
        for i in range(1 + len(inputs.RANDOM_PAIR_SHAPES)):
            steps += [functools.partial(sweep, i, eps) for eps in inputs.FIGURE4_EPSILONS]
            steps.append(functools.partial(gaussian, i))
        return steps

    def check(self, prepared, outputs) -> None:
        for pair, sweep, gauss in outputs:
            p, q = pair.p, pair.q
            rows, cols, _ = ind.comonotone_coupling(p.mass, q.mass)
            sens = ind.coupling_sensitivity(p.support, q.support, rows, cols)
            tag = f"pair {pair.labels} of {len(p)} atoms"
            for eps, strict, relaxed in zip(
                inputs.FIGURE4_EPSILONS, sweep["theorem1"], sweep["theorem2"]
            ):
                expect(strict.pairs[0].sensitivity == sens,
                       f"{tag}: plan sensitivity {strict.pairs[0].sensitivity} != {sens}")
                expect(close(strict.theta, sens / eps),
                       f"{tag}, eps={eps}: theorem1 theta {strict.theta} != {sens}/eps")
                expect(relaxed.theta <= strict.theta * ROOT_RTOL,
                       f"{tag}, eps={eps}: theorem2 theta {relaxed.theta} > theorem1 {strict.theta}")
                residuals = ind.moment_residuals(p.support, p.mass, q.support, q.mass,
                                                 relaxed.theta, eps)
                tol = ind.moment_tolerance(sens, relaxed.theta)
                expect(residuals.max() <= tol and residuals.max() >= -tol,
                       f"{tag}, eps={eps}: moment equations at theta={relaxed.theta} "
                       f"have max residual {residuals.max()!r} (tolerance {tol:.3g})")
            for method in ("theorem1", "theorem2"):
                thetas = [r.theta for r in sweep[method]]
                expect(all(b <= a * ROOT_RTOL for a, b in zip(thetas, thetas[1:])),
                       f"{tag}: {method} theta increases with epsilon: {thetas}")
            for variant, report in gauss.items():
                want = ind.gaussian_theta(sens, inputs.GAUSSIAN_EPSILON, inputs.DELTA, variant)
                expect(close(report.theta, want),
                       f"{tag}: gaussian-{variant} theta {report.theta} != {want}")
        _, adult_sweep, _ = outputs[0]
        for method, published in (("theorem1", FIGURE4_THEOREM1), ("theorem2", FIGURE4_THEOREM2)):
            got = [r.variance for r in adult_sweep[method]]
            expect(all(close(g, w, PUBLISHED_RTOL[method]) for g, w in zip(got, published)),
                   f"adult {method} variance series {got} differs from Figure 4 {published}")

    def check_setup(self, digest: dict) -> None:
        want = [len(self.adult.p)] + [atoms for atoms, _ in inputs.RANDOM_PAIR_SHAPES]
        expect(digest.get("atoms") == want, f"set-up built pairs of {digest.get('atoms')} atoms")

    def bindings(self) -> list[Binding]:
        return _calibration_bindings("pufferot.mechanisms") + [
            Binding("pufferot.mechanisms", "relaxed_theta", "mechanisms.relaxed_theta"),
        ]


class CountingCertify(Workload):
    """A fresh V-user Bernoulli counting system per op, calibrated and certified."""

    name = "counting-certify"
    kernel = "vectorised"

    def __init__(self, ctx: Context, seed: int) -> None:
        super().__init__(ctx, seed)
        from pufferot import mechanisms, scenarios, verify

        self.mech = mechanisms
        self.scen = scenarios
        self.verify = verify

    def prepare(self, k: int):
        return inputs.counting_probabilities(inputs.op_rng(self.name, self.seed, k))

    def op_steps(self, prepared) -> list:
        """One op, as scenario, calibration and the two certificates, timed one by one.

        Both scales are calibrated on the value pair, whose plan sensitivity
        is exactly 1. The absence pairs join the Laplace certificate only:
        their plans can carry a rounding-residue entry at distance 2, which
        doubles any scale calibrated on them and fails the Gaussian
        certificate on some seeds (see CHANGES.md).
        """
        eps, delta = inputs.COUNTING_EPSILON, inputs.DELTA
        state = {}

        def scenario():
            system = self.scen.bernoulli_counting(prepared)
            state["values"] = self.scen.discriminative_pairs(system, 0, "values")
            state["absence"] = self.scen.discriminative_pairs(system, 0, "absence")

        def calibrate():
            state["strict"] = self.mech.calibrate_pufferfish(state["values"], eps, "theorem1")
            state["gauss"] = self.mech.calibrate_pufferfish(state["values"], eps, "gaussian-a",
                                                            delta=delta)

        def certify_laplace():
            spec = self.mech.MechanismSpec("laplace", state["strict"].theta, eps)
            state["laplace"] = self.verify.verify_pufferfish(
                state["values"] + state["absence"], spec, eps)

        def certify_gaussian():
            spec = self.mech.MechanismSpec("gaussian", state["gauss"].theta, eps, delta=delta)
            state["gaussian"] = self.verify.verify_delta_approx(state["values"], spec, eps, delta)
            return state

        return [scenario, calibrate, certify_laplace, certify_gaussian]

    def check(self, prepared, outputs) -> None:
        eps, delta, users = inputs.COUNTING_EPSILON, inputs.DELTA, inputs.COUNTING_USERS
        others = ind.poisson_binomial_dp(prepared[1:])
        expected = {
            "S0=0": (np.arange(users, dtype=float), others),
            "S0=1": (np.arange(1, users + 1, dtype=float), others),
            "S0=absent": (np.arange(users + 1, dtype=float), ind.poisson_binomial_dp(prepared)),
        }
        pairs = outputs["values"] + outputs["absence"]
        labels = [pair.labels for pair in pairs]
        expect(labels == [("S0=0", "S0=1"), ("S0=0", "S0=absent"), ("S0=1", "S0=absent")],
               f"unexpected discriminative pairs {labels}")
        for pair in pairs:
            for label, dist in zip(pair.labels, (pair.p, pair.q)):
                support, mass = expected[label]
                expect(np.array_equal(dist.support, support)
                       and float(np.abs(dist.mass - mass).max()) <= 1e-12,
                       f"conditional {label} differs from the Poisson-binomial law")
        strict, gauss = outputs["strict"], outputs["gauss"]
        expect(close(strict.theta, 1.0 / eps), f"theorem1 theta {strict.theta} != 1/eps")
        expect(outputs["laplace"].passed, "verify_pufferfish rejected the theorem1 Laplace scale")
        expect(outputs["gaussian"].passed, "verify_delta_approx rejected the gaussian-a scale")
        for pair in pairs:
            p, q = pair.p, pair.q
            ratio = ind.laplace_support_log_ratio(p.support, p.mass, q.support, q.mass,
                                                  strict.theta)
            expect(ratio <= eps + 1e-9,
                   f"{pair.labels}: support-point Laplace log-ratio {ratio} > eps")
        (value_pair,), (check,) = outputs["values"], outputs["gaussian"].checks
        rows, cols, _ = ind.comonotone_coupling(value_pair.p.mass, value_pair.q.mass)
        sens = ind.coupling_sensitivity(value_pair.p.support, value_pair.q.support, rows, cols)
        tail = ind.gaussian_tail_mass(gauss.theta, eps, sens)
        expect(tail <= delta, f"Gaussian tail mass {tail} > delta")
        expect(close(check.violation_mass, tail, 1e-9),
               f"reported tail mass {check.violation_mass} != {tail}")

    def check_setup(self, digest: dict) -> None:
        expect(digest.get("users") == inputs.COUNTING_USERS,
               f"set-up built a system of {digest.get('users')} users")

    def bindings(self) -> list[Binding]:
        return _calibration_bindings("pufferot.mechanisms") + [
            Binding("pufferot.scenarios", "discriminative_pairs", "scenarios.discriminative_pairs"),
            Binding("pufferot.scenarios", "conditional_output_dist",
                    "scenarios.conditional_output_dist"),
            Binding("pufferot.verify", "verify_pufferfish", "verify.verify_pufferfish"),
            Binding("pufferot.verify", "verify_delta_approx", "verify.verify_delta_approx"),
            Binding("pufferot.verify", "log_output_density", "verify.log_output_density",
                    _density_counts),
            Binding("pufferot.verify", "optimal_plan", "transport.optimal_plan", _plan_counts),
            Binding("pufferot.verify", "plan_sensitivity", "transport.plan_sensitivity"),
        ]


class CensusRelease(Workload):
    """`pufferot calibrate` then `pufferot release` on a generated census-like CSV."""

    name = "census-release"

    def __init__(self, ctx: Context, seed: int) -> None:
        super().__init__(ctx, seed)
        rng = inputs.op_rng(self.name, seed, -1)
        columns = inputs.census_columns(rng)
        self.table = ctx.work / "census.csv"
        self.mapping = ctx.work / "education_labels.json"
        inputs.write_census(columns, self.table, self.mapping)
        self.columns = columns
        self.counts = inputs.census_counts(columns)
        self.report_path = ctx.work / "report.json"
        self.released_path = ctx.work / "released.csv"
        self.release_seed = seed
        self.expected = self._expected_calibration()
        self.digests: dict[str, str] = {}
        self.largest_child_mb = 0.0
        self.release_child_mb = 0.0

    def _expected_calibration(self) -> dict:
        secrets, _ = inputs.census_labels()
        support = np.arange(1.0, inputs.CENSUS_LABELS + 1.0)
        masses = self.counts / self.counts.sum(axis=1, keepdims=True)
        sens = {}
        for i in range(len(secrets)):
            for j in range(i + 1, len(secrets)):
                rows, cols, _ = ind.comonotone_coupling(masses[i], masses[j])
                sens[(secrets[i], secrets[j])] = ind.coupling_sensitivity(support, support, rows, cols)
        return {"pairs": sens, "theta": max(sens.values()) / inputs.CENSUS_EPSILON}

    def _calibrate_args(self) -> list[str]:
        return ["calibrate", "--table", str(self.table), "--secret-col", inputs.CENSUS_SECRET_COL,
                "--data-col", inputs.CENSUS_DATA_COL, "--mapping", str(self.mapping),
                "--epsilon", repr(inputs.CENSUS_EPSILON), "--method", "theorem1",
                "--out", str(self.report_path)]

    def _release_args(self, theta: float) -> list[str]:
        return ["release", "--table", str(self.table), "--data-col", inputs.CENSUS_DATA_COL,
                "--mapping", str(self.mapping), "--theta", repr(theta),
                "--seed", str(self.release_seed), "--out", str(self.released_path)]

    def _theta(self) -> float:
        return float(json.loads(self.report_path.read_text(encoding="utf-8"))["theta"])

    def _cli(self, args: list[str]) -> float:
        """Runs one CLI command as a child; returns its own peak RSS in MB."""
        peak_file = self.ctx.work / "cli_peak_mb"
        self.ctx.child([str(self.ctx.root / "bench" / "cli_child.py"), str(peak_file), *args])
        peak = float(peak_file.read_text(encoding="ascii"))
        self.largest_child_mb = max(self.largest_child_mb, peak)
        return peak

    def op_steps(self, prepared):
        def release():
            peak = self._cli(self._release_args(self._theta()))
            self.release_child_mb = max(self.release_child_mb, peak)

        return [lambda: self._cli(self._calibrate_args()), release]

    def in_process_steps(self, prepared, tracer=None) -> list:
        """The same two commands through ``pufferot.cli.main``, each a ``cli.*`` span."""
        from pufferot import cli

        def command(layer: str, args):
            argv = args()
            code = tracer.span(layer, cli.main, argv) if tracer else cli.main(argv)
            if code != 0:
                raise RuntimeError(f"pufferot {argv[0]} exited with {code}")

        return [functools.partial(command, "cli.calibrate", self._calibrate_args),
                functools.partial(command, "cli.release",
                                  lambda: self._release_args(self._theta()))]

    def check(self, prepared, outputs) -> None:
        report_bytes = self.report_path.read_bytes()
        released_bytes = self.released_path.read_bytes()
        digests = {
            "report": hashlib.sha256(report_bytes).hexdigest(),
            "released": hashlib.sha256(released_bytes).hexdigest(),
        }
        if self.digests:
            expect(digests == self.digests,
                   "a rerun with the same inputs and seed wrote different bytes")
            return
        self._check_report(json.loads(report_bytes))
        self._check_released(released_bytes.decode("utf-8"))
        self.digests = digests

    def _check_report(self, report: dict) -> None:
        got = {tuple(rec["labels"]): rec["sensitivity"] for rec in report["pairs"]}
        expect(got.keys() == self.expected["pairs"].keys(),
               f"report holds {len(got)} pairs, expected {len(self.expected['pairs'])}")
        wrong = [k for k, v in got.items() if v != self.expected["pairs"][k]]
        expect(not wrong, f"{len(wrong)} pair sensitivities differ from the table's counts, "
                          f"first {wrong[:1]}")
        expect(close(report["theta"], self.expected["theta"]),
               f"theta {report['theta']} != {self.expected['theta']}")

    def _check_released(self, text: str) -> None:
        original = self.table.read_text(encoding="utf-8").splitlines()
        released = text.splitlines()
        expect(len(released) == len(original),
               f"released {len(released) - 1} rows of {len(original) - 1}")
        expect(released[0] == original[0], "released header differs")
        col = inputs.CENSUS_HEADER.index(inputs.CENSUS_DATA_COL)
        values = np.empty(len(released) - 1)
        for k, (a, b) in enumerate(zip(original[1:], released[1:])):
            fa, fb = a.split(","), b.split(",")
            expect(len(fa) == len(fb) and fa[:col] == fb[:col] and fa[col + 1:] == fb[col + 1:],
                   f"row {k + 2} changed outside {inputs.CENSUS_DATA_COL}: {a!r} -> {b!r}")
            values[k] = float(fb[col])
        noise = values - (self.columns["label"] + 1)
        theta, n = self.expected["theta"], noise.size
        mean_bound = SAMPLING_SIGMAS * math.sqrt(2.0) * theta / math.sqrt(n)
        # Var of a squared Laplace(theta) draw is 24 theta^4 - (2 theta^2)^2.
        var_bound = SAMPLING_SIGMAS * math.sqrt(20.0) * theta**2 / math.sqrt(n)
        expect(abs(noise.mean()) <= mean_bound,
               f"noise mean {noise.mean():.4g} outside +-{mean_bound:.4g}")
        expect(abs(noise.var() - 2 * theta**2) <= var_bound,
               f"noise variance {noise.var():.6g} not within {var_bound:.4g} of 2 theta^2")

    def setup_args(self) -> list[str]:
        return [str(self.table), str(self.mapping)]

    def check_setup(self, digest: dict) -> None:
        secrets, _ = inputs.census_labels()
        want = {s: self.counts[i].tolist() for i, s in enumerate(secrets)}
        expect(digest.get("counts") == want,
               "per-secret counts from load_table differ from the generated table")

    def bindings(self) -> list[Binding]:
        return _calibration_bindings("pufferot.cli") + [
            Binding("pufferot.cli", "load_table", "tabular.load_table", _table_counts),
            Binding("pufferot.cli", "empirical_conditionals", "tabular.empirical_conditionals"),
            Binding("pufferot.cli", "enumerate_pairs", "tabular.enumerate_pairs", _pair_counts),
            Binding("pufferot.cli", "release_values", "mechanisms.release", _release_counts),
        ]

    def peak_rss_mb(self) -> float:
        return self.largest_child_mb

    def trace_extras(self) -> dict:
        return {"cli.release.peak_rss_mb": self.release_child_mb}


WORKLOADS = {w.name: w for w in (Figure4Sweep, CountingCertify, CensusRelease)}
