"""Tests of the benchmark's reference computations on the paper's examples.

Worked examples 1 and 2 and the adult education-by-race pair have known
couplings, sensitivities and Figure-4 scales; the references must
reproduce them without the library's code paths.
"""

import json
import math
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import independent as ind
import pufferot as po
import run
from workloads import FIGURE4_THEOREM1, FIGURE4_THEOREM2

EXAMPLE_1 = ([1 / 3, 1 / 6, 1 / 3, 1 / 6], [1 / 4, 1 / 4, 1 / 6, 1 / 3])
EXAMPLE_2 = ([0.2, 0.225, 0.5, 0.075, 0.0], [0.0, 0.075, 0.5, 0.225, 0.2])
# The couplings printed with the worked examples, entry (row, col) -> mass.
COUPLING_1 = {(0, 0): Fraction(1, 4), (0, 1): Fraction(1, 12), (1, 1): Fraction(1, 6),
              (2, 2): Fraction(1, 6), (2, 3): Fraction(1, 6), (3, 3): Fraction(1, 6)}
COUPLING_2 = {(0, 1): 0.075, (0, 2): 0.125, (1, 2): 0.225, (2, 2): 0.15,
              (2, 3): 0.225, (2, 4): 0.125, (3, 4): 0.075}


def example(masses):
    p, q = masses
    support = np.arange(1.0, len(p) + 1.0)
    return po.DiscriminativePair(("a", "b"), po.DiscreteDistribution(support, p),
                                 po.DiscreteDistribution(support, q))


PAIRS = {"example_1": example(EXAMPLE_1), "example_2": example(EXAMPLE_2),
         "adult": po.adult_education_pair()}
SENSITIVITY = {"example_1": 1.0, "example_2": 2.0, "adult": 2.0}


def coupling(pair):
    return ind.comonotone_coupling(pair.p.mass, pair.q.mass)


@pytest.mark.parametrize("masses, golden", [(EXAMPLE_1, COUPLING_1), (EXAMPLE_2, COUPLING_2)])
def test_coupling_reproduces_worked_examples(masses, golden):
    rows, cols, mass = ind.comonotone_coupling(*masses)
    got = {(int(r), int(c)): m for r, c, m in zip(rows, cols, mass)}
    assert got.keys() == golden.keys()
    for key, want in golden.items():
        assert got[key] == pytest.approx(float(want), abs=1e-12)


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_coupling_matches_library_plan_and_sensitivity(name):
    pair = PAIRS[name]
    rows, cols, mass = coupling(pair)
    plan = po.optimal_plan(pair.p, pair.q)
    assert np.array_equal(rows, plan.rows) and np.array_equal(cols, plan.cols)
    assert np.abs(mass - plan.mass).max() <= 1e-12
    sens = ind.coupling_sensitivity(pair.p.support, pair.q.support, rows, cols)
    assert sens == SENSITIVITY[name] == po.plan_sensitivity(plan)


@pytest.mark.parametrize("name", sorted(PAIRS))
@pytest.mark.parametrize("epsilon", [0.8, 1.0, 3.3])
def test_moment_equations_bind_at_the_relaxed_scale(name, epsilon):
    pair = PAIRS[name]
    theta = po.calibrate_pufferfish([pair], epsilon, "theorem2").theta
    tol = ind.moment_tolerance(SENSITIVITY[name], theta)
    at_root = ind.moment_residuals(pair.p.support, pair.p.mass, pair.q.support, pair.q.mass,
                                   theta, epsilon)
    assert at_root.max() <= tol and at_root.max() >= -tol
    # A slightly smaller scale breaks the binding equation; a larger one slackens all.
    below = ind.moment_residuals(pair.p.support, pair.p.mass, pair.q.support, pair.q.mass,
                                 theta * (1 - 1e-6), epsilon)
    above = ind.moment_residuals(pair.p.support, pair.p.mass, pair.q.support, pair.q.mass,
                                 theta * (1 + 1e-6), epsilon)
    assert below.max() > tol
    assert above.max() < -tol


def test_adult_figure4_scales():
    pair = PAIRS["adult"]
    for k, epsilon in enumerate(0.8 + 0.5 * np.arange(11)):
        strict = SENSITIVITY["adult"] / epsilon
        assert 2 * strict**2 == pytest.approx(FIGURE4_THEOREM1[k], rel=1e-6)
        relaxed = po.calibrate_pufferfish([pair], epsilon, "theorem2").theta
        assert 2 * relaxed**2 == pytest.approx(FIGURE4_THEOREM2[k], rel=1e-3)
        residuals = ind.moment_residuals(pair.p.support, pair.p.mass, pair.q.support,
                                         pair.q.mass, relaxed, epsilon)
        assert abs(residuals.max()) <= ind.moment_tolerance(SENSITIVITY["adult"], relaxed)


def test_poisson_binomial_dp_matches_enumeration_and_library():
    ps = [0.1, 0.35, 0.5, 0.8, 0.95, 0.6]
    brute = np.zeros(len(ps) + 1)
    for bits in product((0, 1), repeat=len(ps)):
        brute[sum(bits)] += math.prod(p if b else 1 - p for p, b in zip(ps, bits))
    dp = ind.poisson_binomial_dp(ps)
    assert np.abs(dp - brute).max() <= 1e-15
    assert np.abs(dp - po.poisson_binomial(ps).mass).max() <= 1e-15


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_laplace_support_points_decide_the_certificate(name):
    pair = PAIRS[name]
    p, q = pair.p, pair.q
    for method in ("theorem1", "theorem2"):
        theta = po.calibrate_pufferfish([pair], 1.0, method).theta
        at_support = ind.laplace_support_log_ratio(p.support, p.mass, q.support, q.mass, theta)
        assert at_support <= 1.0 + 1e-9
        spec = po.MechanismSpec("laplace", theta, 1.0)
        grid = po.verify_pufferfish([pair], spec, 1.0).checks[0].worst_log_ratio
        assert at_support == pytest.approx(grid, abs=1e-9)


def test_laplace_support_points_flag_an_undersized_scale():
    pair = PAIRS["example_2"]
    ratio = ind.laplace_support_log_ratio(pair.p.support, pair.p.mass, pair.q.support,
                                          pair.q.mass, 1.0)
    assert ratio > 1.0


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_gaussian_tail_mass_against_quadrature(name):
    sens, epsilon, delta = SENSITIVITY[name], 0.8, 1e-5
    theta = ind.gaussian_theta(sens, epsilon, delta, "a")
    assert theta == pytest.approx(
        po.calibrate_pufferfish([PAIRS[name]], epsilon, "gaussian-a", delta=delta).theta,
        rel=1e-12)
    mass = ind.gaussian_tail_mass(theta, epsilon, sens)
    t = epsilon * theta / sens - sens / (2 * theta)
    z = np.linspace(t, t + 12.0, 200_001)
    density = np.exp(-0.5 * z**2) / math.sqrt(2 * math.pi)
    quadrature = 2 * float(np.sum((density[1:] + density[:-1]) / 2 * np.diff(z)))
    assert mass == pytest.approx(quadrature, rel=1e-6)
    assert mass <= delta
    assert mass == pytest.approx(po.gaussian_violation_mass(theta, epsilon, sens), rel=1e-12)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_tracer_fails_on_a_binding_that_never_fires():
    from tracer import Binding, Tracer

    tracer = Tracer([Binding("pufferot.mechanisms", "relaxed_theta", "mechanisms.relaxed_theta")])
    tracer.install()
    try:
        po.calibrate_pufferfish([PAIRS["adult"]], 1.0, "theorem1")
    finally:
        tracer.uninstall()
    with pytest.raises(RuntimeError, match="pufferot.mechanisms.relaxed_theta"):
        tracer.check_all_fired()
    with pytest.raises(AttributeError):
        Tracer([Binding("pufferot.mechanisms", "renamed_away", "x")]).install()
