"""Acceptance suite: one test per release criterion, at the stated tolerance.

Each criterion reports a pass/fail line in the terminal summary (see
conftest). Everything here runs against the packaged fixture and frozen
expected values; nothing downloads or regenerates data.
"""

import numpy as np
import pytest

from pufferot import (
    DiscreteDistribution,
    L1,
    MechanismSpec,
    bernoulli_counting,
    calibrate_exponential,
    calibrate_gaussian,
    calibrate_pufferfish,
    discriminative_pairs,
    gaussian_violation_mass,
    optimal_plan,
    plan_sensitivity,
    relaxed_theta,
    release,
    support_sensitivity,
    verify_pufferfish,
    w1_distance,
)

from conftest import acceptance_results
from oracles import lp_transport_cost, normal_two_sided_tail
from test_transport import GOLDEN_PLAN_1, GOLDEN_PLAN_2, plan_as_dict

# Published noise-variance series for the education-by-race pair over the
# epsilon grid 0.8 .. 5.8 (step 0.5): strict calibration and relaxed
# calibration, both for Laplace noise.
STRICT_VARIANCE_SERIES = {
    0.8: 12.5,
    1.3: 4.73372781065089,
    1.8: 2.46913580246914,
    2.3: 1.51228733459357,
    2.8: 1.02040816326531,
    3.3: 0.734618916437098,
    3.8: 0.554016620498615,
    4.3: 0.432666306111412,
    4.8: 0.347222222222222,
    5.3: 0.284798860804557,
    5.8: 0.237812128418549,
}
RELAXED_VARIANCE_SERIES = {
    0.8: 3.125,
    1.3: 1.18343195266272,
    1.8: 0.617283950617284,
    2.3: 0.397579269785382,
    2.8: 0.305394110969956,
    3.3: 0.244884060038036,
    3.8: 0.202304351924927,
    4.3: 0.170824401238967,
    4.8: 0.146680137698887,
    5.3: 0.127631329335633,
    5.8: 0.112262755234664,
}

HETERO_PS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.35]


def test_criterion_1_first_worked_example(criterion, example1_pair):
    with criterion(1, "first worked example: coupling entries, sensitivity 1, theta = 1/eps"):
        plan = optimal_plan(example1_pair.p, example1_pair.q)
        got = plan_as_dict(plan)
        assert set(got) == set(GOLDEN_PLAN_1)
        for key, expected in GOLDEN_PLAN_1.items():
            assert abs(got[key] - float(expected)) <= 1e-12
        assert plan_sensitivity(plan, L1) == 1.0
        for epsilon in (0.5, 1.0, 2.0):
            assert calibrate_exponential(plan_sensitivity(plan, L1), epsilon) == pytest.approx(
                1.0 / epsilon, abs=1e-12
            )
        assert calibrate_exponential(1.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_criterion_2_second_worked_example(criterion, example2_pair):
    with criterion(2, "second worked example: cumulative and coupling tables, theta = 2/eps"):
        from test_transport import GOLDEN_CMF_2
        from pufferot import joint_cdf_table

        cmf = joint_cdf_table(example2_pair.p, example2_pair.q)
        assert np.abs(cmf - np.array(GOLDEN_CMF_2)).max() <= 1e-12
        plan = optimal_plan(example2_pair.p, example2_pair.q)
        got = plan_as_dict(plan)
        assert set(got) == set(GOLDEN_PLAN_2)
        for key, expected in GOLDEN_PLAN_2.items():
            assert abs(got[key] - expected) <= 1e-12
        assert plan_sensitivity(plan, L1) == 2.0
        for epsilon in (0.5, 1.0, 2.0):
            assert calibrate_exponential(2.0, epsilon) == pytest.approx(2.0 / epsilon, abs=1e-12)


def test_criterion_3_adult_fixture_sensitivities(criterion, adult_pair):
    with criterion(3, "education-by-race fixture: plan sensitivity 2; diameter discrepancy logged"):
        plan = optimal_plan(adult_pair.p, adult_pair.q)
        assert plan_sensitivity(plan, L1) == 2.0
        computed = support_sensitivity(adult_pair.p, adult_pair.q, L1)
        quoted = 14.0  # diameter quoted alongside the dataset description
        acceptance_results.append(
            f"criterion 3 note: support diameter computed={computed:g} vs quoted={quoted:g} "
            "(14 contiguous indices span 13; only the plan sensitivity is asserted)"
        )
        assert computed == 13.0
        assert computed != quoted


def test_criterion_4_variance_series(criterion, adult_pair):
    with criterion(4, "variance-vs-epsilon series: strict within 1e-6, relaxed within 1e-3 (relative)"):
        for epsilon, expected in STRICT_VARIANCE_SERIES.items():
            report = calibrate_pufferfish([adult_pair], epsilon=epsilon, method="theorem1")
            assert report.variance == pytest.approx(expected, rel=1e-6)
        for epsilon, expected in RELAXED_VARIANCE_SERIES.items():
            report = calibrate_pufferfish([adult_pair], epsilon=epsilon, method="theorem2")
            assert report.variance == pytest.approx(expected, rel=1e-3)
        assert calibrate_pufferfish([adult_pair], 0.8, "theorem1").variance == pytest.approx(12.5, rel=1e-6)
        assert calibrate_pufferfish([adult_pair], 0.8, "theorem2").variance == pytest.approx(3.125, rel=1e-3)


def test_criterion_5_counting_scenarios(criterion):
    with criterion(5, "counting scenarios: unit-offset plan support; absence pairs within sensitivity 1"):
        for ps in ([0.7] * 25, HETERO_PS):
            system = bernoulli_counting(ps)
            (value_pair,) = discriminative_pairs(system, 0, "values")
            plan = optimal_plan(value_pair.p, value_pair.q)
            assert np.all(plan.displacements() == -1.0)
            for pair in discriminative_pairs(system, 0, "absence"):
                plan = optimal_plan(pair.p, pair.q)
                assert plan_sensitivity(plan, L1) <= 1.0


def test_criterion_6_transport_oracle(criterion):
    with criterion(6, "50 random pairs: plan cost matches the LP oracle within 1e-9; dominance holds"):
        rng = np.random.default_rng(61803)
        for _ in range(50):
            def draw():
                n = int(rng.integers(1, 8))
                support = np.sort(rng.choice(60, size=n, replace=False) + rng.random(n))
                return DiscreteDistribution.from_weights(support, rng.random(n) + 1e-3)

            p, q = draw(), draw()
            assert abs(w1_distance(p, q, L1) - lp_transport_cost(p, q)) <= 1e-9
            plan = optimal_plan(p, q)
            assert plan_sensitivity(plan, L1) <= support_sensitivity(p, q, L1) + 1e-12


def test_criterion_7_verification_soundness(criterion, canonical_pairs, example2_pair):
    with criterion(7, "calibrated Laplace noise verifies on all fixtures; undersized scale is flagged"):
        epsilon = 1.0
        for pair in canonical_pairs:
            for method in ("theorem1", "theorem2"):
                theta = calibrate_pufferfish([pair], epsilon=epsilon, method=method).theta
                spec = MechanismSpec(family="laplace", theta=theta, epsilon=epsilon)
                report = verify_pufferfish([pair], spec, epsilon)
                assert report.passed
                assert report.checks[0].worst_log_ratio <= epsilon + 1e-6
        undersized = MechanismSpec(family="laplace", theta=1.0, epsilon=epsilon)
        report = verify_pufferfish([example2_pair], undersized, epsilon)
        assert not report.passed


def test_criterion_8_gaussian_delta_approximation(criterion):
    with criterion(8, "Gaussian variant-a scale keeps the violation tail within delta; halving it is detected"):
        delta = 1e-5
        theta = calibrate_gaussian(1.0, 1.0, delta, variant="a")
        mass = gaussian_violation_mass(theta, 1.0, 1.0)
        assert mass <= delta
        c = theta
        assert mass == pytest.approx(normal_two_sided_tail(c - 1.0 / (2 * c)), rel=1e-9)
        halved = gaussian_violation_mass(theta / 2.0, 1.0, 1.0)
        assert halved > delta


def test_criterion_9_property_suite(criterion, canonical_pairs):
    with criterion(9, "relaxed <= strict; calibrations nonincreasing in eps; seeded determinism; marginals conserved"):
        eps_grid = [0.5, 0.8, 1.3, 2.0, 3.5, 5.8]
        for pair in canonical_pairs:
            plan = optimal_plan(pair.p, pair.q)
            row = np.bincount(plan.rows, weights=plan.mass, minlength=len(pair.p))
            col = np.bincount(plan.cols, weights=plan.mass, minlength=len(pair.q))
            assert np.abs(row - pair.p.mass).max() <= 1e-10
            assert np.abs(col - pair.q.mass).max() <= 1e-10
            strict_thetas, relaxed_thetas = [], []
            for epsilon in eps_grid:
                strict = calibrate_exponential(plan_sensitivity(plan, L1), epsilon)
                relaxed = relaxed_theta(plan, epsilon)
                assert relaxed <= strict + 1e-9
                strict_thetas.append(strict)
                relaxed_thetas.append(relaxed)
            for series in (strict_thetas, relaxed_thetas):
                assert all(a >= b - 1e-12 for a, b in zip(series, series[1:]))
        gauss_grid = [0.2, 0.5, 0.8, 1.0]
        for variant in ("a", "b"):
            thetas = [calibrate_gaussian(2.0, eps, 1e-5, variant) for eps in gauss_grid]
            assert all(a >= b - 1e-12 for a, b in zip(thetas, thetas[1:]))
        spec = MechanismSpec(family="laplace", theta=1.25, epsilon=0.8)
        values = np.arange(64.0)
        assert np.array_equal(release(values, spec, seed=13), release(values, spec, seed=13))
