import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pufferot import (
    INVERSE_SCALE,
    DiscreteDistribution,
    DiscriminativePair,
    L1,
    MechanismSpec,
    Metric,
    NumericError,
    RateFunction,
    TransportPlan,
    ValidationError,
    calibrate_exponential,
    calibrate_gaussian,
    calibrate_pufferfish,
    optimal_plan,
    plan_sensitivity,
    relaxed_theta,
    release,
    sample_noise,
)

from oracles import per_equation_relaxed_theta

EPS_GRID = [0.5, 0.8, 1.0, 1.8, 3.0, 5.8]
FIGURE4_EPS_GRID = [0.8 + 0.5 * k for k in range(11)]
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def shifted_diagonal_pair():
    """p = (1/2, 1/2) on {0, 1}, q the same shifted by one: all entries at distance 1."""
    p = DiscreteDistribution.from_weights([0, 1], [1, 1])
    q = DiscreteDistribution.from_weights([1, 2], [1, 1])
    return DiscriminativePair(labels=("low", "high"), p=p, q=q, prior="synthetic")


def random_pair(rng, n, empty):
    """Dirichlet(1) conditionals on 1..n, each with ``empty`` atoms set to zero."""
    masses = []
    for _ in range(2):
        mass = rng.dirichlet(np.ones(n))
        mass[rng.choice(n, empty, replace=False)] = 0.0
        masses.append(mass)
    support = np.arange(1, n + 1)
    return DiscriminativePair(
        labels=("a", "b"),
        p=DiscreteDistribution.from_weights(support, masses[0]),
        q=DiscreteDistribution.from_weights(support, masses[1]),
        prior=f"random-{n}",
    )


def reference_theta(plan, p, q, epsilon):
    return per_equation_relaxed_theta(plan, p, q, epsilon, L1, INVERSE_SCALE)


def constraint_values(plan, p, q, epsilon, theta):
    """All row/column moment-equation left sides over their targets."""
    dist = np.abs(plan.displacements())
    ratios = []
    for indices, marginals in ((plan.rows, p.mass), (plan.cols, q.mass)):
        for k in np.unique(indices):
            sel = indices == k
            lhs = float(np.sum(plan.mass[sel] * np.exp(dist[sel] / theta)))
            ratios.append(lhs / (math.exp(epsilon) * marginals[k]))
    return ratios


class TestRateFunction:
    def test_default_round_trip(self):
        assert INVERSE_SCALE.forward(INVERSE_SCALE.inverse(0.7)) == pytest.approx(0.7)

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ValidationError, match="rate function"):
            RateFunction(forward=lambda t: 1.0 / t, inverse=lambda a: 2.0 / a, name="broken")


class TestMechanismSpec:
    def test_laplace_variance(self):
        spec = MechanismSpec(family="laplace", theta=2.5, epsilon=0.8)
        assert spec.variance == pytest.approx(12.5)

    def test_gaussian_variance(self):
        spec = MechanismSpec(family="gaussian", theta=3.0, epsilon=1.0, delta=1e-5)
        assert spec.variance == pytest.approx(9.0)

    def test_delta_requires_gaussian(self):
        with pytest.raises(ValidationError, match="delta"):
            MechanismSpec(family="laplace", theta=1.0, epsilon=1.0, delta=1e-5)

    def test_delta_range(self):
        with pytest.raises(ValidationError, match="delta"):
            MechanismSpec(family="gaussian", theta=1.0, epsilon=1.0, delta=1.5)

    def test_negative_theta_rejected(self):
        with pytest.raises(ValidationError, match="theta"):
            MechanismSpec(family="laplace", theta=-1.0, epsilon=1.0)

    def test_exponential_needs_metric_and_rate(self):
        with pytest.raises(ValidationError, match="exponential"):
            MechanismSpec(family="exponential", theta=1.0, epsilon=1.0)

    @settings(max_examples=20, deadline=None)
    @given(bad=NON_FINITE)
    def test_non_finite_fields_rejected(self, bad):
        with pytest.raises(ValidationError, match="epsilon"):
            MechanismSpec(family="laplace", theta=1.0, epsilon=bad)
        with pytest.raises(ValidationError, match="theta"):
            MechanismSpec(family="laplace", theta=bad, epsilon=1.0)
        with pytest.raises(ValidationError, match="delta"):
            MechanismSpec(family="gaussian", theta=1.0, epsilon=1.0, delta=bad)


class TestCalibrateExponential:
    def test_unit_sensitivity(self):
        assert calibrate_exponential(1.0, 1.0) == pytest.approx(1.0)
        assert calibrate_exponential(1.0, 0.25) == pytest.approx(4.0)

    def test_zero_sensitivity_noiseless(self):
        assert calibrate_exponential(0.0, 3.0) == 0.0

    def test_published_variance_point(self):
        theta = calibrate_exponential(2.0, 0.8)
        assert theta == pytest.approx(2.5)
        assert 2.0 * theta**2 == pytest.approx(12.5)

    def test_epsilon_positive(self):
        with pytest.raises(ValidationError, match="epsilon"):
            calibrate_exponential(1.0, 0.0)

    @settings(max_examples=20, deadline=None)
    @given(bad=NON_FINITE)
    def test_non_finite_epsilon_rejected(self, bad):
        with pytest.raises(ValidationError, match="epsilon"):
            calibrate_exponential(1.0, bad)


class TestCalibrateGaussian:
    def test_variant_a_closed_form(self):
        theta = calibrate_gaussian(1.0, 1.0, 1e-5, variant="a")
        assert theta == pytest.approx(4.844805262605389, abs=1e-9)

    def test_variant_b_closed_form(self):
        theta = calibrate_gaussian(1.0, 2.0, 0.01, variant="b")
        assert theta == pytest.approx(2.0264216028196467, abs=1e-3)

    def test_zero_sensitivity(self):
        assert calibrate_gaussian(0.0, 1.0, 1e-5, "a") == 0.0
        assert calibrate_gaussian(0.0, 2.0, 1e-5, "b") == 0.0

    def test_variant_a_epsilon_cap(self):
        with pytest.raises(ValidationError, match="epsilon <= 1"):
            calibrate_gaussian(1.0, 1.5, 1e-5, variant="a")

    def test_delta_bounds(self):
        with pytest.raises(ValidationError, match="delta"):
            calibrate_gaussian(1.0, 1.0, 0.0, variant="a")

    @settings(max_examples=20, deadline=None)
    @given(bad=NON_FINITE, variant=st.sampled_from(["a", "b"]))
    def test_non_finite_inputs_rejected(self, bad, variant):
        with pytest.raises(ValidationError, match="epsilon"):
            calibrate_gaussian(1.0, bad, 1e-5, variant=variant)
        with pytest.raises(ValidationError, match="delta"):
            calibrate_gaussian(1.0, 0.5, bad, variant=variant)

    def test_variant_b_exceeds_strict_bound(self):
        delta = 0.01
        t = 0.41 * delta ** (-1 / 3)
        strict = (t + math.sqrt(t * t + 1.0)) / 2.0
        assert calibrate_gaussian(1.0, 2.0, delta, "b") > strict


class TestRelaxedTheta:
    def test_adult_fixture_point(self, adult_pair):
        plan = optimal_plan(adult_pair.p, adult_pair.q)
        theta = relaxed_theta(plan, adult_pair.p, adult_pair.q, 0.8)
        assert theta == pytest.approx(1.25, abs=1e-3)

    def test_diagonal_plan_zero(self):
        p = DiscreteDistribution.from_weights([1, 2], [1, 3])
        assert relaxed_theta(optimal_plan(p, p), p, p, 1.0) == 0.0

    @pytest.mark.parametrize("epsilon", [0.5, 1.0, 2.0])
    def test_single_term_closed_form(self, epsilon):
        pair = shifted_diagonal_pair()
        plan = optimal_plan(pair.p, pair.q)
        theta = relaxed_theta(plan, pair.p, pair.q, epsilon)
        assert theta == pytest.approx(1.0 / epsilon, abs=1e-9)

    def test_reduces_to_strict_rule_for_single_distance(self):
        # every plan entry sits at distance 1, so the relaxed root must be
        # the strict scale eta^{-1}(eps / 1)
        pair = shifted_diagonal_pair()
        plan = optimal_plan(pair.p, pair.q)
        for epsilon in (0.7, 1.3):
            got = relaxed_theta(plan, pair.p, pair.q, epsilon)
            strict = calibrate_exponential(plan_sensitivity(plan, L1), epsilon)
            assert got == pytest.approx(strict, abs=1e-9)

    def test_binding_constraint_residual(self, adult_pair):
        plan = optimal_plan(adult_pair.p, adult_pair.q)
        for epsilon in (0.8, 2.3):
            theta = relaxed_theta(plan, adult_pair.p, adult_pair.q, epsilon)
            ratios = constraint_values(plan, adult_pair.p, adult_pair.q, epsilon, theta)
            assert max(ratios) == pytest.approx(1.0, rel=1e-8)
            assert max(ratios) <= 1.0 + 1e-8

    def test_relaxed_never_exceeds_strict(self, canonical_pairs):
        for pair in canonical_pairs:
            plan = optimal_plan(pair.p, pair.q)
            for epsilon in EPS_GRID:
                strict = calibrate_exponential(plan_sensitivity(plan, L1), epsilon)
                relaxed = relaxed_theta(plan, pair.p, pair.q, epsilon)
                assert relaxed <= strict + 1e-9

    def test_mismatched_plan_rejected(self, example1_pair, example2_pair):
        plan = optimal_plan(example1_pair.p, example1_pair.q)
        with pytest.raises(ValidationError, match="supports"):
            relaxed_theta(plan, example2_pair.p, example2_pair.q, 1.0)

    def test_matches_per_equation_reference_on_canonical_pairs(self, canonical_pairs):
        for pair in canonical_pairs:
            plan = optimal_plan(pair.p, pair.q)
            for epsilon in EPS_GRID + FIGURE4_EPS_GRID:
                expected = reference_theta(plan, pair.p, pair.q, epsilon)
                assert relaxed_theta(plan, pair.p, pair.q, epsilon) == expected

    @pytest.mark.parametrize(
        "n,empty,count,seed", [(5, 1, 4, 11), (14, 2, 4, 12), (100, 10, 2, 13), (300, 30, 1, 14)]
    )
    def test_matches_per_equation_reference_on_random_pairs(self, n, empty, count, seed):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            pair = random_pair(rng, n, empty)
            plan = optimal_plan(pair.p, pair.q)
            for epsilon in FIGURE4_EPS_GRID:
                expected = reference_theta(plan, pair.p, pair.q, epsilon)
                assert relaxed_theta(plan, pair.p, pair.q, epsilon) == expected

    def test_transposed_plan_gives_the_same_theta(self, canonical_pairs):
        rng = np.random.default_rng(15)
        for pair in canonical_pairs + [random_pair(rng, 100, 10)]:
            plan = optimal_plan(pair.p, pair.q)
            flipped = plan.transpose()
            for epsilon in FIGURE4_EPS_GRID:
                theta = relaxed_theta(flipped, pair.q, pair.p, epsilon)
                assert theta == reference_theta(flipped, pair.q, pair.p, epsilon)
                assert theta == relaxed_theta(plan, pair.p, pair.q, epsilon)

    def test_permuted_plan_entries(self, canonical_pairs):
        # the equations' entries are no longer contiguous in the plan
        rng = np.random.default_rng(16)
        for pair in canonical_pairs + [random_pair(rng, 100, 10)]:
            plan = optimal_plan(pair.p, pair.q)
            perm = rng.permutation(len(plan))
            shuffled = TransportPlan(
                rows=plan.rows[perm],
                cols=plan.cols[perm],
                mass=plan.mass[perm],
                source=pair.p,
                target=pair.q,
            )
            for epsilon in FIGURE4_EPS_GRID:
                expected = reference_theta(shuffled, pair.p, pair.q, epsilon)
                assert relaxed_theta(shuffled, pair.p, pair.q, epsilon) == expected

    def test_nan_rate_raises_numeric_error(self, adult_pair):
        # NaN on a band of scales the bisection probes: read as "g <= 0",
        # it would move the upper end of the bracket and yield a wrong root
        nan_rate = RateFunction(
            forward=lambda t: math.nan if 1.1 < t < 1.2 else 1.0 / t,
            inverse=lambda a: 1.0 / a,
            name="nan-rate",
        )
        plan = optimal_plan(adult_pair.p, adult_pair.q)
        with pytest.raises(NumericError, match="NaN"):
            relaxed_theta(plan, adult_pair.p, adult_pair.q, 0.8, rate=nan_rate)

    @settings(max_examples=20, deadline=None)
    @given(bad=NON_FINITE)
    def test_non_finite_epsilon_rejected(self, bad):
        pair = shifted_diagonal_pair()
        plan = optimal_plan(pair.p, pair.q)
        with pytest.raises(ValidationError, match="epsilon"):
            relaxed_theta(plan, pair.p, pair.q, bad)


class TestCalibratePufferfish:
    def test_worked_examples_take_the_max(self, example1_pair, example2_pair):
        report = calibrate_pufferfish([example1_pair, example2_pair], epsilon=1.0)
        assert report.theta == pytest.approx(2.0)
        assert report.method == "theorem-1"
        assert [rec.sensitivity for rec in report.pairs] == [1.0, 2.0]

    def test_identical_pair_noiseless(self):
        p = DiscreteDistribution.from_weights([1, 2], [1, 1])
        pair = DiscriminativePair(labels=("a", "b"), p=p, q=p)
        report = calibrate_pufferfish([pair], epsilon=1.0)
        assert report.theta == 0.0

    def test_adult_relaxed_point(self, adult_pair):
        report = calibrate_pufferfish([adult_pair], epsilon=0.8, method="theorem2")
        assert report.theta == pytest.approx(1.25, abs=1e-3)
        assert report.variance == pytest.approx(3.125, rel=1e-3)
        assert report.method == "theorem-2"

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValidationError, match="at least one"):
            calibrate_pufferfish([], epsilon=1.0)

    def test_unknown_method_rejected(self, example1_pair):
        with pytest.raises(ValidationError, match="method"):
            calibrate_pufferfish([example1_pair], epsilon=1.0, method="theorem9")

    def test_gaussian_requires_delta(self, example1_pair):
        with pytest.raises(ValidationError, match="delta"):
            calibrate_pufferfish([example1_pair], epsilon=1.0, method="gaussian-a")

    def test_gaussian_report(self, example1_pair):
        report = calibrate_pufferfish(
            [example1_pair], epsilon=1.0, method="gaussian-a", delta=1e-5
        )
        assert report.theta == pytest.approx(4.844805262605389, abs=1e-9)
        assert report.variance == pytest.approx(report.theta**2)

    @settings(max_examples=30, deadline=None)
    @given(bad=NON_FINITE, method=st.sampled_from(["theorem1", "theorem2", "gaussian-b"]))
    def test_non_finite_epsilon_rejected(self, bad, method):
        pair = shifted_diagonal_pair()
        delta = 1e-5 if method == "gaussian-b" else None
        with pytest.raises(ValidationError, match="epsilon"):
            calibrate_pufferfish([pair], epsilon=bad, method=method, delta=delta)

    def test_variance_rule_trusts_only_the_builtin_l1(self, example1_pair):
        lookalike = Metric(fn=lambda z: 2 * abs(z), convex=True, name="l1")
        report = calibrate_pufferfish([example1_pair], epsilon=1.0, metric=lookalike)
        assert report.variance is None
        assert calibrate_pufferfish([example1_pair], epsilon=1.0).variance == 2.0

    def test_json_fields(self, example1_pair):
        report = calibrate_pufferfish([example1_pair], epsilon=1.0)
        payload = report.to_json_dict()
        assert set(payload) == {
            "method", "epsilon", "delta", "theta", "variance", "pairs", "verification",
        }
        assert payload["pairs"][0]["sensitivity"] == 1.0

    @pytest.mark.parametrize(
        "method,delta",
        [("theorem1", None), ("theorem2", None), ("gaussian-a", 1e-5), ("gaussian-b", 1e-5)],
    )
    def test_monotone_in_epsilon(self, adult_pair, method, delta):
        grid = [0.2, 0.5, 0.8, 1.0] if method == "gaussian-a" else EPS_GRID
        thetas = [
            calibrate_pufferfish([adult_pair], epsilon=eps, method=method, delta=delta).theta
            for eps in grid
        ]
        assert all(a >= b - 1e-12 for a, b in zip(thetas, thetas[1:]))


class TestSampling:
    def test_zero_scale_yields_zeros(self):
        spec = MechanismSpec(family="laplace", theta=0.0, epsilon=1.0)
        assert sample_noise(spec, 5, seed=1).tolist() == [0.0] * 5

    def test_laplace_moments(self):
        spec = MechanismSpec(family="laplace", theta=1.0, epsilon=1.0)
        draws = sample_noise(spec, 10**6, seed=42)
        assert np.var(draws) == pytest.approx(2.0, rel=0.01)

    def test_gaussian_moments(self):
        spec = MechanismSpec(family="gaussian", theta=3.0, epsilon=1.0)
        draws = sample_noise(spec, 10**6, seed=42)
        assert np.var(draws) == pytest.approx(9.0, rel=0.01)

    def test_seeded_determinism(self):
        spec = MechanismSpec(family="gaussian", theta=2.0, epsilon=1.0)
        a = sample_noise(spec, 1000, seed=7)
        b = sample_noise(spec, 1000, seed=7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_noise(spec, 1000, seed=8))

    def test_exponential_family_not_samplable(self):
        spec = MechanismSpec(
            family="exponential", theta=1.0, epsilon=1.0, metric=L1, rate=INVERSE_SCALE
        )
        with pytest.raises(ValidationError, match="sampling"):
            sample_noise(spec, 3, seed=0)


class TestRelease:
    def test_noiseless_identity(self):
        spec = MechanismSpec(family="laplace", theta=0.0, epsilon=1.0)
        assert release([1, 2, 3], spec, seed=0).tolist() == [1.0, 2.0, 3.0]

    def test_empty_sequence(self):
        spec = MechanismSpec(family="laplace", theta=1.0, epsilon=1.0)
        assert release([], spec, seed=0).size == 0

    def test_mse_matches_noise_variance(self, adult_pair):
        spec = MechanismSpec(family="laplace", theta=2.5, epsilon=0.8)
        rng = np.random.default_rng(3)
        values = rng.choice(adult_pair.p.support, size=200_000, p=adult_pair.p.mass)
        noised = release(values, spec, seed=11)
        mse = np.mean((noised - values) ** 2)
        assert mse == pytest.approx(12.5, rel=0.05)

    def test_deterministic_given_seed(self):
        spec = MechanismSpec(family="laplace", theta=1.5, epsilon=1.0)
        a = release(np.arange(10.0), spec, seed=5)
        b = release(np.arange(10.0), spec, seed=5)
        assert np.array_equal(a, b)
