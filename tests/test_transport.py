import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pufferot import (
    DiscreteDistribution,
    L1,
    Metric,
    ValidationError,
    joint_cdf_table,
    optimal_plan,
    plan_sensitivity,
    relaxed_theta,
    support_sensitivity,
    w1_distance,
)

from oracles import cdf_area_w1, lp_transport_cost, numpy_scalar_optimal_plan
from pufferot.scenarios import bernoulli_counting, discriminative_pairs

# Golden couplings for the two worked examples, as exact fractions.
GOLDEN_PLAN_1 = {
    (0, 0): Fraction(1, 4),
    (0, 1): Fraction(1, 12),
    (1, 1): Fraction(1, 6),
    (2, 2): Fraction(1, 6),
    (2, 3): Fraction(1, 6),
    (3, 3): Fraction(1, 6),
}
GOLDEN_CMF_1 = [
    [Fraction(1, 4), Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)],
    [Fraction(1, 4), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)],
    [Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(5, 6)],
    [Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(1, 1)],
]
GOLDEN_PLAN_2 = {
    (0, 1): 0.075,
    (0, 2): 0.125,
    (1, 2): 0.225,
    (2, 2): 0.15,
    (2, 3): 0.225,
    (2, 4): 0.125,
    (3, 4): 0.075,
}
GOLDEN_CMF_2 = [
    [0.0, 0.075, 0.2, 0.2, 0.2],
    [0.0, 0.075, 0.425, 0.425, 0.425],
    [0.0, 0.075, 0.575, 0.8, 0.925],
    [0.0, 0.075, 0.575, 0.8, 1.0],
    [0.0, 0.075, 0.575, 0.8, 1.0],
]


def plan_as_dict(plan):
    return {
        (int(i), int(j)): float(m)
        for i, j, m in zip(plan.rows, plan.cols, plan.mass)
    }


def random_pair(rng, max_atoms=7):
    def one():
        n = int(rng.integers(1, max_atoms + 1))
        support = np.sort(rng.choice(40, size=n, replace=False) + rng.random(n))
        return DiscreteDistribution.from_weights(support, rng.random(n) + 1e-3)

    return one(), one()


class TestGoldenPlans:
    def test_first_worked_example_plan(self, example1_pair):
        plan = optimal_plan(example1_pair.p, example1_pair.q)
        got = plan_as_dict(plan)
        assert set(got) == set(GOLDEN_PLAN_1)
        for key, expected in GOLDEN_PLAN_1.items():
            assert math.isclose(got[key], float(expected), abs_tol=1e-12)

    def test_first_worked_example_cmf(self, example1_pair):
        cmf = joint_cdf_table(example1_pair.p, example1_pair.q)
        expected = np.array([[float(v) for v in row] for row in GOLDEN_CMF_1])
        assert np.abs(cmf - expected).max() <= 1e-12

    def test_second_worked_example_plan(self, example2_pair):
        plan = optimal_plan(example2_pair.p, example2_pair.q)
        got = plan_as_dict(plan)
        assert set(got) == set(GOLDEN_PLAN_2)
        for key, expected in GOLDEN_PLAN_2.items():
            assert math.isclose(got[key], expected, abs_tol=1e-12)

    def test_second_worked_example_cmf(self, example2_pair):
        cmf = joint_cdf_table(example2_pair.p, example2_pair.q)
        assert np.abs(cmf - np.array(GOLDEN_CMF_2)).max() <= 1e-12

    def test_identity_coupling_is_diagonal(self):
        p = DiscreteDistribution.from_weights([1, 3, 7], [2, 5, 3])
        plan = optimal_plan(p, p)
        assert plan.rows.tolist() == plan.cols.tolist() == [0, 1, 2]
        assert np.abs(plan.mass - p.mass).max() <= 1e-15


class TestPlanSensitivity:
    def test_first_example_unit(self, example1_pair):
        plan = optimal_plan(example1_pair.p, example1_pair.q)
        assert plan_sensitivity(plan, L1) == 1.0

    def test_second_example_two(self, example2_pair):
        plan = optimal_plan(example2_pair.p, example2_pair.q)
        assert plan_sensitivity(plan, L1) == 2.0

    def test_diagonal_zero(self):
        p = DiscreteDistribution.from_weights([0, 1], [1, 1])
        assert plan_sensitivity(optimal_plan(p, p), L1) == 0.0


class TestW1:
    def test_first_example_quarter(self, example1_pair):
        got = w1_distance(example1_pair.p, example1_pair.q, L1)
        assert math.isclose(got, 0.25, abs_tol=1e-12)
        assert math.isclose(got, cdf_area_w1(example1_pair.p, example1_pair.q), abs_tol=1e-12)

    def test_identical_zero(self):
        p = DiscreteDistribution.from_weights([2, 4], [1, 3])
        assert w1_distance(p, p, L1) == 0.0

    def test_forced_dirac_transport(self):
        a = DiscreteDistribution.from_weights([0], [1])
        b = DiscreteDistribution.from_weights([3], [1])
        assert w1_distance(a, b, L1) == 3.0

    def test_nonconvex_metric_rejected(self):
        bounded = Metric(fn=lambda z: min(abs(z), 1.0), convex=False, name="bounded")
        p = DiscreteDistribution.from_weights([0, 1], [1, 1])
        with pytest.raises(ValidationError, match="convex"):
            w1_distance(p, p, bounded)


class TestSupportSensitivity:
    def test_first_example(self, example1_pair):
        assert support_sensitivity(example1_pair.p, example1_pair.q, L1) == 3.0

    def test_dirac_pair(self):
        a = DiscreteDistribution.from_weights([2], [1])
        b = DiscreteDistribution.from_weights([9], [1])
        assert support_sensitivity(a, b, L1) == 7.0

    def test_adult_fixture_diameter(self, adult_pair):
        assert support_sensitivity(adult_pair.p, adult_pair.q, L1) == 13.0

    def test_ignores_zero_atoms(self):
        p = DiscreteDistribution([0, 10], [1.0, 0.0])
        q = DiscreteDistribution([0, 10], [0.0, 1.0])
        assert support_sensitivity(p, q, L1) == 10.0
        assert support_sensitivity(p, p.prune(), L1) == 0.0


class TestOracleAgreement:
    def test_lp_cost_on_random_pairs(self):
        rng = np.random.default_rng(20240817)
        for _ in range(50):
            p, q = random_pair(rng)
            got = w1_distance(p, q, L1)
            assert math.isclose(got, lp_transport_cost(p, q), abs_tol=1e-9)

    def test_plan_never_exceeds_support_sensitivity(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            p, q = random_pair(rng)
            plan = optimal_plan(p, q)
            assert plan_sensitivity(plan, L1) <= support_sensitivity(p, q, L1) + 1e-12


@st.composite
def pair_strategy(draw):
    def one():
        n = draw(st.integers(1, 7))
        support = draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n, unique=True))
        weights = draw(st.lists(st.floats(0.05, 20.0), min_size=n, max_size=n))
        return DiscreteDistribution.from_weights(support, weights)

    return one(), one()


class TestPlanProperties:
    @given(pair_strategy())
    @settings(max_examples=60, deadline=None)
    def test_marginal_conservation(self, pq):
        p, q = pq
        plan = optimal_plan(p, q)
        row = np.bincount(plan.rows, weights=plan.mass, minlength=len(p))
        col = np.bincount(plan.cols, weights=plan.mass, minlength=len(q))
        assert np.abs(row - p.mass).max() <= 1e-10
        assert np.abs(col - q.mass).max() <= 1e-10
        assert abs(plan.mass.sum() - 1.0) <= 1e-10

    @given(pair_strategy())
    @settings(max_examples=60, deadline=None)
    def test_monotone_support(self, pq):
        p, q = pq
        plan = optimal_plan(p, q)
        order = np.lexsort((plan.cols, plan.rows))
        cols = plan.cols[order]
        assert np.all(np.diff(cols) >= 0)

    @given(pair_strategy())
    @settings(max_examples=60, deadline=None)
    def test_transpose_symmetry(self, pq):
        p, q = pq
        transposed = plan_as_dict(optimal_plan(p, q).transpose())
        backward = plan_as_dict(optimal_plan(q, p))
        assert set(backward) == set(transposed)
        for key, m in backward.items():
            assert math.isclose(transposed[key], m, abs_tol=1e-12)

    @given(pair_strategy())
    @settings(max_examples=60, deadline=None)
    def test_dominance(self, pq):
        p, q = pq
        plan = optimal_plan(p, q)
        assert plan_sensitivity(plan, L1) <= support_sensitivity(p, q, L1) + 1e-12

    def test_positive_entries_only(self, example2_pair):
        plan = optimal_plan(example2_pair.p, example2_pair.q)
        assert np.all(plan.mass > 0)


def dirichlet_dist(rng, support, empty):
    """Dirichlet(1) masses on ``support`` with ``empty`` atoms set to zero."""
    mass = rng.dirichlet(np.ones(len(support)))
    mass[rng.choice(len(support), empty, replace=False)] = 0.0
    return DiscreteDistribution.from_weights(support, mass)


def assert_same_plan(p, q):
    plan = optimal_plan(p, q)
    rows, cols, mass = numpy_scalar_optimal_plan(p, q)
    assert np.array_equal(plan.rows, rows)
    assert np.array_equal(plan.cols, cols)
    assert np.array_equal(plan.mass, mass)


class TestSweepMatchesNumpyScalars:
    # the sweep on Python floats must give the numpy-scalar sweep's bits

    @pytest.mark.parametrize("n", [5, 14, 100, 300])
    def test_random_pairs_with_empty_atoms(self, n):
        rng = np.random.default_rng(n)
        support = np.arange(1.0, n + 1.0)
        for _ in range(20):
            assert_same_plan(
                dirichlet_dist(rng, support, n // 10), dirichlet_dist(rng, support, n // 10)
            )

    def test_unequal_support_lengths(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n, m = rng.integers(1, 60, size=2)
            xs = np.sort(rng.choice(200, n, replace=False)) - 100.0
            ys = np.sort(rng.choice(200, m, replace=False)) * 0.5
            assert_same_plan(dirichlet_dist(rng, xs, n // 4), dirichlet_dist(rng, ys, m // 4))

    def test_counting_absence_pairs(self):
        # ops 47, 83, 96 and 113 hold the plans that keep a rounding-residue
        # entry at distance 2 (see CHANGES.md); the sweep must keep them too
        for op in [47, 83, 96, 113, *range(8)]:
            ps = np.random.default_rng([101, 2, op + 1]).uniform(0.05, 0.95, 100)
            for pair in discriminative_pairs(bernoulli_counting(ps), 0, "absence"):
                assert_same_plan(pair.p, pair.q)

    def test_metric_sums_keep_their_bits(self):
        capped = Metric(fn=lambda z: min(abs(z), 1.5), convex=False, name="capped")
        rng = np.random.default_rng(22)
        support = np.arange(1.0, 41.0)
        for _ in range(20):
            p, q = dirichlet_dist(rng, support, 4), dirichlet_dist(rng, support, 4)
            plan = optimal_plan(p, q)
            disp = plan.displacements()
            cost = float(sum(L1(z) * m for z, m in zip(disp, plan.mass)))
            assert w1_distance(p, q, L1) == cost
            for metric in (L1, capped):
                assert plan_sensitivity(plan, metric) == max(metric(z) for z in disp)
                diffs = np.subtract.outer(p.support[p.mass > 0], q.support[q.mass > 0])
                assert support_sensitivity(p, q, metric) == max(metric(z) for z in diffs.ravel())


class TestMetricArrayPath:
    # L1 evaluates as np.abs; the same abs behind a lambda takes the per-float path
    per_float = Metric(fn=lambda z: abs(z), convex=True, name="per-float l1")

    @pytest.mark.parametrize("n", [5, 40, 300])
    def test_abs_array_keeps_the_per_float_bits(self, n):
        rng = np.random.default_rng([23, n])
        for _ in range(10):
            xs = np.sort(rng.choice(4 * n, n, replace=False)) * 0.37 - n
            ys = np.sort(rng.choice(4 * n, n, replace=False)) * 0.37 - n
            p, q = dirichlet_dist(rng, xs, n // 5), dirichlet_dist(rng, ys, n // 5)
            plan = optimal_plan(p, q)
            disp = plan.displacements()
            fast, slow = L1.over(disp), self.per_float.over(disp)
            assert fast.dtype == slow.dtype == np.float64
            assert fast.tobytes() == slow.tobytes()
            assert plan_sensitivity(plan, L1) == plan_sensitivity(plan, self.per_float)
            assert w1_distance(p, q, L1) == w1_distance(p, q, self.per_float)
            assert support_sensitivity(p, q, L1) == support_sensitivity(p, q, self.per_float)
            for eps in (0.3, 1.0, 4.0):
                assert relaxed_theta(plan, eps, L1) == relaxed_theta(plan, eps, self.per_float)


class TestMetricValidation:
    def test_requires_zero_at_origin(self):
        with pytest.raises(ValidationError, match=r"d\(0\)"):
            Metric(fn=lambda z: abs(z) + 1.0, convex=True, name="shifted")

    def test_requires_symmetry(self):
        with pytest.raises(ValidationError, match="symmetric"):
            Metric(fn=lambda z: max(z, 0.0), convex=True, name="one-sided")

    def test_callable(self):
        assert L1(-3.5) == 3.5
