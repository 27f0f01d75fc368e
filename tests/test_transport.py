import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pufferot import (
    DiscreteDistribution,
    ValidationError,
    joint_cdf_table,
    optimal_plan,
    plan_sensitivity,
    relaxed_theta,
    support_sensitivity,
    w1_distance,
)

from oracles import (
    cdf_area_w1,
    list_sweep_optimal_plan,
    lp_transport_cost,
    numpy_scalar_optimal_plan,
    per_equation_relaxed_theta,
)
from pufferot.scenarios import bernoulli_counting, discriminative_pairs
from pufferot.transport import ENTRY_DROP_TOL, TransportPlan

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
        assert plan_sensitivity(plan) == 1.0

    def test_second_example_two(self, example2_pair):
        plan = optimal_plan(example2_pair.p, example2_pair.q)
        assert plan_sensitivity(plan) == 2.0

    def test_diagonal_zero(self):
        p = DiscreteDistribution.from_weights([0, 1], [1, 1])
        assert plan_sensitivity(optimal_plan(p, p)) == 0.0


class TestW1:
    def test_first_example_quarter(self, example1_pair):
        got = w1_distance(example1_pair.p, example1_pair.q)
        assert math.isclose(got, 0.25, abs_tol=1e-12)
        assert math.isclose(got, cdf_area_w1(example1_pair.p, example1_pair.q), abs_tol=1e-12)

    def test_identical_zero(self):
        p = DiscreteDistribution.from_weights([2, 4], [1, 3])
        assert w1_distance(p, p) == 0.0

    def test_forced_dirac_transport(self):
        a = DiscreteDistribution.from_weights([0], [1])
        b = DiscreteDistribution.from_weights([3], [1])
        assert w1_distance(a, b) == 3.0


class TestSupportSensitivity:
    def test_first_example(self, example1_pair):
        assert support_sensitivity(example1_pair.p, example1_pair.q) == 3.0

    def test_dirac_pair(self):
        a = DiscreteDistribution.from_weights([2], [1])
        b = DiscreteDistribution.from_weights([9], [1])
        assert support_sensitivity(a, b) == 7.0

    def test_adult_fixture_diameter(self, adult_pair):
        assert support_sensitivity(adult_pair.p, adult_pair.q) == 13.0

    def test_ignores_zero_atoms(self):
        p = DiscreteDistribution([0, 10], [1.0, 0.0])
        q = DiscreteDistribution([0, 10], [0.0, 1.0])
        assert support_sensitivity(p, q) == 10.0
        # p against its positive-mass atoms alone: the empty atom at 10 does not count
        assert support_sensitivity(p, DiscreteDistribution(p.support[:1], p.mass[:1])) == 0.0


class TestOracleAgreement:
    def test_lp_cost_on_random_pairs(self):
        rng = np.random.default_rng(20240817)
        for _ in range(50):
            p, q = random_pair(rng)
            got = w1_distance(p, q)
            assert math.isclose(got, lp_transport_cost(p, q), abs_tol=1e-9)

    def test_plan_never_exceeds_support_sensitivity(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            p, q = random_pair(rng)
            plan = optimal_plan(p, q)
            assert plan_sensitivity(plan) <= support_sensitivity(p, q) + 1e-12


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
        assert plan_sensitivity(plan) <= support_sensitivity(p, q) + 1e-12

    def test_positive_entries_only(self, example2_pair):
        plan = optimal_plan(example2_pair.p, example2_pair.q)
        assert np.all(plan.mass > 0)


class TestPlanConstruction:
    """``TransportPlan``'s own checks, on example 1's plan with one part broken."""

    @pytest.mark.parametrize("change,message", [
        (lambda r, c, m: (r[:-1], c, m), "rows, cols and mass must have equal lengths"),
        (lambda r, c, m: (r[:0], c[:0], m[:0]), "a transport plan must carry at least one entry"),
        (lambda r, c, m: (r, c, np.where(m == m[0], 0.0, m)),
         "plan entries must carry strictly positive mass"),
        (lambda r, c, m: (r, c, m * 1.1), "plan mass must total 1 within 1e-10, got"),
        (lambda r, c, m: (r[::-1], c, m), "row marginals do not reproduce the source distribution"),
        (lambda r, c, m: (r, c[::-1], m),
         "column marginals do not reproduce the target distribution"),
    ])
    def test_rejects(self, example1_pair, change, message):
        plan = optimal_plan(example1_pair.p, example1_pair.q)
        rows, cols, mass = change(plan.rows, plan.cols, plan.mass)
        with pytest.raises(ValidationError, match=re.escape(message)):
            TransportPlan(rows, cols, mass, example1_pair.p, example1_pair.q)

    @pytest.mark.parametrize("field", ["rows", "cols"])
    @pytest.mark.parametrize("indices,message", [
        # rejected before the intp conversion, which would truncate them
        ([0.9, 1.7], "{field} must hold integer indices, got dtype float64"),
        ([True, False], "{field} must hold integer indices, got dtype bool"),
        ([-1, 1], "{field} must be a vector of indices into a support of 2 points"),
        ([0, 2], "{field} holds index 2, past a support of 2 points"),
        # numpy refuses a count array this long before allocating it
        ([0, 2**62], "{field} must be a vector of indices into a support of 2 points"),
        ([[0, 1]], "{field} must be a vector of indices into a support of 2 points"),
    ])
    def test_rejects_bad_indices(self, field, indices, message):
        p = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
        parts = {"rows": [0, 1], "cols": [0, 1], field: indices}
        with pytest.raises(ValidationError, match=re.escape(message.format(field=field))):
            TransportPlan(**parts, mass=[0.5, 0.5], source=p, target=p)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int64])
    def test_accepts_any_integer_dtype(self, example1_pair, dtype):
        plan = optimal_plan(example1_pair.p, example1_pair.q)
        copy = TransportPlan(plan.rows.astype(dtype), plan.cols.astype(dtype), plan.mass,
                             example1_pair.p, example1_pair.q)
        assert copy.rows.dtype == copy.cols.dtype == np.intp
        assert np.array_equal(copy.rows, plan.rows) and np.array_equal(copy.cols, plan.cols)

    def test_owns_its_arrays(self):
        # rows and cols are views of one base array, written after the plan is built
        p = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
        base = np.array([0, 1, 0, 1], dtype=np.intp)
        mass = np.array([0.5, 0.5])
        plan = TransportPlan(rows=base[:2], cols=base[2:], mass=mass, source=p, target=p)
        assert base.flags.writeable and mass.flags.writeable
        base[:2] = [1, 0]
        mass[:] = 0.25
        assert plan.rows.tolist() == [0, 1] and plan.mass.tolist() == [0.5, 0.5]
        assert plan_sensitivity(plan) == 0.0
        with pytest.raises(ValueError):
            plan.rows[0] = 1


def dirichlet_dist(rng, support, empty):
    """Dirichlet(1) masses on ``support`` with ``empty`` atoms set to zero."""
    mass = rng.dirichlet(np.ones(len(support)))
    mass[rng.choice(len(support), empty, replace=False)] = 0.0
    return DiscreteDistribution.from_weights(support, mass)


def assert_same_plan(p, q):
    plan = optimal_plan(p, q)
    for rows, cols, mass in (numpy_scalar_optimal_plan(p, q), list_sweep_optimal_plan(p, q)):
        assert np.array_equal(plan.rows, rows)
        assert np.array_equal(plan.cols, cols)
        assert np.array_equal(plan.mass, mass)


class TestSweepMatchesNumpyScalars:
    # the sweep on Python floats must give the bits of the numpy-scalar
    # sweep and of the sweep that writes remainders back into lists

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

    @pytest.mark.parametrize("n", [6, 40, 100])
    def test_tiny_atoms_and_tied_remainders(self, n):
        # Dyadic masses make remainders tie exactly (a == b), and atoms at,
        # under and just over ENTRY_DROP_TOL sit among empty ones, in p and q.
        rng = np.random.default_rng([24, n])
        support = np.arange(1.0, n + 1.0)
        tiny = [0.0, 5e-16, ENTRY_DROP_TOL, 1.5e-15]
        for _ in range(20):
            masses = []
            for _ in range(2):
                spots = rng.choice(n, min(n // 3, 2 * len(tiny)), replace=False)
                rest = np.setdiff1d(np.arange(n), spots)
                mass = np.zeros(n)
                mass[rest] = rng.multinomial(64, np.full(rest.size, 1.0 / rest.size)) / 64.0
                mass[spots] = np.resize(tiny, spots.size)
                masses.append(DiscreteDistribution(support, mass))
            assert_same_plan(*masses)
            assert_same_plan(masses[0], masses[0])

    def test_counting_absence_pairs(self):
        # ops 47, 83, 96 and 113 hold the plans that keep a rounding-residue
        # entry at distance 2 (see CHANGES.md); the sweep must keep them too
        for op in [47, 83, 96, 113, *range(8)]:
            ps = np.random.default_rng([101, 2, op + 1]).uniform(0.05, 0.95, 100)
            for pair in discriminative_pairs(bernoulli_counting(ps), 0, "absence"):
                assert_same_plan(pair.p, pair.q)

    def test_metric_sums_keep_their_bits(self):
        rng = np.random.default_rng(22)
        support = np.arange(1.0, 41.0)
        for _ in range(20):
            p, q = dirichlet_dist(rng, support, 4), dirichlet_dist(rng, support, 4)
            plan = optimal_plan(p, q)
            disp = plan.displacements().tolist()
            cost = float(sum(abs(z) * m for z, m in zip(disp, plan.mass)))
            assert w1_distance(p, q) == cost
            assert plan_sensitivity(plan) == max(abs(z) for z in disp)
            diffs = np.subtract.outer(p.support[p.mass > 0], q.support[q.mass > 0])
            assert support_sensitivity(p, q) == max(abs(z) for z in diffs.ravel().tolist())


class TestMetricArrayPath:
    # every distance is np.abs of an array; Python abs per float is the reference
    @pytest.mark.parametrize("n", [5, 40, 300])
    def test_abs_array_keeps_the_per_float_bits(self, n):
        rng = np.random.default_rng([23, n])
        for _ in range(10):
            xs = np.sort(rng.choice(4 * n, n, replace=False)) * 0.37 - n
            ys = np.sort(rng.choice(4 * n, n, replace=False)) * 0.37 - n
            p, q = dirichlet_dist(rng, xs, n // 5), dirichlet_dist(rng, ys, n // 5)
            plan = optimal_plan(p, q)
            disp = plan.displacements()
            per_float = np.array([abs(z) for z in disp.tolist()])
            assert np.abs(disp).tobytes() == per_float.tobytes()
            assert plan_sensitivity(plan) == max(per_float.tolist())
            assert w1_distance(p, q) == float(sum(d * m for d, m in zip(per_float, plan.mass)))
            diffs = np.subtract.outer(p.support[p.mass > 0], q.support[q.mass > 0])
            assert support_sensitivity(p, q) == max(abs(z) for z in diffs.ravel().tolist())
            for eps in (0.3, 1.0, 4.0):
                assert relaxed_theta(plan, eps) == per_equation_relaxed_theta(plan, eps)
