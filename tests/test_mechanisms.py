import gc
import math
import operator
import re
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pufferot import (
    DiscreteDistribution,
    DiscriminativePair,
    MechanismSpec,
    NumericError,
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
    verify_pufferfish,
)
from pufferot import mechanisms

from conftest import EXAMPLE1, make_pair
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


def reference_theta(plan, epsilon):
    return per_equation_relaxed_theta(plan, epsilon)


def record_windows(monkeypatch):
    """A list that gets every ``_newton_window`` result; None means the full bisection runs."""
    newton_window, windows = mechanisms._newton_window, []

    def recorded(*args):
        windows.append(newton_window(*args))
        return windows[-1]

    monkeypatch.setattr(mechanisms, "_newton_window", recorded)
    return windows


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

    def test_exponential_is_an_unknown_family(self):
        # exponential-family noise is calibrated only, never sampled or verified
        with pytest.raises(ValidationError, match="unknown noise family 'exponential'"):
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

    @pytest.mark.parametrize("family,theta", [
        ("laplace", 1e160),  # theta**2 raises OverflowError
        ("laplace", 1.2e154),  # theta**2 is finite, 2 theta**2 is not
        ("gaussian", 1e155),
    ])
    def test_variance_overflow_is_a_numeric_error(self, family, theta):
        spec = MechanismSpec(family=family, theta=theta, epsilon=1.0)
        with pytest.raises(NumericError, match="variance overflows"):
            spec.variance


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

    @settings(max_examples=20, deadline=None)
    @given(bad=NON_FINITE)
    def test_non_finite_sensitivity_rejected(self, bad):
        with pytest.raises(ValidationError, match="sensitivity"):
            calibrate_exponential(bad, 1.0)

    @pytest.mark.parametrize("sensitivity,epsilon,theta", [
        (1e-300, 1e10, 0.0), (1e-320, 1e10, 0.0), (1e308, 1e-20, math.inf),
    ])
    def test_scale_outside_the_floats_raises(self, sensitivity, epsilon, theta):
        # the parent returned 0.0, a noiseless release, for the first two and
        # raised ZeroDivisionError for the third
        with pytest.raises(NumericError, match=re.escape(
            f"sensitivity={sensitivity!r} at epsilon={epsilon!r} is {theta!r}"
        )):
            calibrate_exponential(sensitivity, epsilon)


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

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValidationError, match="variant must be 'a' or 'b', got 'c'"):
            calibrate_gaussian(1.0, 0.5, 1e-5, variant="c")

    @settings(max_examples=20, deadline=None)
    @given(bad=NON_FINITE, variant=st.sampled_from(["a", "b"]))
    def test_non_finite_inputs_rejected(self, bad, variant):
        with pytest.raises(ValidationError, match="epsilon"):
            calibrate_gaussian(1.0, bad, 1e-5, variant=variant)
        with pytest.raises(ValidationError, match="delta"):
            calibrate_gaussian(1.0, 0.5, bad, variant=variant)
        with pytest.raises(ValidationError, match="sensitivity"):
            calibrate_gaussian(bad, 0.5, 1e-5, variant=variant)

    @pytest.mark.parametrize("sensitivity,epsilon,variant,theta", [
        (1e-320, 1e10, "b", 0.0), (1e308, 1e-20, "a", math.inf),
    ])
    def test_scale_outside_the_floats_raises(self, sensitivity, epsilon, variant, theta):
        with pytest.raises(NumericError, match=re.escape(
            f"sensitivity={sensitivity!r} at epsilon={epsilon!r} is {theta!r}"
        )):
            calibrate_gaussian(sensitivity, epsilon, 1e-5, variant)

    def test_variant_b_exceeds_strict_bound(self):
        delta = 0.01
        t = 0.41 * delta ** (-1 / 3)
        strict = (t + math.sqrt(t * t + 1.0)) / 2.0
        assert calibrate_gaussian(1.0, 2.0, delta, "b") > strict


class TestRelaxedTheta:
    def test_adult_fixture_point(self, adult_pair):
        plan = optimal_plan(adult_pair.p, adult_pair.q)
        theta = relaxed_theta(plan, 0.8)
        assert theta == pytest.approx(1.25, abs=1e-3)

    def test_diagonal_plan_zero(self):
        p = DiscreteDistribution.from_weights([1, 2], [1, 3])
        assert relaxed_theta(optimal_plan(p, p), 1.0) == 0.0

    @pytest.mark.parametrize("epsilon", [0.5, 1.0, 2.0])
    def test_single_term_closed_form(self, epsilon):
        pair = shifted_diagonal_pair()
        plan = optimal_plan(pair.p, pair.q)
        theta = relaxed_theta(plan, epsilon)
        assert theta == pytest.approx(1.0 / epsilon, abs=1e-9)

    def test_reduces_to_strict_rule_for_single_distance(self):
        # every plan entry sits at distance 1, so the relaxed root must be
        # the strict scale 1 / eps
        pair = shifted_diagonal_pair()
        plan = optimal_plan(pair.p, pair.q)
        for epsilon in (0.7, 1.3):
            got = relaxed_theta(plan, epsilon)
            strict = calibrate_exponential(plan_sensitivity(plan), epsilon)
            assert got == pytest.approx(strict, abs=1e-9)

    def test_binding_constraint_residual(self, adult_pair):
        plan = optimal_plan(adult_pair.p, adult_pair.q)
        for epsilon in (0.8, 2.3):
            theta = relaxed_theta(plan, epsilon)
            ratios = constraint_values(plan, adult_pair.p, adult_pair.q, epsilon, theta)
            assert max(ratios) == pytest.approx(1.0, rel=1e-8)
            assert max(ratios) <= 1.0 + 1e-8

    def test_relaxed_never_exceeds_strict(self, canonical_pairs):
        for pair in canonical_pairs:
            plan = optimal_plan(pair.p, pair.q)
            for epsilon in EPS_GRID:
                strict = calibrate_exponential(plan_sensitivity(plan), epsilon)
                relaxed = relaxed_theta(plan, epsilon)
                assert relaxed <= strict + 1e-9

    def test_matches_per_equation_reference_on_canonical_pairs(self, canonical_pairs):
        for pair in canonical_pairs:
            plan = optimal_plan(pair.p, pair.q)
            for epsilon in EPS_GRID + FIGURE4_EPS_GRID:
                expected = reference_theta(plan, epsilon)
                assert relaxed_theta(plan, epsilon) == expected

    @pytest.mark.parametrize(
        "n,empty,count,seed", [(5, 1, 4, 11), (14, 2, 4, 12), (100, 10, 2, 13), (300, 30, 1, 14)]
    )
    def test_matches_per_equation_reference_on_random_pairs(self, n, empty, count, seed):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            pair = random_pair(rng, n, empty)
            plan = optimal_plan(pair.p, pair.q)
            for epsilon in FIGURE4_EPS_GRID:
                expected = reference_theta(plan, epsilon)
                assert relaxed_theta(plan, epsilon) == expected

    def test_transposed_plan_gives_the_same_theta(self, canonical_pairs):
        rng = np.random.default_rng(15)
        for pair in canonical_pairs + [random_pair(rng, 100, 10)]:
            plan = optimal_plan(pair.p, pair.q)
            flipped = plan.transpose()
            for epsilon in FIGURE4_EPS_GRID:
                theta = relaxed_theta(flipped, epsilon)
                assert theta == reference_theta(flipped, epsilon)
                assert theta == relaxed_theta(plan, epsilon)

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
                expected = reference_theta(shuffled, epsilon)
                assert relaxed_theta(shuffled, epsilon) == expected

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_matches_per_equation_reference_at_extreme_epsilons_and_scales(
        self, canonical_pairs, scale
    ):
        rng = np.random.default_rng(17)
        for pair in canonical_pairs + [random_pair(rng, 14, 2), random_pair(rng, 100, 10)]:
            p = DiscreteDistribution(pair.p.support * scale, pair.p.mass)
            q = DiscreteDistribution(pair.q.support * scale, pair.q.mass)
            plan = optimal_plan(p, q)
            for epsilon in [1e-3, 0.8, 3.3, 5.8, 50.0]:
                assert relaxed_theta(plan, epsilon) == reference_theta(plan, epsilon)

    def test_single_entry_binding_equation(self):
        # The binding equation holds one plan entry at the largest distance,
        # so theta2 = theta1. The seeded pair is the 14-atom pair of op 18 of
        # the figure4-sweep benchmark at seed 108.
        rng = np.random.default_rng([108, 1, 19])
        masses = []
        for _ in range(2):
            w = rng.dirichlet(np.ones(14))
            w[rng.choice(14, size=2, replace=False)] = 0.0
            masses.append(w / w.sum())
        seeded = [DiscreteDistribution(np.arange(1.0, 15.0), w) for w in masses]
        one_entry_rows = [
            DiscreteDistribution.from_weights([0, 1], [1, 1]),
            DiscreteDistribution.from_weights([1, 3], [1, 1]),
        ]
        for p, q in (seeded, one_entry_rows):
            plan = optimal_plan(p, q)
            for epsilon in FIGURE4_EPS_GRID:
                theta = relaxed_theta(plan, epsilon)
                assert theta == reference_theta(plan, epsilon)
                strict = calibrate_exponential(plan_sensitivity(plan), epsilon)
                assert theta == pytest.approx(strict, rel=1e-9)

    def test_newton_window_always_holds_on_the_figure4_grid(self, adult_pair, monkeypatch):
        # A regression to evaluating every bisection probe must not pass
        # unnoticed: on the Figure-4 grid the Newton window always holds.
        windows = record_windows(monkeypatch)
        rng = np.random.default_rng(19)
        pairs = [adult_pair] + [random_pair(rng, n, empty) for n, empty in [(14, 2), (100, 10)] * 3]
        for pair in pairs:
            plan = optimal_plan(pair.p, pair.q)
            for epsilon in FIGURE4_EPS_GRID:
                relaxed_theta(plan, epsilon)
        assert len(windows) == len(pairs) * len(FIGURE4_EPS_GRID)
        assert None not in windows

    @pytest.mark.parametrize("shift", [-1e-6, -1e-9, 1e-9, 1e-6])
    def test_window_off_the_root_falls_back_to_the_full_bisection(
        self, adult_pair, monkeypatch, shift
    ):
        # the checks at the window's edges must catch a wrong Newton root,
        # also one off by 1e-9 in log(theta), 100 margins out, though the
        # lower edge sees only the binding equation
        newton_root = mechanisms._newton_root

        def shifted(*args):
            found = newton_root(*args)
            return found and (found[0] * math.exp(shift), *found[1:])

        monkeypatch.setattr(mechanisms, "_newton_root", shifted)
        windows = record_windows(monkeypatch)
        plan = optimal_plan(adult_pair.p, adult_pair.q)
        for epsilon in FIGURE4_EPS_GRID:
            expected = reference_theta(plan, epsilon)
            assert relaxed_theta(plan, epsilon) == expected
        assert windows == [None] * len(FIGURE4_EPS_GRID)

    def test_full_bisection_matches_the_reference(self, adult_pair, monkeypatch):
        # the path taken whenever the Newton window does not hold
        monkeypatch.setattr(mechanisms, "_newton_window", lambda *args: None)
        rng = np.random.default_rng(22)
        for pair in [adult_pair, random_pair(rng, 14, 2), random_pair(rng, 100, 10)]:
            plan = optimal_plan(pair.p, pair.q)
            for epsilon in FIGURE4_EPS_GRID:
                assert relaxed_theta(plan, epsilon) == reference_theta(plan, epsilon)

    def test_full_objective_evaluated_twice_cold_and_about_once_warm(
        self, adult_pair, monkeypatch
    ):
        # A plan's first call evaluates G at the strict rate, to pick Newton's
        # first equation, and at the window's upper edge; later calls start
        # Newton on the equation that bound last and evaluate G at the upper
        # edge only. Both evaluate it at the few bisection probes inside the
        # window; the Newton steps and the lower edge's check do not.
        objective, calls = mechanisms._objective, []
        monkeypatch.setattr(mechanisms, "_objective",
                            lambda *args: calls.append(1) or objective(*args))
        rng = np.random.default_rng(20)
        shapes = [(14, 2), (100, 10)] * 4
        pairs = [adult_pair] + [random_pair(rng, n, empty) for n, empty in shapes]
        cold, warm = [], []
        for pair in pairs:
            plan = optimal_plan(pair.p, pair.q)
            for k, epsilon in enumerate(FIGURE4_EPS_GRID):
                before = len(calls)
                relaxed_theta(plan, epsilon)
                (warm if k else cold).append(len(calls) - before)
        assert min(cold) >= 2
        assert min(warm) >= 1
        assert sum(warm) / len(warm) <= 1.5
        assert sum(cold + warm) / len(cold + warm) <= 1.6

    def test_one_equation_never_exceeds_the_full_objective(self, adult_pair):
        # The lower edge trusts one equation's residual as a lower bound on G,
        # computed in Python floats where G is computed by numpy: the two
        # must agree within the rounding bound at any rate.
        rng = np.random.default_rng(23)
        pairs = [adult_pair] + [random_pair(rng, n, empty) for n, empty in [(14, 2), (100, 10)] * 3]
        for pair in pairs:
            plan = optimal_plan(pair.p, pair.q)
            eqs = mechanisms._moment_equations(plan)
            for epsilon in FIGURE4_EPS_GRID:
                targets = epsilon + eqs.log_marginals
                noise = mechanisms._REPLAY_NOISE * (eqs.magnitude + float(np.abs(targets).max()))
                strict = epsilon / eqs.d_max
                for a in strict * np.exp(rng.uniform(-1.0, 3.0, size=8)):
                    full = float(mechanisms._objective(eqs, targets, a).max())
                    for k in range(eqs.starts.size):
                        start, stop = eqs.starts[k], eqs.starts[k] + eqs.sizes[k]
                        value, _ = mechanisms._log_residual(
                            eqs.d[start:stop].tolist(), eqs.log_mass[start:stop].tolist(),
                            float(targets[k]), float(a),
                        )
                        assert value <= full + noise

    def test_newton_moves_to_the_equation_binding_at_the_root(self, adult_pair, monkeypatch):
        # The largest equation at the strict rate is not the one whose root
        # is largest, so Newton continues on the equation that binds at the
        # window's upper edge; the window then holds without a full bisection.
        newton_root, solved = mechanisms._newton_root, []

        def recorded(d, log_mass, target, *args):
            solved.append((tuple(d), tuple(log_mass), target))
            return newton_root(d, log_mass, target, *args)

        monkeypatch.setattr(mechanisms, "_newton_root", recorded)
        windows = record_windows(monkeypatch)
        seeded = random_pair(np.random.default_rng(4), 5, 1)
        for pair, epsilon in ((seeded, 1.8), (seeded, 4.8), (adult_pair, 2.3)):
            solved.clear()
            plan = optimal_plan(pair.p, pair.q)
            theta = relaxed_theta(plan, epsilon)
            assert theta == reference_theta(plan, epsilon)
            assert len(set(solved)) == 2
            assert windows[-1] is not None

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_sweep_order_on_one_plan_does_not_change_theta(self, adult_pair, monkeypatch, order):
        # Each call starts Newton on the equation that bound at the plan's
        # previous call, whatever its epsilon was.
        windows = record_windows(monkeypatch)
        rng = np.random.default_rng(24)
        grid = {"ascending": FIGURE4_EPS_GRID, "descending": FIGURE4_EPS_GRID[::-1],
                "shuffled": rng.permutation(FIGURE4_EPS_GRID).tolist()}[order]
        pairs = [adult_pair] + [random_pair(rng, n, empty) for n, empty in [(14, 2), (100, 10)] * 2]
        for pair in pairs:
            plan = optimal_plan(pair.p, pair.q)
            for epsilon in grid:
                fresh = relaxed_theta(optimal_plan(pair.p, pair.q), epsilon)
                assert relaxed_theta(plan, epsilon) == fresh == reference_theta(plan, epsilon)
        assert None not in windows

    @pytest.mark.parametrize("epsilon", [1.8, 4.8])
    def test_equation_kept_from_the_last_call_need_not_bind(self, monkeypatch, epsilon):
        # Newton starts on a planted equation that does not bind, then moves
        # to the one that does at the window's upper edge; that one is kept.
        windows = record_windows(monkeypatch)
        pair = random_pair(np.random.default_rng(4), 5, 1)
        plan = optimal_plan(pair.p, pair.q)
        theta = relaxed_theta(plan, epsilon)
        assert theta == reference_theta(plan, epsilon)
        eqs = mechanisms._EQUATIONS[plan]
        binding = eqs.binding
        k, d, log_mass = binding
        # plain Python numbers, so the memo holds nothing that refers to the plan
        assert type(k) is int and {type(x) for x in d + log_mass} == {float}
        others = [j for j in range(eqs.starts.size) if j != k]
        assert others
        for j in others:
            start, stop = eqs.starts[j], eqs.starts[j] + eqs.sizes[j]
            eqs.binding = (j, eqs.d[start:stop].tolist(), eqs.log_mass[start:stop].tolist())
            assert relaxed_theta(plan, epsilon) == theta
            assert windows[-1] is not None
            assert eqs.binding == binding

    def test_nan_objective_raises_numeric_error(self, adult_pair, monkeypatch):
        # NaN on a band of scales the full bisection probes: read as "g <= 0",
        # it would move the upper end of the bracket and yield a wrong root
        objective = mechanisms._objective

        def nan_band(eqs, targets, a):
            values = objective(eqs, targets, a)
            return values * math.nan if 1.1 < 1.0 / a < 1.2 else values

        monkeypatch.setattr(mechanisms, "_newton_window", lambda *args: None)
        monkeypatch.setattr(mechanisms, "_objective", nan_band)
        plan = optimal_plan(adult_pair.p, adult_pair.q)
        with pytest.raises(NumericError, match="NaN"):
            relaxed_theta(plan, 0.8)

    @pytest.mark.parametrize("scale", [1e125, 1e150, 1e-125, 1e-300])
    def test_scales_far_from_one_are_bracketed(self, monkeypatch, scale):
        pair = DiscriminativePair(
            labels=("a", "b"),
            p=DiscreteDistribution(np.array([1.0, 2.0]) * scale, np.array([0.5, 0.5])),
            q=DiscreteDistribution(np.array([2.0, 3.0]) * scale, np.array([0.3, 0.7])),
        )
        plan = optimal_plan(pair.p, pair.q)
        theta = calibrate_pufferfish([pair], 1.0, "theorem2").theta
        assert theta <= calibrate_pufferfish([pair], 1.0, "theorem1").theta
        assert theta == reference_theta(plan, 1.0)
        monkeypatch.setattr(mechanisms, "_newton_window", lambda *args: None)
        assert relaxed_theta(plan, 1.0) == theta

    def test_window_past_the_float_limit_falls_back_to_the_full_bisection(self, monkeypatch):
        # The Newton root lies within a margin of -_LOG_THETA_LIMIT, where
        # 1/theta overflows and inf x 0 on the zero-distance entry is NaN.
        windows = record_windows(monkeypatch)
        p = DiscreteDistribution(np.array([1.0, 2.0]) * 2e-320, np.array([0.5, 0.5]))
        q = DiscreteDistribution(np.array([1.0, 2.0]) * 2e-320, np.array([0.3, 0.7]))
        plan = optimal_plan(p, q)
        theta = relaxed_theta(plan, 1e-12)
        assert theta == reference_theta(plan, 1e-12) == 7.998134333304217e-309
        assert theta < calibrate_exponential(plan_sensitivity(plan), 1e-12)
        assert windows == [None]

    def test_infinite_strict_rate_raises_as_theorem1_does(self, monkeypatch):
        # eps / max d overflows, so theorem1's scale is 0; the parent evaluated
        # the objective at that infinite rate and warned
        pair = DiscriminativePair(
            labels=("a", "b"),
            p=DiscreteDistribution(np.array([1.0, 2.0]) * 1e-300, np.array([0.5, 0.5])),
            q=DiscreteDistribution(np.array([2.0, 3.0]) * 1e-300, np.array([0.3, 0.7])),
        )
        objective, calls = mechanisms._objective, []
        monkeypatch.setattr(mechanisms, "_objective",
                            lambda *args: calls.append(1) or objective(*args))
        errors = []
        for method in ("theorem1", "theorem2"):
            with pytest.raises(NumericError, match=r"is 0\.0, outside the positive floats") as info:
                calibrate_pufferfish([pair], 1e10, method)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert calls == []

    def test_root_below_the_float_range_has_no_lower_bracket(self):
        # theorem1's scale is 1e-308 / 1.5, a subnormal, and theorem2's root lies
        # further down, below theta = exp(-_LOG_THETA_LIMIT), where 1/theta overflows
        pair = DiscriminativePair(
            labels=("a", "b"),
            p=DiscreteDistribution.from_weights([0, 1e-308], [0.5, 0.5]),
            q=DiscreteDistribution.from_weights([0, 1e-308], [0.25, 0.75]),
        )
        assert calibrate_pufferfish([pair], 1.5, "theorem1").theta == 1e-308 / 1.5
        with pytest.raises(NumericError, match="no lower bracket for the row and column moment"):
            calibrate_pufferfish([pair], 1.5, "theorem2")

    def test_floating_point_error_from_the_objective_is_a_numeric_error(self):
        # under a caller's np.errstate(all="raise") the exp of a far entry's term
        # underflows at the first probe; the default state lets it round to 0
        pair = DiscriminativePair(
            labels=("a", "b"),
            p=DiscreteDistribution.from_weights([0, 1e300], [0.5, 0.5]),
            q=DiscreteDistribution.from_weights([0, 1e300], [0.25, 0.75]),
        )
        with np.errstate(all="raise"):
            with pytest.raises(NumericError, match=r"failed at log\(theta\)=0\.0: underflow"):
                calibrate_pufferfish([pair], 1e-10, "theorem2")

    def test_newton_gives_up_on_a_nan_residual(self):
        assert mechanisms._newton_root([1.0], [0.0], math.nan, 1.0, 1e-9, 10) is None

    def test_newton_gives_up_on_a_step_that_overflows(self):
        # residual -1e10 over slope 1e-300: the step to the next rate is inf
        value, slope = mechanisms._log_residual([1e-300], [0.0], 1e10, 1.0)
        assert (value, slope) == (-1e10, 1e-300)
        assert mechanisms._newton_root([1e-300], [0.0], 1e10, 1.0, 1e-9, 10) is None

    @settings(max_examples=20, deadline=None)
    @given(bad=NON_FINITE)
    def test_non_finite_epsilon_rejected(self, bad):
        pair = shifted_diagonal_pair()
        plan = optimal_plan(pair.p, pair.q)
        with pytest.raises(ValidationError, match="epsilon"):
            relaxed_theta(plan, bad)

    @pytest.mark.parametrize("name,epsilon", [
        ("example-1", 1e-16), ("example-1", 1e-17), ("example-1", 1e-20), ("adult", 1e-15),
    ])
    def test_epsilon_below_rounding_bound_raises(self, adult_pair, name, epsilon):
        # eps + log(marginal) rounds to log(marginal) here: the parent returned
        # 0.9, 0.09 and 9e-5 of theta1 on example 1 (the limit is 0.5) and
        # more than theta1 on the adult pair
        pair = adult_pair if name == "adult" else make_pair(EXAMPLE1, name)
        plan = optimal_plan(pair.p, pair.q)
        with pytest.raises(NumericError, match=f"epsilon={epsilon!r} is within the rounding"):
            relaxed_theta(plan, epsilon)
        with pytest.raises(NumericError, match="rounding bound"):
            calibrate_pufferfish([pair], epsilon, "theorem2")


class TestCalibratePufferfish:
    def test_worked_examples_take_the_max(self, example1_pair, example2_pair):
        report = calibrate_pufferfish([example1_pair, example2_pair], epsilon=1.0)
        assert report.theta == pytest.approx(2.0)
        assert report.method == "theorem-1"
        assert [rec.sensitivity for rec in report.pairs] == [1.0, 2.0]

    def test_exact_laplace_certificate_holds_at_theta2(self, canonical_pairs):
        # the paper's guarantee itself, with no tolerance, for epsilon from
        # 1e-9 up to the top of the Figure-4 grid
        rng = np.random.default_rng(21)
        pairs = canonical_pairs + [
            random_pair(rng, n, empty)
            for n, empty, count in [(5, 1, 30), (14, 2, 30), (100, 10, 28)]
            for _ in range(count)
        ]
        for pair in pairs:
            for epsilon in np.geomspace(1e-9, 5.8, 25).tolist():
                theta = calibrate_pufferfish([pair], epsilon, "theorem2").theta
                spec = MechanismSpec("laplace", theta, epsilon)
                report = verify_pufferfish([pair], spec, epsilon)
                assert report.checks[0].worst_log_ratio <= epsilon, (pair.prior, epsilon, theta)

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

    @pytest.mark.parametrize("method", ["theorem1", "theorem2"])
    def test_laplace_method_rejects_delta(self, example1_pair, method):
        with pytest.raises(ValidationError, match=f"method '{method}' does not accept delta"):
            calibrate_pufferfish([example1_pair], epsilon=1.0, method=method, delta=1e-5)

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

    def test_json_fields(self, example1_pair):
        report = calibrate_pufferfish([example1_pair], epsilon=1.0)
        payload = report.to_json_dict()
        assert set(payload) == {"method", "epsilon", "delta", "theta", "variance", "pairs"}
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


def fresh_copy(pair):
    """``pair`` rebuilt from new objects, so nothing derived from the original is reused."""
    return DiscriminativePair(
        labels=pair.labels,
        p=DiscreteDistribution(pair.p.support.copy(), pair.p.mass.copy()),
        q=DiscreteDistribution(pair.q.support.copy(), pair.q.mass.copy()),
        prior=pair.prior,
    )


def figure4_sweep(pair_for_call):
    """JSON reports of all four methods over the Figure-4 grid; gaussian-a at eps / 10."""
    out = []
    for epsilon in FIGURE4_EPS_GRID:
        for method, eps, delta in (
            ("theorem1", epsilon, None),
            ("theorem2", epsilon, None),
            ("gaussian-a", epsilon / 10, 1e-5),
            ("gaussian-b", epsilon, 1e-5),
        ):
            report = calibrate_pufferfish([pair_for_call()], eps, method, delta=delta)
            out.append(report.to_json_dict())
    return out


class TestPairMemo:
    """A pair object's plan, sensitivity and moment equations are built once."""

    def sweep_pairs(self, adult_pair):
        rng = np.random.default_rng(20)
        return [fresh_copy(adult_pair), make_pair(EXAMPLE1, "example-1"),
                random_pair(rng, 14, 2), random_pair(rng, 100, 10)]

    def test_cold_and_warm_sweeps_equal_fresh_objects(self, adult_pair):
        for pair in self.sweep_pairs(adult_pair):
            fresh = figure4_sweep(lambda: fresh_copy(pair))
            assert figure4_sweep(lambda: pair) == fresh  # cold
            assert figure4_sweep(lambda: pair) == fresh  # warm

    def test_one_plan_and_sensitivity_per_pair_per_sweep(self, adult_pair, monkeypatch):
        plans, sensitivities = [], []
        optimal, sensitivity = mechanisms.optimal_plan, mechanisms.plan_sensitivity
        monkeypatch.setattr(mechanisms, "optimal_plan",
                            lambda p, q: plans.append(1) or optimal(p, q))
        monkeypatch.setattr(mechanisms, "plan_sensitivity",
                            lambda plan: sensitivities.append(1) or sensitivity(plan))
        pairs = self.sweep_pairs(adult_pair)
        for pair in pairs:
            figure4_sweep(lambda: pair)
        assert len(plans) == len(sensitivities) == len(pairs)
        figure4_sweep(lambda: pairs[0])
        assert len(plans) == len(sensitivities) == len(pairs)

    def test_one_set_of_moment_equations_per_plan(self, adult_pair, monkeypatch):
        built, build = [], mechanisms._moment_equations
        monkeypatch.setattr(mechanisms, "_moment_equations",
                            lambda plan: built.append(1) or build(plan))
        # no equation is live on this pair's plan, and that None is kept too
        p = make_pair(EXAMPLE1, "identical").p
        identical = DiscriminativePair(labels=("a", "b"), p=p, q=p)
        pairs = [*self.sweep_pairs(adult_pair), identical]
        for pair in pairs:
            figure4_sweep(lambda: pair)  # cold
        assert len(built) == len(pairs)
        for pair in pairs:
            figure4_sweep(lambda: pair)  # warm
            assert relaxed_theta(mechanisms._CALIBRATIONS[pair][0], 1.0) == (
                calibrate_pufferfish([pair], 1.0, "theorem2").theta
            )
        assert len(built) == len(pairs)

    def test_threads_sweeping_shared_pairs_agree_with_fresh_objects(self, adult_pair):
        pairs = self.sweep_pairs(adult_pair)
        want = [figure4_sweep(lambda: fresh_copy(pair)) for pair in pairs]
        got = {}

        def sweep(k):
            got[k] = figure4_sweep(lambda: pairs[k % len(pairs)])

        threads = [threading.Thread(target=sweep, args=(k,)) for k in range(3 * len(pairs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == {k: want[k % len(pairs)] for k in range(len(threads))}

    def test_memo_does_not_keep_the_pair_alive(self, adult_pair):
        gc.collect()
        memos = (mechanisms._CALIBRATIONS, mechanisms._EQUATIONS)
        sizes = [len(memo) for memo in memos]
        pair = fresh_copy(adult_pair)
        for method in ("theorem1", "theorem2"):
            calibrate_pufferfish([pair], 0.8, method)
        assert [len(memo) for memo in memos] == [size + 1 for size in sizes]
        pair_ref, plan_ref = weakref.ref(pair), weakref.ref(mechanisms._CALIBRATIONS[pair][0])
        del pair
        gc.collect()
        assert pair_ref() is None
        assert plan_ref() is None
        assert [len(memo) for memo in memos] == sizes


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

    @pytest.mark.parametrize("n", [2.5, 2.0, math.nan, math.inf, "3", None, np.float64(3.0)])
    def test_count_that_is_not_an_integer_rejected(self, n):
        for family in ("laplace", "gaussian"):
            for theta in (0.0, 1.0):
                spec = MechanismSpec(family=family, theta=theta, epsilon=1.0)
                with pytest.raises(ValidationError) as exc:
                    sample_noise(spec, n, seed=0)
                assert str(exc.value) == f"n must be an integer, got {n!r}"

    @pytest.mark.parametrize("n", [np.int64(3), np.uint8(3), True])
    def test_count_is_what_operator_index_takes(self, n):
        spec = MechanismSpec(family="laplace", theta=1.0, epsilon=1.0)
        want = sample_noise(spec, operator.index(n), seed=4)
        assert sample_noise(spec, n, seed=4).tobytes() == want.tobytes()
        assert want.size == int(n)

    def test_negative_count_rejected(self):
        spec = MechanismSpec(family="laplace", theta=1.0, epsilon=1.0)
        with pytest.raises(ValidationError, match="n must be >= 0, got -1"):
            sample_noise(spec, -1, seed=0)

    def test_seeded_determinism(self):
        spec = MechanismSpec(family="gaussian", theta=2.0, epsilon=1.0)
        a = sample_noise(spec, 1000, seed=7)
        b = sample_noise(spec, 1000, seed=7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_noise(spec, 1000, seed=8))


    @pytest.mark.parametrize("family", ["laplace", "gaussian"])
    @pytest.mark.parametrize("seed", [0, 3, 7, 2024])
    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_block_draws_on_one_generator_equal_one_draw(self, family, seed, block):
        # 100 is not a multiple of 3 or 64, so the last block is short
        spec = MechanismSpec(family=family, theta=1.7, epsilon=1.0)
        rng = np.random.default_rng(seed)
        blocks = [sample_noise(spec, len(range(start, min(start + block, 100))), rng)
                  for start in range(0, 100, block)]
        assert np.concatenate(blocks).tobytes() == sample_noise(spec, 100, seed).tobytes()


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

    @pytest.mark.parametrize("family", ["laplace", "gaussian"])
    def test_blocks_on_one_generator_equal_one_release(self, family):
        spec = MechanismSpec(family=family, theta=2.5, epsilon=1.0)
        values = np.arange(50.0)
        rng = np.random.default_rng(11)
        blocks = [release(values[start:start + 7], spec, rng) for start in range(0, 50, 7)]
        assert np.concatenate(blocks).tobytes() == release(values, spec, seed=11).tobytes()

    def test_values_must_be_one_dimensional(self):
        spec = MechanismSpec(family="laplace", theta=1.0, epsilon=1.0)
        with pytest.raises(ValidationError, match=r"one-dimensional, got shape \(2, 2\)"):
            release([[1.0, 2.0], [3.0, 4.0]], spec, seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        spec = MechanismSpec(family="laplace", theta=1.0, epsilon=1.0)
        with pytest.raises(ValidationError, match=f"values must be finite, got {bad!r} at index 2"):
            release([1.0, 2.0, bad, 4.0], spec, seed=0)
