import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pufferot import (
    DiscreteDistribution,
    DiscriminativePair,
    MechanismSpec,
    ValidationError,
    adult_education_pair,
    bernoulli_counting,
    calibrate_gaussian,
    calibrate_pufferfish,
    discriminative_pairs,
    enumerate_pairs,
    gaussian_violation_mass,
    optimal_plan,
    plan_sensitivity,
    verify_delta_approx,
    verify_pufferfish,
)
from pufferot import verify
from pufferot.tabular import load_conditionals_json

from oracles import (
    all_points_grid_maximum,
    direct_laplace_log_ratio,
    gaussian_mixture_density,
    normal_two_sided_tail,
    per_pair_laplace_log_ratio,
    unblocked_log_output_density,
)

DATA = Path(__file__).parent / "data"


def laplace_spec(theta, epsilon=1.0):
    return MechanismSpec(family="laplace", theta=theta, epsilon=epsilon)


def gaussian_spec(theta, epsilon=1.0, delta=None):
    return MechanismSpec(family="gaussian", theta=theta, epsilon=epsilon, delta=delta)


def dirac(x):
    return DiscreteDistribution.from_weights([x], [1])


class TestOutputDensity:
    def test_gaussian_peak_at_atom(self):
        expected = -0.5 * math.log(2.0 * math.pi)
        got = verify.log_output_density(dirac(0), gaussian_spec(1.0), [0.0])
        assert got[0] == pytest.approx(expected, abs=1e-12)

    def test_matches_direct_summation(self, example1_pair):
        spec = gaussian_spec(1.0)
        ys = [-2.0, 0.0, 2.0, 2.5, 4.0, 9.0]
        got = np.exp(verify.log_output_density(example1_pair.p, spec, ys))
        for y, density in zip(ys, got):
            assert density == pytest.approx(
                gaussian_mixture_density(example1_pair.p, 1.0, y), rel=1e-12, abs=1e-300
            )

    def test_atomic_scale_rejected(self):
        with pytest.raises(ValidationError, match="theta"):
            verify.log_output_density(dirac(0), gaussian_spec(0.0), [0.0])

    def test_laplace_spec_rejected(self):
        # the Laplace certificate sweeps the support points and needs no density
        with pytest.raises(ValidationError, match="Gaussian-only"):
            verify.log_output_density(dirac(0), laplace_spec(1.0), [0.0])


class TestVerifyPufferfish:
    def test_calibrated_first_example_passes(self, example1_pair):
        report = verify_pufferfish([example1_pair], laplace_spec(1.0), epsilon=1.0)
        assert report.passed
        check = report.checks[0]
        assert check.worst_log_ratio <= 1.0 + 1e-6
        assert check.grid is None
        assert check.argmax_y in example1_pair.p.support
        assert "4 positive-mass support points" in check.note

    def test_identical_pair_has_zero_ratio(self):
        p = DiscreteDistribution.from_weights([0, 1], [1, 2])
        pair = DiscriminativePair(labels=("a", "b"), p=p, q=p)
        report = verify_pufferfish([pair], laplace_spec(0.7), epsilon=1.0)
        assert report.checks[0].worst_log_ratio == pytest.approx(0.0, abs=1e-12)

    def test_undersized_scale_is_flagged(self, example2_pair):
        # the second worked example needs theta = 2/eps; theta = 1/eps must fail
        report = verify_pufferfish([example2_pair], laplace_spec(1.0), epsilon=1.0)
        assert not report.passed
        assert report.checks[0].worst_log_ratio > 1.0

    def test_correct_scale_for_second_example(self, example2_pair):
        report = verify_pufferfish([example2_pair], laplace_spec(2.0), epsilon=1.0)
        assert report.passed

    def test_swap_symmetry(self, adult_pair):
        spec = laplace_spec(2.5, 0.8)
        forward = verify_pufferfish([adult_pair], spec, epsilon=0.8)
        backward = verify_pufferfish([adult_pair.swapped()], spec, epsilon=0.8)
        assert forward.checks[0].worst_log_ratio == pytest.approx(
            backward.checks[0].worst_log_ratio, abs=1e-10
        )

    def test_theorem2_scales_pass_on_adult(self, adult_pair):
        for epsilon in (0.8, 1.8, 2.8, 5.8):
            report_cal = calibrate_pufferfish([adult_pair], epsilon=epsilon, method="theorem2")
            report = verify_pufferfish([adult_pair], laplace_spec(report_cal.theta, epsilon), epsilon)
            assert report.passed, f"epsilon={epsilon}"

    def test_more_noise_never_hurts(self, canonical_pairs):
        for pair in canonical_pairs:
            worsts = []
            for theta in (2.0, 3.0, 4.5, 6.75, 10.0):
                report = verify_pufferfish([pair], laplace_spec(theta), epsilon=1.0)
                worsts.append(report.checks[0].worst_log_ratio)
            assert all(a >= b - 1e-12 for a, b in zip(worsts, worsts[1:]))

    def test_noiseless_identical_passes_exactly(self):
        p = DiscreteDistribution.from_weights([1, 2], [1, 1])
        pair = DiscriminativePair(labels=("a", "b"), p=p, q=p)
        report = verify_pufferfish([pair], laplace_spec(0.0), epsilon=1.0)
        assert report.passed
        assert "exact" in report.checks[0].note

    def test_noiseless_distinct_fails_with_diagnostic(self, example1_pair):
        report = verify_pufferfish([example1_pair], laplace_spec(0.0), epsilon=1.0)
        assert not report.passed
        assert math.isinf(report.checks[0].worst_log_ratio)
        assert "theta = 0" in report.checks[0].note

    def test_gaussian_grid_check(self, example1_pair):
        theta = calibrate_gaussian(1.0, 1.0, 1e-5, "a")
        report = verify_pufferfish([example1_pair], gaussian_spec(theta), epsilon=1.0)
        assert report.passed

    def test_gaussian_gap_between_atoms_is_evaluated(self):
        # both densities are about e^-320000 mid-gap; every grid point is still compared
        p = DiscreteDistribution.from_weights([0.0, 1600.0], [1, 1])
        pair = DiscriminativePair(labels=("a", "b"), p=p, q=p)
        assert verify.log_output_density(p, gaussian_spec(1.0), [800.0])[0] == pytest.approx(
            -320_000.0 - 0.5 * math.log(2.0 * math.pi)
        )
        report = verify_pufferfish([pair], gaussian_spec(1.0), epsilon=1.0)
        assert report.passed
        assert report.checks[0].worst_log_ratio == 0.0
        assert "slack of 0 " in report.checks[0].note

    def test_disjoint_atoms_fail_on_their_limits(self):
        # the extreme atoms differ at both ends, so the log-ratio grows without bound
        pair = DiscriminativePair(labels=("a", "b"), p=dirac(0.0), q=dirac(5000.0))
        report = verify_pufferfish([pair], gaussian_spec(1.0), epsilon=1.0)
        assert not report.passed
        check = report.checks[0]
        assert math.isinf(check.worst_log_ratio)
        assert check.argmax_y in (-math.inf, math.inf)

    def test_gaussian_differing_extremes_fail(self, example2_pair):
        # the +-10 theta grid sees at most 0.184 here, but the supports' extremes
        # differ ({1..4} against {2..5}), so |log-ratio| grows linearly in |y|
        report = verify_pufferfish([example2_pair], gaussian_spec(60.0), epsilon=1.0)
        assert not report.passed
        assert math.isinf(report.checks[0].worst_log_ratio)

    def test_gaussian_limit_beyond_the_grid_fails(self, example1_pair):
        # the grid maximum is 0.144, but as y -> inf the log-ratio tends to
        # log(m_q(4) / m_p(4)) = log 2 > 0.5
        report = verify_pufferfish([example1_pair], gaussian_spec(20.0, 0.5), epsilon=0.5)
        assert not report.passed
        check = report.checks[0]
        assert check.worst_log_ratio == pytest.approx(math.log(2.0), rel=1e-12)
        assert check.argmax_y == math.inf

    def test_laplace_wide_gap_has_no_unverified_tail(self):
        p = DiscreteDistribution.from_weights([0.0, 1600.0], [1, 1])
        pair = DiscriminativePair(labels=("a", "b"), p=p, q=p)
        report = verify_pufferfish([pair], laplace_spec(1.0), epsilon=1.0)
        assert report.passed
        assert report.checks[0].worst_log_ratio == 0.0

    def test_laplace_far_apart_atoms_fail_at_a_support_point(self):
        pair = DiscriminativePair(labels=("a", "b"), p=dirac(0.0), q=dirac(5000.0))
        report = verify_pufferfish([pair], laplace_spec(1.0), epsilon=1.0)
        assert not report.passed
        check = report.checks[0]
        assert check.worst_log_ratio == pytest.approx(5000.0, rel=1e-12)
        assert check.argmax_y in (0.0, 5000.0)

    def test_json_fields(self, example1_pair):
        report = verify_pufferfish([example1_pair], laplace_spec(1.0), epsilon=1.0)
        payload = report.to_json_dict()
        assert payload["pass"] is True
        entry = payload["pairs"][0]
        for key in ("worst_log_ratio", "argmax_y", "pass", "grid"):
            assert key in entry

    def test_infinite_numbers_are_strict_json_strings(self, example2_pair):
        # the extreme atoms differ, so the worst is inf, found as y -> -inf
        report = verify_delta_approx([example2_pair], gaussian_spec(1.0), 1.0, 1e-5)
        (entry,) = report.to_json_dict()["pairs"]
        assert (entry["worst_log_ratio"], entry["argmax_y"]) == ("inf", "-inf")
        assert float(entry["worst_log_ratio"]) == math.inf
        assert float(entry["argmax_y"]) == -math.inf
        distinct = verify_delta_approx([example2_pair], gaussian_spec(0.0), 1.0, 1e-5)
        (entry,) = distinct.to_json_dict()["pairs"]
        assert entry["worst_log_ratio"] == "inf"
        json.dumps(distinct.to_json_dict(), allow_nan=False)

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValidationError, match="at least one"):
            verify_pufferfish([], laplace_spec(1.0), epsilon=1.0)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
    def test_non_finite_epsilon_rejected(self, example1_pair, epsilon):
        with pytest.raises(ValidationError, match="epsilon"):
            verify_pufferfish([example1_pair], laplace_spec(1.0), epsilon=epsilon)


def random_pair(rng):
    """Seeded pair on one support, on overlapping supports with zero-mass atoms, or disjoint.

    On one support every ratio stays O(1) however small theta is, so an
    error that grows with span / theta shows in the maximum.
    """
    span = 10.0 ** rng.uniform(-3, 4)
    n, m = (int(k) for k in rng.integers(1, 25, size=2))
    grid = np.arange(20 * (n + m)) * span / (20 * (n + m)) + rng.uniform(-5.0, 5.0)
    mode = rng.integers(4)
    if mode == 0:  # one support, every atom with mass
        xs_p = xs_q = rng.choice(grid, n, replace=False)
    elif mode == 1:  # both drawn from one small pool, so most atoms are shared
        pool = rng.choice(grid, size=max(n, m) + 2, replace=False)
        xs_p, xs_q = rng.choice(pool, n, replace=False), rng.choice(pool, m, replace=False)
    else:  # no shared atom; mode 3 puts every p atom below every q atom
        points = rng.choice(grid, size=n + m, replace=False)
        if mode == 3:
            points = np.sort(points)
        xs_p, xs_q = points[:n], points[n:]

    def draw(xs):
        w = rng.random(xs.size) + 0.01
        if mode:
            w *= rng.random(xs.size) > 0.25
            w[rng.integers(xs.size)] += 0.1
        return DiscreteDistribution.from_weights(xs, w)

    pair = DiscriminativePair(labels=("a", "b"), p=draw(xs_p), q=draw(xs_q))
    return pair, span


class TestLaplaceExactness:
    def test_support_points_match_direct_log_sum_exp(self):
        rng = np.random.default_rng(20260)
        for _ in range(300):
            pair, span = random_pair(rng)
            theta = span * 10.0 ** rng.uniform(-10, 2)
            check = verify_pufferfish([pair], laplace_spec(theta), epsilon=1.0).checks[0]
            ys = np.union1d(pair.p.support[pair.p.mass > 0], pair.q.support[pair.q.mass > 0])
            direct = direct_laplace_log_ratio(pair.p, pair.q, theta, ys)
            # ratios reach span / theta = 1e10, where float spacing alone is 2e-6
            assert check.worst_log_ratio == pytest.approx(direct.max(), rel=1e-9, abs=1e-9)
            assert direct[ys == check.argmax_y][0] == pytest.approx(
                check.worst_log_ratio, rel=1e-9, abs=1e-9
            )

    @pytest.mark.parametrize("atoms", [1, 2, 7, 100, 333, 2000])
    def test_seeded_atoms_match_direct_log_sum_exp(self, atoms):
        rng = np.random.default_rng(atoms)
        for _ in range(3):
            pair = DiscriminativePair(
                labels=("a", "b"), p=seeded_dist(rng, atoms), q=seeded_dist(rng, atoms)
            )
            theta = 10.0 ** rng.uniform(-1, 2)
            check = verify_pufferfish([pair], laplace_spec(theta), epsilon=1.0).checks[0]
            ys = np.union1d(pair.p.support[pair.p.mass > 0], pair.q.support[pair.q.mass > 0])
            # the oracle's (y, atom) matrix taken 500 rows at a time
            direct = np.concatenate([
                direct_laplace_log_ratio(pair.p, pair.q, theta, ys[k : k + 500])
                for k in range(0, ys.size, 500)
            ])
            assert f"the {ys.size} positive-mass" in check.note
            assert check.worst_log_ratio == pytest.approx(direct.max(), rel=1e-9, abs=1e-9)
            assert direct[ys == check.argmax_y][0] == pytest.approx(
                check.worst_log_ratio, rel=1e-9, abs=1e-9
            )

    def test_dense_grid_never_beats_support_points(self):
        rng = np.random.default_rng(20261)
        for _ in range(300):
            pair, span = random_pair(rng)
            theta = span * 10.0 ** rng.uniform(-10, 2)
            worst = verify_pufferfish([pair], laplace_spec(theta), epsilon=1.0).checks[0]
            points = np.concatenate([pair.p.support, pair.q.support])
            lo, hi = points.min() - 3.0 * span, points.max() + 3.0 * span
            ys = np.concatenate([np.linspace(lo, hi, 4001), points + theta, points - theta])
            dense = direct_laplace_log_ratio(pair.p, pair.q, theta, ys)
            # off the support the oracle's peak exponent is |y - x| / theta, and
            # its rounding, not the checked bound, limits what a grid point shows
            exponent = sum(
                np.abs(ys[:, None] - d.support[d.mass > 0][None, :]).min(axis=1) / theta
                - 2.0 * np.log(d.mass[d.mass > 0].min())
                for d in (pair.p, pair.q)
            )
            rounding = 8.0 * np.finfo(float).eps * exponent
            assert np.all(dense - worst.worst_log_ratio <= 1e-12 + rounding)

    def test_memory_stays_small_at_tiny_theta(self, adult_pair):
        # a uniform sweep at resolution theta / 50 would hold 6.5 M points here
        tracemalloc.start()
        try:
            verify_pufferfish([adult_pair], laplace_spec(1e-4), epsilon=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def mixed_batch(rng, count):
    """Seeded pairs of 1 to 60 atoms: one-atom, zero-mass, identical, swapped and repeated pairs."""
    pairs = []
    while len(pairs) < count:
        n, m = (int(k) for k in rng.integers(1, 61, size=2))
        if rng.random() < 0.15:
            n = m = 1
        p = seeded_dist(rng, n)
        q = p if rng.random() < 0.1 else seeded_dist(rng, m)
        pair = DiscriminativePair(labels=(f"p{len(pairs)}", f"q{len(pairs)}"), p=p, q=q)
        pairs.append(pair.swapped() if rng.random() < 0.3 else pair)
        if rng.random() < 0.2:
            pairs.append(pairs[-1].swapped())
    return pairs


class TestBatchedLaplace:
    """The pairs of one certificate share sweeps; every bit stays that of a lone pair."""

    def assert_batch_equals_oracle(self, pairs, theta):
        batch = {index: rest for index, *rest in verify._laplace_log_ratios(pairs, theta)}
        assert sorted(batch) == list(range(len(pairs)))
        checks = verify_pufferfish(pairs, laplace_spec(theta), epsilon=1.0).checks
        for index, (pair, check) in enumerate(zip(pairs, checks)):
            ys, ratios = per_pair_laplace_log_ratio(pair, theta)
            assert np.array_equal(batch[index][0], ys)
            assert np.array_equal(batch[index][1], ratios)
            k = int(np.argmax(ratios))
            assert check.labels == pair.labels
            assert np.array_equal(check.worst_log_ratio, ratios[k])
            assert np.array_equal(check.argmax_y, ys[k])
            assert f"the {ys.size} positive-mass" in check.note

    @pytest.mark.parametrize("seed", range(30))
    def test_mixed_batches_equal_the_per_pair_oracle(self, seed):
        rng = np.random.default_rng([7, seed])
        pairs = mixed_batch(rng, int(rng.integers(1, 40)))
        self.assert_batch_equals_oracle(pairs, float(10.0 ** rng.uniform(-2, 2)))

    def test_batch_spanning_several_chunks(self):
        # a chunk takes 4 pairs of 2000 points
        pairs = full_union_pairs(np.random.default_rng(11), 30, 2000)
        assert len(pairs) > 3 * (verify._BLOCK_ELEMENTS // (4 * 2000))
        self.assert_batch_equals_oracle(pairs, 0.37)

    def test_memory_stays_within_the_chunk_budget(self):
        # 200 pairs of 2000 points: stacked in one chunk, a single (200, 2, 2, 2000)
        # float array would take 12.8 MB, and the sweep holds several (68 MB at
        # peak); chunks of _BLOCK_ELEMENTS elements peak at about 2 MB
        pairs = full_union_pairs(np.random.default_rng(5), 200, 2000)
        tracemalloc.start()
        try:
            report = verify_pufferfish(pairs, laplace_spec(3.0), epsilon=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report.checks) == 200
        assert peak < 4_000_000


def full_union_pairs(rng, count, atoms):
    """Pairs on one support, each atom empty in at most one side, so each has ``atoms`` points."""
    support = np.arange(float(atoms)) * 0.7
    pairs = []
    for k in range(count):
        empty = rng.random(atoms) < 0.2
        side = rng.random(atoms) < 0.5
        w_p = (rng.random(atoms) + 0.01) * ~(empty & side)
        w_q = (rng.random(atoms) + 0.01) * ~(empty & ~side)
        pairs.append(DiscriminativePair(
            labels=(str(k), "b"),
            p=DiscreteDistribution.from_weights(support, w_p),
            q=DiscreteDistribution.from_weights(support, w_q),
        ))
    return pairs


class TestVerifyDeltaApprox:
    def test_variant_a_tail_mass_within_delta(self, example1_pair):
        delta = 1e-5
        theta = calibrate_gaussian(1.0, 1.0, delta, "a")
        report = verify_delta_approx([example1_pair], gaussian_spec(theta), 1.0, delta)
        assert report.passed
        mass = report.checks[0].violation_mass
        assert mass <= delta
        # cross-check against the standard-normal tail oracle
        c = theta * 1.0 / 1.0
        assert mass == pytest.approx(normal_two_sided_tail(c - 1.0 / (2 * c)), rel=1e-9)

    def test_halved_scale_detected(self, example1_pair):
        delta = 1e-5
        theta = calibrate_gaussian(1.0, 1.0, delta, "a") / 2.0
        report = verify_delta_approx([example1_pair], gaussian_spec(theta), 1.0, delta)
        assert not report.passed
        assert report.checks[0].violation_mass > delta

    def test_identical_pair_zero_mass(self):
        p = DiscreteDistribution.from_weights([0, 1], [1, 1])
        pair = DiscriminativePair(labels=("a", "b"), p=p, q=p)
        report = verify_delta_approx([pair], gaussian_spec(1.0), 1.0, 1e-5)
        assert report.checks[0].violation_mass == 0.0
        assert report.passed

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValidationError, match="at least one"):
            verify_delta_approx([], gaussian_spec(1.0), 1.0, 1e-5)

    def test_laplace_rejected(self, example1_pair):
        with pytest.raises(ValidationError, match="Gaussian-only"):
            verify_delta_approx([example1_pair], laplace_spec(1.0), 1.0, 1e-5)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
    def test_non_finite_epsilon_rejected(self, example1_pair, epsilon):
        with pytest.raises(ValidationError, match="epsilon"):
            verify_delta_approx([example1_pair], gaussian_spec(10.0), epsilon, 1e-5)

    def test_tail_mass_tracks_oracle_on_a_scale_sweep(self):
        for theta in (0.5, 1.0, 2.0, 4.0, 6.0):
            got = gaussian_violation_mass(theta, 1.0, 1.0)
            c = theta
            t = c - 1.0 / (2 * c)
            expected = 1.0 if t <= 0 else normal_two_sided_tail(t)
            assert got == pytest.approx(expected, rel=1e-9)

    def test_underflowing_scale_violates_everywhere(self):
        # c = theta * eps / sensitivity underflows to 0, so t = c - eps / (2c) -> -inf
        assert gaussian_violation_mass(1e-170, 1e-170, 1.0) == 1.0


class TestDeltaDecisionRule:
    """A delta check passes exactly when the plan's Gaussian tail mass is within delta."""

    def test_pass_is_the_tail_mass_alone(self):
        outcomes = set()
        for seed in range(20):
            rng = np.random.default_rng([24, seed])
            pairs = mixed_batch(rng, int(rng.integers(1, 30)))
            # theta = 0, tiny (every grid with a positive span is over the cap) and large
            for theta in (0.0, 1e-7 * 10.0 ** rng.uniform(0, 2), 10.0 ** rng.uniform(0.5, 3)):
                epsilon, delta = 10.0 ** rng.uniform(-1, 0.5), 10.0 ** rng.uniform(-8, -2)
                report = verify_delta_approx(pairs, gaussian_spec(theta), epsilon, delta)
                for pair, check in zip(pairs, report.checks):
                    sens = plan_sensitivity(optimal_plan(pair.p, pair.q))
                    mass = gaussian_violation_mass(theta, epsilon, sens)
                    assert check.passed == (mass <= delta)
                    outcomes.add((check.passed, check.argmax_y is None and theta > 0))
                assert report.passed == all(check.passed for check in report.checks)
        # passing and failing pairs on the grid, and both over the cap
        assert outcomes == {(True, False), (False, False), (True, True), (False, True)}

    def test_wide_pair_over_the_grid_cap_passes(self):
        # a plan sensitivity of 1 on supports a million apart: the grid needs 10.3 M points
        pair = DiscriminativePair(
            labels=("a", "b"),
            p=DiscreteDistribution.from_weights([0.0, 1e6], [1, 1]),
            q=DiscreteDistribution.from_weights([1.0, 1e6 + 1], [1, 1]),
        )
        theta = calibrate_gaussian(1.0, 1.0, 1e-5, "a")
        report = verify_delta_approx([pair], gaussian_spec(theta), 1.0, 1e-5)
        (entry,) = report.to_json_dict()["pairs"]
        assert report.passed and entry["pass"] is True
        assert entry["violation_mass"] == pytest.approx(2.12e-6, rel=1e-3)
        assert "density_slack" not in entry
        assert f"cap of {verify.MAX_GRID_POINTS:,}" in entry["note"]
        assert "needs up to 10,321,348 points" in entry["note"]


class TestOneLogRatioPath:
    """The delta check reports each pair's log-ratio figures, behind its pass criterion."""

    @pytest.mark.parametrize("theta", [0.0, 1e-170, 0.4, 4.85, 60.0])
    def test_delta_checks_carry_the_log_ratio_figures(self, theta):
        # theta = 0 compares the conditionals, 1e-170 puts every grid over the cap
        pairs = suite_pairs() + mixed_batch(np.random.default_rng(27), 12)
        spec = gaussian_spec(theta)
        ratio = verify_pufferfish(pairs, spec, epsilon=1.0)
        tail = verify_delta_approx(pairs, spec, 1.0, 1e-5)
        assert len(tail.checks) == len(ratio.checks) == len(pairs)
        for pair, r, d in zip(pairs, ratio.checks, tail.checks):
            assert r.labels == d.labels == pair.labels
            assert (d.worst_log_ratio, d.argmax_y, d.grid) == (
                r.worst_log_ratio, r.argmax_y, r.grid
            )
            assert d.note == "pass criterion is the noise tail mass; " + r.note
            assert r.violation_mass is None and d.violation_mass is not None


def seeded_dist(rng, atoms):
    """Atoms on a wide grid, about 30 % of them with zero mass."""
    support = np.sort(rng.choice(50 * atoms + 10, size=atoms, replace=False)) / 3.0 - 40.0
    weights = rng.random(atoms) * (rng.random(atoms) > 0.3)
    weights[rng.integers(atoms)] += 0.1
    return DiscreteDistribution.from_weights(support, weights)


class TestBlockedDensity:
    @pytest.mark.parametrize("atoms", [1, 2, 7, 100, 333, 2000])
    def test_equals_the_unblocked_oracle(self, atoms):
        rng = np.random.default_rng(atoms)
        for _ in range(3):
            dist = seeded_dist(rng, atoms)
            spec = gaussian_spec(10.0 ** rng.uniform(-1, 2))
            rows = max(1, verify._BLOCK_ELEMENTS // int(np.count_nonzero(dist.mass > 0)))
            for size in sorted({1, max(1, rows - 1), rows, rows + 1, 2 * rows + 3}):
                ys = rng.uniform(-200.0, 200.0 + 20.0 * atoms, size)
                got = verify.log_output_density(dist, spec, ys)
                assert np.array_equal(got, unblocked_log_output_density(dist, spec, ys)), size

    @pytest.mark.parametrize("theta", [0.4, 4.85, 60.0])
    def test_gaussian_reports_equal_the_oracle_path(self, theta, monkeypatch, adult_pair):
        rng = np.random.default_rng(int(theta * 100))
        pairs = [adult_pair] + [
            DiscriminativePair(labels=("a", "b"), p=seeded_dist(rng, n), q=seeded_dist(rng, m))
            for n, m in rng.integers(1, 60, size=(8, 2)).tolist()
        ]
        spec = gaussian_spec(theta, delta=1e-5)

        def reports():
            return [
                json.dumps(report.to_json_dict(), sort_keys=True)
                for report in (
                    verify_pufferfish(pairs, spec, epsilon=1.0),
                    verify_delta_approx(pairs, spec, 1.0, 1e-5),
                )
            ]

        blocked = reports()
        # a worst of inf hides the grid; the adult pair's extremes match, so its worst does not
        assert math.isfinite(json.loads(blocked[0])["pairs"][0]["worst_log_ratio"])
        monkeypatch.setattr(verify, "log_output_density", unblocked_log_output_density)
        assert blocked == reports()

    def test_memory_is_a_small_fraction_of_the_full_matrix(self):
        # one unblocked (y, atom) temporary here is 200 k x 100 x 8 B = 160 MB
        rng = np.random.default_rng(3)
        dist = DiscreteDistribution.from_weights(np.arange(100.0), rng.random(100) + 0.01)
        ys = np.linspace(-50.0, 150.0, 200_000)
        tracemalloc.start()
        try:
            verify.log_output_density(dist, gaussian_spec(2.0), ys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


class TestGaussianLipschitzSlack:
    def test_log_ratio_between_grid_points_stays_within_the_slack(self):
        rng = np.random.default_rng(20262)
        for _ in range(100):
            pair, span = random_pair(rng)
            spec = gaussian_spec(span * 10.0 ** rng.uniform(-1.5, 1.0))
            ev = verify._gaussian_grid(pair, spec)
            assert math.isfinite(ev.grid_max)
            lo, hi, _ = ev.grid
            ys = rng.uniform(lo, hi, 2000)
            ratio = np.abs(
                verify.log_output_density(pair.p, spec, ys)
                - verify.log_output_density(pair.q, spec, ys)
            )
            assert ratio.max() <= ev.grid_max + ev.slack + 1e-9


def counting_pairs(seed):
    """A seeded 100-user counting system's value pair, then its two absence pairs."""
    system = bernoulli_counting(np.random.default_rng([25, seed]).uniform(0.05, 0.95, 100))
    return discriminative_pairs(system, 0, "values") + discriminative_pairs(system, 0, "absence")


def gaussian_a_theta(pair):
    return calibrate_pufferfish([pair], 1.0, "gaussian-a", delta=1e-5).theta


def suite_pairs():
    with open(DATA / "verify_pairs.json", encoding="utf-8") as fh:
        payload = json.load(fh)
    # the file lists "all" its pairs
    return enumerate_pairs(load_conditionals_json(payload["conditionals"]))


def grid_fields(ev):
    return (ev.grid, ev.grid_max, ev.slack, ev.worst, ev.argmax_y, ev.note)


GRID_FAMILIES = ["counting", "suite", "wide", "mirror", "rounding"]


def grid_cases(family):
    """Seeded (pair, spec) cases of one family for the coarse grid search."""
    rng = np.random.default_rng([2025, GRID_FAMILIES.index(family)])
    if family == "counting":  # value and absence pairs at 1/3, 1 and 3 times the gaussian-a scale
        cases = []
        for seed in range(50):
            pairs = counting_pairs(seed)
            theta = gaussian_a_theta(pairs[0])
            cases += [(pair, gaussian_spec(theta * f)) for pair in pairs for f in (1 / 3, 1.0, 3.0)]
        return cases
    if family == "suite":  # some random pairs need grids near the cap at theta = 0.4
        pairs = suite_pairs() + [adult_education_pair()] + [random_pair(rng)[0] for _ in range(60)]
        thetas = (0.4, 1.0, 4.85, 20.0, 60.0)
        return [(pair, gaussian_spec(theta)) for pair in pairs for theta in thetas]
    if family == "wide":  # wide supports at small theta: grids of 10^4 to 5 * 10^5 points
        cases = []
        for _ in range(8):
            span = 10.0 ** rng.uniform(2, 3)
            p, q = (DiscreteDistribution.from_weights(rng.uniform(0, span, 3), rng.random(3) + 0.1)
                    for _ in range(2))
            theta = span / 10.0 ** rng.uniform(2, 4)
            cases.append((DiscriminativePair(("a", "b"), p, q), gaussian_spec(theta)))
        return cases
    if family == "mirror":  # |log-ratio| peaks at y and -y; a dyadic step keeps the grid symmetric
        cases = []
        for _ in range(30):
            xs = rng.choice(np.arange(-8.0, 9.0), size=int(rng.integers(2, 7)), replace=False)
            w = rng.random(xs.size) + 0.05
            p, q = (DiscreteDistribution.from_weights(sign * xs, w) for sign in (1.0, -1.0))
            theta = 50.0 * 2.0 ** -rng.integers(2, 7)
            cases.append((DiscriminativePair(("a", "b"), p, q), gaussian_spec(theta)))
        return cases
    # identical conditionals, and masses a rounding error apart: the ratio is all rounding,
    # so only the rounding margin keeps a skipped cell below the maximum
    cases = []
    for _ in range(120):
        xs = np.sort(rng.choice(1000, int(rng.integers(2, 30)), replace=False))
        xs = xs / rng.uniform(1, 100)
        w = rng.random(xs.size) + 0.1
        scale = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-15, -8)
        p = DiscreteDistribution.from_weights(xs, w)
        q = DiscreteDistribution.from_weights(xs, w * (1.0 + scale * rng.standard_normal(xs.size)))
        theta = (xs[-1] - xs[0] + 1.0) * 10.0 ** rng.uniform(-2, 1)
        cases.append((DiscriminativePair(("a", "b"), p, q), gaussian_spec(theta)))
    return cases


class TestCoarseGridMaximum:
    """The coarse pass and per-cell Tweedie bounds find the all-points maximum."""

    @pytest.mark.parametrize("family", GRID_FAMILIES)
    def test_every_field_equals_the_all_points_oracle(self, monkeypatch, family):
        cases = grid_cases(family)
        got = [grid_fields(verify._gaussian_grid(pair, spec)) for pair, spec in cases]
        monkeypatch.setattr(verify, "_grid_maximum", all_points_grid_maximum)
        want = [grid_fields(verify._gaussian_grid(pair, spec)) for pair, spec in cases]
        for case, (g, w) in enumerate(zip(got, want)):
            assert g == w, case

    def test_the_families_hold_over_a_thousand_cases(self):
        assert sum(len(grid_cases(family)) for family in GRID_FAMILIES) >= 1000

    def test_counting_value_pair_evaluates_a_tenth_of_its_grid(self, monkeypatch):
        evaluated, grids = [], []
        density, maximum = verify._log_density_and_mean, verify._grid_maximum

        def counted_density(dist, spec, ys):
            evaluated.append(np.atleast_1d(ys).size)
            return density(dist, spec, ys)

        def counted_maximum(pair, spec, ys):
            grids.append(ys.size)
            return maximum(pair, spec, ys)

        monkeypatch.setattr(verify, "_log_density_and_mean", counted_density)
        monkeypatch.setattr(verify, "_grid_maximum", counted_maximum)
        for seed in range(5):
            pair = counting_pairs(seed)[0]
            evaluated.clear()
            verify._gaussian_grid(pair, gaussian_spec(gaussian_a_theta(pair)))
            # both conditionals are evaluated at each chosen point
            assert sum(evaluated) <= 0.1 * 2 * grids[-1], (sum(evaluated), grids[-1])

    def test_memory_stays_under_the_blocked_density_bound(self):
        rng = np.random.default_rng(4)
        p, q = (DiscreteDistribution.from_weights(np.arange(100.0) + shift, rng.random(100) + 0.01)
                for shift in (0.0, 0.5))
        pair = DiscriminativePair(("a", "b"), p, q)
        spec = gaussian_spec(0.025)
        tracemalloc.start()
        try:
            ev = verify._gaussian_grid(pair, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        lo, hi, step = ev.grid
        assert (hi - lo) / step >= 200_000 and math.isfinite(ev.grid_max)
        assert peak < 8_000_000


class TestGaussianGridCap:
    @pytest.mark.parametrize("check", ["log-ratio", "delta"])
    def test_oversized_grid_fails_closed_without_allocating(self, adult_pair, check):
        # the adult pair at theta = 1e-4 needs millions of grid points at theta / 50
        spec = gaussian_spec(1e-4, delta=1e-5)
        tracemalloc.start()
        try:
            if check == "log-ratio":
                report = verify_pufferfish([adult_pair], spec, epsilon=1.0)
            else:
                report = verify_delta_approx([adult_pair], spec, 1.0, 1e-5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        (pair_check,) = report.checks
        assert not report.passed
        assert pair_check.worst_log_ratio is None
        assert pair_check.argmax_y is None
        assert pair_check.grid is not None
        assert f"cap of {verify.MAX_GRID_POINTS:,}" in pair_check.note
        # (13 + 20 theta) / (theta / 50) sweep points plus the 28 support points
        assert "needs up to 6,501,029 points" in pair_check.note

    def test_largest_suite_grid_is_under_the_cap(self):
        # delta_0 vs delta_5000 at theta = 1 needs 251 k points, the largest grid in use
        pair = DiscriminativePair(labels=("a", "b"), p=dirac(0.0), q=dirac(5000.0))
        check = verify_pufferfish([pair], gaussian_spec(1.0), epsilon=1.0).checks[0]
        assert "cap" not in check.note
        assert verify.MAX_GRID_POINTS > 251_002
