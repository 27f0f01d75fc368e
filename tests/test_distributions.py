import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pufferot import DiscreteDistribution, ValidationError, poisson_binomial

from conftest import EXAMPLE1
from oracles import brute_force_poisson_binomial


def dist_strategy(max_size=8):
    return st.integers(min_value=1, max_value=max_size).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-50, 50), min_size=n, max_size=n, unique=True),
            st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n),
        )
    )


class TestFromWeights:
    def test_worked_example_masses(self):
        dist = DiscreteDistribution.from_weights(EXAMPLE1["support"], EXAMPLE1["p"])
        assert np.allclose(dist.support, [1, 2, 3, 4], atol=0)
        assert np.allclose(dist.mass, [1 / 3, 1 / 6, 1 / 3, 1 / 6], atol=1e-12)

    def test_single_atom_normalizes(self):
        dist = DiscreteDistribution.from_weights([0], [5])
        assert dist.support.tolist() == [0.0]
        assert dist.mass.tolist() == [1.0]

    def test_sorts_support_and_permutes_weights(self):
        dist = DiscreteDistribution.from_weights([3, 1, 2], [1, 1, 2])
        assert dist.support.tolist() == [1.0, 2.0, 3.0]
        assert dist.mass.tolist() == [0.25, 0.5, 0.25]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            DiscreteDistribution.from_weights([], [])

    def test_negative_weight_names_index(self):
        with pytest.raises(ValidationError, match=r"weights\[2\]"):
            DiscreteDistribution.from_weights([1, 2, 3], [1, 1, -1])

    def test_duplicate_support_names_index(self):
        with pytest.raises(ValidationError, match="duplicate support value"):
            DiscreteDistribution.from_weights([1, 2, 1], [1, 1, 1])

    def test_zero_weight_sum_rejected(self):
        with pytest.raises(ValidationError, match="positive sum"):
            DiscreteDistribution.from_weights([1, 2], [0, 0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="lengths differ"):
            DiscreteDistribution.from_weights([1, 2], [1])

    def test_zero_weights_keep_declared_atoms(self):
        dist = DiscreteDistribution.from_weights([0, 1], [0, 3])
        assert dist.support.tolist() == [0.0, 1.0]
        assert dist.mass.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_checked_constructor(self, seed):
        # the sorted support and normalised weights, checked again by __init__
        rng = np.random.default_rng(seed)
        for size in (1, 2, 7, 100, 1000):
            support = rng.permutation(rng.choice(10 * size, size, replace=False) / 7.0 - size)
            weights = rng.random(size) * (rng.random(size) > 0.2) * 10.0 ** rng.integers(-300, 300)
            weights[rng.integers(size)] += 1e-3
            given = (support.copy(), weights.copy())
            dist = DiscreteDistribution.from_weights(*given)
            order = np.argsort(support, kind="stable")
            checked = DiscreteDistribution(support[order], weights[order] / weights[order].sum())
            assert np.array_equal(dist.support, checked.support)
            assert np.array_equal(dist.mass, checked.mass)
            assert not dist.support.flags.writeable and not dist.mass.flags.writeable
            given[0][0] += 1.0
            given[1][0] += 1.0
            assert np.array_equal(dist.support, checked.support)
            assert np.array_equal(dist.mass, checked.mass)

    @pytest.mark.parametrize("support,weights,message", [
        ([], [], "support must not be empty"),
        ([[1.0]], [1.0], "support must be one-dimensional, got shape (1, 1)"),
        ([1, 2], [1], "support and weights lengths differ: 2 != 1"),
        ([1, math.nan], [1, 1], "support[1] is not finite: nan"),
        ([1, 2], [1, math.inf], "weights[1] is not finite: inf"),
        ([1, 2], [1, -2], "weights[1] is negative: -2.0"),
        ([3, 1, 3], [1, 1, 1], "duplicate support value 3.0 (input index 2)"),
        ([1, 2], [0, 0], "weights must have a positive sum"),
        # the total overflows, so every normalised weight is 0
        ([0, 1], [1e308, 1e308], "mass must sum to 1 within 1e-12, got 0.0"),
    ])
    def test_messages(self, support, weights, message):
        with pytest.raises(ValidationError) as info:
            DiscreteDistribution.from_weights(support, weights)
        assert str(info.value) == message

    @given(dist_strategy())
    @settings(max_examples=60, deadline=None)
    def test_normalization_invariant(self, raw):
        support, weights = raw
        dist = DiscreteDistribution.from_weights(support, weights)
        assert abs(dist.mass.sum() - 1.0) <= 1e-12


class TestConstructorInvariants:
    def test_mass_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            DiscreteDistribution([1, 2], [0.5, 0.6])

    def test_support_strictly_increasing(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            DiscreteDistribution([2, 1], [0.5, 0.5])

    def test_negative_mass_rejected(self):
        with pytest.raises(ValidationError, match=r"mass\[0\]"):
            DiscreteDistribution([1, 2], [-0.1, 1.1])

    @pytest.mark.parametrize("build,message", [
        (lambda: DiscreteDistribution([1, math.inf], [0.5, 0.5]), "support[1] is not finite: inf"),
        (lambda: DiscreteDistribution([2, 1], [0.5, 0.5]),
         "support must be strictly increasing; support[1]=1.0 does not exceed support[0]=2.0"),
        (lambda: DiscreteDistribution([1, 2], [-0.1, 1.1]), "mass[0] is negative: -0.1"),
        (lambda: DiscreteDistribution([1, 2, 3], [0.5, 0.5]),
         "support and mass lengths differ: 3 != 2"),
        # two faults: the vector check, shared with from_weights, runs before the order check
        (lambda: DiscreteDistribution([2, 1], [-0.1, 1.1]), "mass[0] is negative: -0.1"),
        (lambda: DiscreteDistribution.from_weights([1, 2], [1, -2]),
         "weights[1] is negative: -2.0"),
        (lambda: DiscreteDistribution.from_weights([3, 1, 3], [1, 1, 1]),
         "duplicate support value 3.0 (input index 2)"),
        (lambda: poisson_binomial([0.5, 1.5]), "p_values[1]=1.5 is outside [0, 1]"),
    ])
    def test_messages_show_plain_floats(self, build, message):
        with pytest.raises(ValidationError) as info:
            build()
        assert str(info.value) == message

    def test_immutable_arrays(self):
        dist = DiscreteDistribution.from_weights([1, 2], [1, 1])
        with pytest.raises(ValueError):
            dist.mass[0] = 0.9


class TestPoissonBinomial:
    def test_homogeneous_matches_published_series(self):
        dist = poisson_binomial([0.7] * 25)
        assert dist.support.tolist() == [float(k) for k in range(26)]
        assert math.isclose(dist.mass[17], 0.165079581131525, abs_tol=1e-12)
        assert math.isclose(dist.mass[10], 0.0013248974242352, abs_tol=1e-12)
        assert math.isclose(dist.mass[25], 0.000134106861966396, abs_tol=1e-12)

    def test_deterministic_bernoulli(self):
        dist = poisson_binomial([1.0])
        assert dist.support.tolist() == [0.0, 1.0]
        assert dist.mass.tolist() == [0.0, 1.0]

    def test_three_term_enumeration(self):
        dist = poisson_binomial([0.2, 0.5, 0.9])
        oracle = brute_force_poisson_binomial([0.2, 0.5, 0.9])
        assert np.abs(dist.mass - oracle).max() <= 1e-12

    @pytest.mark.parametrize("ps", [[0.3] * 5, [0.05, 0.5, 0.5, 0.95], [0.31] * 12])
    def test_brute_force_small_instances(self, ps):
        dist = poisson_binomial(ps)
        oracle = brute_force_poisson_binomial(ps)
        assert np.abs(dist.mass - oracle).max() <= 1e-12

    def test_homogeneous_matches_binomial_closed_form(self):
        v, p = 12, 0.37
        dist = poisson_binomial([p] * v)
        closed = np.array(
            [math.comb(v, k) * p**k * (1 - p) ** (v - k) for k in range(v + 1)]
        )
        assert np.abs(dist.mass - closed).max() <= 1e-12

    def test_same_arithmetic_as_a_plain_convolution_chain(self):
        ps = np.random.default_rng(5).random(80)
        ps[[3, 40, 41, 79]] = [0.0, 1.0, 1.0, 0.0]
        pmf = np.array([1.0])
        for p in ps:
            pmf = np.convolve(pmf, [1.0 - p, p])
        assert np.array_equal(poisson_binomial(ps).mass, pmf / pmf.sum())

    def test_probability_out_of_range(self):
        with pytest.raises(ValidationError, match=r"p_values\[1\]"):
            poisson_binomial([0.5, 1.2])


class TestJson:
    def test_round_trip_bit_identical(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = rng.integers(1, 9)
            dist = DiscreteDistribution.from_weights(
                np.sort(rng.choice(1000, size=n, replace=False)) + rng.random(),
                rng.random(n) + 1e-3,
            )
            text = json.dumps(dist.to_json_dict())
            back = DiscreteDistribution.from_json_dict(json.loads(text))
            assert np.array_equal(back.support, dist.support)
            assert np.array_equal(back.mass, dist.mass)

    def test_missing_key_rejected(self):
        with pytest.raises(ValidationError, match="mass"):
            DiscreteDistribution.from_json_dict({"support": [1]})
