import gc
import math
import weakref

import numpy as np
import pytest

from pufferot import (
    DiscreteDistribution,
    UserSystem,
    ValidationError,
    bernoulli_counting,
    conditional_output_dist,
    discriminative_pairs,
    optimal_plan,
    plan_sensitivity,
    query_sensitivity,
)
from pufferot import scenarios
from pufferot.scenarios import ATOM_MERGE_TOL, _merge_close

from oracles import (
    _merge_close_scan,
    brute_force_counting_conditional,
    per_step_conditional,
    per_user_bernoulli,
    per_user_system,
)

HETERO_PS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.35]


def as_mass_map(dist):
    return {float(x): float(m) for x, m in zip(dist.support, dist.mass)}


class TestConditionalOutputDist:
    def test_value_event_matches_published_series(self):
        system = bernoulli_counting([0.7] * 25)
        given_zero = conditional_output_dist(system, 0, 0.0)
        assert given_zero.support.tolist() == [float(k) for k in range(25)]
        assert math.isclose(given_zero.mass[17], 0.176084886540293, abs_tol=1e-12)
        given_one = conditional_output_dist(system, 0, 1.0)
        assert given_one.support.tolist() == [float(k) for k in range(1, 26)]
        assert math.isclose(as_mass_map(given_one)[17.0], 0.160363021670624, abs_tol=1e-12)

    def test_absent_event_matches_published_series(self):
        system = bernoulli_counting([0.7] * 25)
        absent = conditional_output_dist(system, 0)
        mass = as_mass_map(absent)
        assert math.isclose(mass[17.0], 0.165079581131525, abs_tol=1e-12)
        assert math.isclose(mass[25.0], 0.000134106861966396, abs_tol=1e-12)

    def test_single_present_user_is_deterministic(self):
        system = bernoulli_counting([0.4])
        dist = conditional_output_dist(system, 0, 1.0)
        assert dist.support.tolist() == [1.0]
        assert dist.mass.tolist() == [1.0]

    @pytest.mark.parametrize("event", [None, (3, 0), (3, 1), (0, 1), (9, 0)])
    def test_heterogeneous_brute_force(self, event):
        system = bernoulli_counting(HETERO_PS)
        if event is None:
            dist = conditional_output_dist(system, 0)
            oracle = brute_force_counting_conditional(HETERO_PS)
        else:
            user, value = event
            dist = conditional_output_dist(system, user, float(value))
            oracle = brute_force_counting_conditional(HETERO_PS, user, value)
        got = as_mass_map(dist)
        for k, expected in oracle.items():
            assert math.isclose(got.get(float(k), 0.0), expected, abs_tol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_every_users_absence_law_equals_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        users = int(rng.integers(1, 13))
        ps = rng.random(users)
        ps[rng.random(users) < 0.15] = 0.0
        ps[rng.random(users) < 0.15] = 1.0
        system = bernoulli_counting(ps)
        oracle = brute_force_counting_conditional(ps)
        laws = [as_mass_map(conditional_output_dist(system, user)) for user in range(users)]
        for law in laws:
            assert set(law) <= {float(k) for k in oracle}
            for k, expected in oracle.items():
                assert math.isclose(law.get(float(k), 0.0), expected, abs_tol=1e-12)
        # each user's law is convolved in another order, so only its last bits may differ
        for law in laws[1:]:
            assert set(law) == set(laws[0])
            for x, m in law.items():
                assert math.isclose(m, laws[0][x], abs_tol=1e-12)

    def test_absence_equals_prior_mixture(self):
        system = bernoulli_counting(HETERO_PS)
        absent = as_mass_map(conditional_output_dist(system, 2))
        prior = system.priors[2]
        mixture: dict[float, float] = {}
        for a, weight in zip(prior.support, prior.mass):
            part = conditional_output_dist(system, 2, float(a))
            for x, m in as_mass_map(part).items():
                mixture[x] = mixture.get(x, 0.0) + weight * m
        assert set(mixture) == set(absent)
        for x, m in mixture.items():
            assert math.isclose(absent[x], m, abs_tol=1e-12)

    def test_unknown_alphabet_value_rejected(self):
        system = bernoulli_counting([0.5, 0.5])
        with pytest.raises(ValidationError, match="alphabet"):
            conditional_output_dist(system, 0, 2.0)

    def test_bad_user_index_rejected(self):
        system = bernoulli_counting([0.5])
        with pytest.raises(ValidationError, match="user index"):
            conditional_output_dist(system, 3, 0.0)

    @pytest.mark.parametrize("user", [1.5, 1.0, "1", None])
    def test_user_index_that_is_not_an_integer_rejected(self, user):
        system = bernoulli_counting([0.5, 0.25])
        for call in (lambda: conditional_output_dist(system, user, 0.0),
                     lambda: discriminative_pairs(system, user),
                     lambda: query_sensitivity(system, user)):
            with pytest.raises(ValidationError) as exc:
                call()
            assert str(exc.value) == f"user index must be an integer, got {user!r}"

    @pytest.mark.parametrize("user", [np.int64(1), True])
    def test_user_index_is_what_operator_index_takes(self, user):
        system = bernoulli_counting([0.5, 0.25])
        pairs = discriminative_pairs(system, user, "absence")
        assert [pair.labels for pair in pairs] == [("S1=0", "S1=absent"), ("S1=1", "S1=absent")]
        want = discriminative_pairs(system, 1, "absence")
        assert all(mine.p is theirs.p for mine, theirs in zip(pairs, want, strict=True))
        assert conditional_output_dist(system, user, 1.0) is conditional_output_dist(system, 1, 1.0)
        assert query_sensitivity(system, user) == 1.0

    def test_convolution_atom_cap(self):
        support = np.arange(101, dtype=float)
        prior = DiscreteDistribution.from_weights(support, np.ones(101))
        # irrational-looking spacing defeats the integer grid and the merge
        system = UserSystem(priors=(prior, prior), outputs=(support, support * 1.6180339887))
        # user 0's leave-one-out law fits; convolving user 0 into it does not
        assert len(conditional_output_dist(system, 0, 0.0)) == 101
        with pytest.raises(ValidationError, match="atoms"):
            conditional_output_dist(system, 0)


class TestDiscriminativePairs:
    def test_binary_values_mode_single_pair(self):
        system = bernoulli_counting([0.5, 0.5])
        pairs = discriminative_pairs(system, 0, "values")
        assert len(pairs) == 1
        assert pairs[0].labels == ("S0=0", "S0=1")

    def test_binary_absence_mode_two_pairs(self):
        system = bernoulli_counting([0.5, 0.5])
        pairs = discriminative_pairs(system, 0, "absence")
        assert [pair.labels for pair in pairs] == [("S0=0", "S0=absent"), ("S0=1", "S0=absent")]

    def test_unit_offset_support_for_counting(self):
        system = bernoulli_counting([0.7] * 25)
        (pair,) = discriminative_pairs(system, 3, "values")
        plan = optimal_plan(pair.p, pair.q)
        assert np.all(plan.displacements() == -1.0)

    def test_unit_offset_survives_heterogeneous_priors(self):
        system = bernoulli_counting(HETERO_PS)
        (pair,) = discriminative_pairs(system, 1, "values")
        plan = optimal_plan(pair.p, pair.q)
        assert np.all(plan.displacements() == -1.0)

    @pytest.mark.parametrize("ps", [[0.7] * 25, HETERO_PS])
    def test_absence_pairs_stay_within_unit_sensitivity(self, ps):
        system = bernoulli_counting(ps)
        for pair in discriminative_pairs(system, 0, "absence"):
            plan = optimal_plan(pair.p, pair.q)
            assert plan_sensitivity(plan) <= 1.0

    def test_offset_matches_per_user_output_gap(self):
        # three-letter alphabet with outputs 0, 3, 6: the (a, b) plan support
        # must sit exactly on the diagonal shifted by f(a) - f(b)
        support = [0.0, 1.0, 2.0]
        prior = DiscreteDistribution.from_weights(support, [2, 3, 5])
        system = UserSystem(priors=(prior,) * 3, outputs=(3.0 * prior.support,) * 3)
        for pair in discriminative_pairs(system, 1, "values"):
            a = float(pair.labels[0].split("=")[1])
            b = float(pair.labels[1].split("=")[1])
            plan = optimal_plan(pair.p, pair.q)
            assert np.all(plan.displacements() == 3.0 * a - 3.0 * b)

    @pytest.mark.parametrize("mode", ["values", "absence"])
    @pytest.mark.parametrize("alphabet,texts", [
        ([0.1, 0.1000001, 2.0], ["0.1", "0.1000001", "2"]),
        ([999999.0, 1e6, 1000001.0], ["999999", "1e+06", "1000001.0"]),
        # no collision: a value ":g" rounds is still labelled by its repr
        ([0.1234567, 2.0, 3.0], ["0.1234567", "2", "3"]),
    ])
    def test_labels_stay_distinct_past_six_digits(self, mode, alphabet, texts):
        # ":g" keeps six digits; a value it does not read back as is labelled by repr
        prior = DiscreteDistribution.from_weights(alphabet, [1, 1, 1])
        coin = DiscreteDistribution.from_weights([0.0, 1.0], [1, 3])
        system = UserSystem(priors=(prior, coin), outputs=(alphabet, [0.0, 1.0]))
        labels = [f"S0={text}" for text in texts]
        expected = {
            "values": [(labels[0], labels[1]), (labels[0], labels[2]), (labels[1], labels[2])],
            "absence": [(label, "S0=absent") for label in labels],
        }[mode]
        assert [pair.labels for pair in discriminative_pairs(system, 0, mode)] == expected

    def test_bad_mode_rejected(self):
        system = bernoulli_counting([0.5])
        with pytest.raises(ValidationError, match="mode"):
            discriminative_pairs(system, 0, "both")


class TestQuerySensitivity:
    def test_counting_binary_alphabet(self):
        system = bernoulli_counting([0.6, 0.2])
        assert query_sensitivity(system, 0) == 1.0

    def test_constant_query_zero(self):
        prior = DiscreteDistribution.from_weights([0, 1], [1, 1])
        system = UserSystem(priors=(prior,), outputs=([5.0, 5.0],))
        assert query_sensitivity(system, 0) == 0.0

    def test_scaled_ternary_alphabet(self):
        support = [0.0, 1.0, 2.0]
        prior = DiscreteDistribution.from_weights(support, [1, 1, 1])
        system = UserSystem(priors=(prior,), outputs=(3.0 * prior.support,))
        assert query_sensitivity(system, 0) == 6.0

    def test_independent_of_priors(self):
        for ps in ([0.5, 0.5, 0.5], [0.9, 0.1, 0.3]):
            system = bernoulli_counting(ps)
            assert query_sensitivity(system, 1) == 1.0

    @pytest.mark.parametrize("seed", range(3))
    def test_equals_the_largest_pairwise_swing(self, seed):
        rng = np.random.default_rng(seed)
        outputs = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=7)
        prior = DiscreteDistribution.from_weights(np.arange(7.0), np.ones(7))
        system = UserSystem(priors=(prior,), outputs=(outputs,))
        swing = np.abs(np.subtract.outer(outputs, outputs)).max()
        assert query_sensitivity(system, 0) == swing

    def test_bounds_value_pair_plans(self):
        system = bernoulli_counting(HETERO_PS)
        bound = query_sensitivity(system, 4)
        for pair in discriminative_pairs(system, 4, "values"):
            plan = optimal_plan(pair.p, pair.q)
            assert plan_sensitivity(plan) <= bound


def ternary_system(seed, users=12):
    """Integer outputs with collisions, negative values and zero-mass atoms."""
    rng = np.random.default_rng(seed)
    priors, outputs = [], []
    for _ in range(users):
        support = np.sort(rng.choice(6, size=3, replace=False)).astype(float)
        weights = rng.random(3) * (rng.random(3) > 0.3)
        weights[rng.integers(3)] += 0.2
        priors.append(DiscreteDistribution.from_weights(support, weights))
        scale = float(rng.integers(-2, 4))
        outputs.append([float(scale * a // 2) for a in support.tolist()])
    return UserSystem(priors=tuple(priors), outputs=tuple(outputs))


class TestIntegerGridKernel:
    @pytest.mark.parametrize("seed", range(4))
    def test_bernoulli_matches_per_step_reference_exactly(self, seed):
        rng = np.random.default_rng(seed)
        ps = rng.random(60)
        ps[rng.integers(60, size=4)] = [0.0, 1.0, 0.0, 1.0]
        system = bernoulli_counting(ps)
        for user in (0, 7):
            for value in (0.0, 1.0, None):
                dist = conditional_output_dist(system, user, value)
                support, mass = per_step_conditional(system, user, value)
                assert np.array_equal(dist.support, support)
                assert np.array_equal(dist.mass, mass)

    @pytest.mark.parametrize("seed", range(4))
    def test_general_alphabets_match_per_step_reference_exactly(self, seed):
        system = ternary_system(seed)
        for user in (0, 5):
            for value in system.priors[user].support.tolist() + [None]:
                dist = conditional_output_dist(system, user, value)
                support, mass = per_step_conditional(system, user, value)
                assert np.array_equal(dist.support, support)
                assert np.array_equal(dist.mass, mass)

    def test_user_wider_than_the_cap(self):
        # user 0's outputs span 20001 integers: conditioning on its value leaves
        # it out of the convolution, every other event must hit the cap
        wide = DiscreteDistribution.from_weights([0.0, 1.0], [1, 1])
        coin = DiscreteDistribution.from_weights([0.0, 1.0], [1, 3])
        outputs = ([0.0, 20000.0],) + ([0.0, 1.0],) * 3
        system = UserSystem(priors=(wide,) + (coin,) * 3, outputs=outputs)
        dist = conditional_output_dist(system, 0, 1.0)
        assert dist.support.tolist() == [20000.0, 20001.0, 20002.0, 20003.0]
        for user, value in ((0, None), (1, 0.0)):
            with pytest.raises(ValidationError, match="atoms"):
                conditional_output_dist(system, user, value)


def fractional_system(seed, users=6):
    """Non-integer outputs whose pairwise sums collide within the merge tolerance."""
    rng = np.random.default_rng(seed)
    levels = [0.1, 0.2, 0.3, 0.7, 1.5, 2.25]
    priors, outputs = [], []
    for _ in range(users):
        support = np.sort(rng.choice(5, size=3, replace=False)).astype(float)
        weights = rng.random(3) * (rng.random(3) > 0.3)
        weights[rng.integers(3)] += 0.2
        priors.append(DiscreteDistribution.from_weights(support, weights))
        outputs.append([float(rng.choice(levels)) for _ in support])
    return UserSystem(priors=tuple(priors), outputs=tuple(outputs))


def bernoulli_system(seed, users=60):
    rng = np.random.default_rng(seed)
    ps = rng.random(users)
    ps[rng.integers(users, size=4)] = [0.0, 1.0, 0.0, 1.0]
    return bernoulli_counting(ps)


class TestPairsConvolveOnce:
    @pytest.mark.parametrize("make", [bernoulli_system, ternary_system, fractional_system])
    @pytest.mark.parametrize("seed", range(3))
    def test_pair_conditionals_match_per_step_reference_exactly(self, make, seed):
        system = make(seed)
        for user in (0, 3):
            expected = {
                f"S{user}={a:g}": per_step_conditional(system, user, a)
                for a in system.priors[user].support.tolist()
            }
            expected[f"S{user}=absent"] = per_step_conditional(system, user)
            for mode in ("values", "absence"):
                for pair in discriminative_pairs(system, user, mode):
                    for label, dist in zip(pair.labels, (pair.p, pair.q)):
                        support, mass = expected[label]
                        assert np.array_equal(dist.support, support), label
                        assert np.array_equal(dist.mass, mass), label

    def test_absence_law_goes_through_the_module_function(self, monkeypatch):
        # per-layer tracing wraps this module attribute; it must see the absence law
        import pufferot.scenarios as scenarios

        seen = []
        original = scenarios.conditional_output_dist

        def spy(system, user, value=None):
            seen.append((user, value))
            return original(system, user, value)

        monkeypatch.setattr(scenarios, "conditional_output_dist", spy)
        system = bernoulli_counting(HETERO_PS)
        scenarios.discriminative_pairs(system, 2, "values")
        assert seen == []
        scenarios.discriminative_pairs(system, 2, "absence")
        assert seen == [(2, None)]


def small_bernoulli_system(seed):
    return bernoulli_system(seed, users=12)


class TestLawMemo:
    """Each system keeps its latest user's leave-one-out law and conditionals."""

    @pytest.mark.parametrize("make", [small_bernoulli_system, ternary_system, fractional_system])
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("modes", [("values", "absence"), ("absence", "values")])
    def test_every_user_equals_the_reference_and_a_fresh_system(self, make, seed, modes):
        system = make(seed)
        for user in range(system.user_count):
            expected = {
                f"S{user}={a:g}": per_step_conditional(system, user, a)
                for a in system.priors[user].support.tolist()
            }
            expected[f"S{user}=absent"] = per_step_conditional(system, user)
            for mode in modes:
                pairs = discriminative_pairs(system, user, mode)
                fresh = discriminative_pairs(make(seed), user, mode)
                assert [pair.labels for pair in pairs] == [pair.labels for pair in fresh]
                for pair, other in zip(pairs, fresh):
                    sides = zip(pair.labels, (pair.p, pair.q), (other.p, other.q))
                    for label, dist, alone in sides:
                        support, mass = expected[label]
                        assert np.array_equal(dist.support, support), label
                        assert np.array_equal(dist.mass, mass), label
                        assert np.array_equal(dist.support, alone.support), label
                        assert np.array_equal(dist.mass, alone.mass), label
            for value in system.priors[user].support.tolist() + [None]:
                dist = conditional_output_dist(system, user, value)
                alone = conditional_output_dist(make(seed), user, value)
                assert np.array_equal(dist.support, alone.support)
                assert np.array_equal(dist.mass, alone.mass)
            user_, _, built = vars(system)["_law"]
            assert user_ == user
            assert set(built) == set(range(system.outputs[user].size)) | {None}

    def test_holds_one_users_read_only_law(self):
        system = bernoulli_counting(HETERO_PS)
        conditional_output_dist(system, 0)
        user, _, built = vars(system)["_law"]
        assert (user, set(built)) == (0, {None})
        for user in (3, 5, 3):
            discriminative_pairs(system, user, "absence")
            memo_user, law, built = vars(system)["_law"]
            assert (memo_user, set(built)) == (user, {0, 1, None})
            assert not any(array.flags.writeable for array in law)
        conditional_output_dist(system, 1, 1.0)
        user, _, built = vars(system)["_law"]
        assert (user, set(built)) == (1, {1})

    def test_values_then_absence_convolve_the_other_users_once(self, monkeypatch):
        calls = []
        convolve = scenarios._convolve

        def spy(system, left_out):
            calls.append(left_out)
            return convolve(system, left_out)

        monkeypatch.setattr(scenarios, "_convolve", spy)
        convolutions = []
        np_convolve = np.convolve

        def counted(a, v):
            convolutions.append(a.size)
            return np_convolve(a, v)

        monkeypatch.setattr(np, "convolve", counted)
        system = bernoulli_counting(HETERO_PS)
        values = discriminative_pairs(system, 2, "values")
        absence = discriminative_pairs(system, 2, "absence")
        assert calls == [2]
        # the first of the other users starts the law, and the user's own term ends it
        assert len(convolutions) == system.user_count - 1
        # the absence pairs reuse the value conditionals, and a second call the absence law
        assert [pair.p for pair in absence] == [values[0].p, values[0].q]
        assert discriminative_pairs(system, 2, "absence")[0].q is absence[0].q
        assert calls == [2] and len(convolutions) == system.user_count - 1

    def test_entry_goes_with_the_system(self):
        system = bernoulli_counting(HETERO_PS)
        discriminative_pairs(system, 1, "absence")
        ref = weakref.ref(system)
        del system
        gc.collect()
        assert ref() is None


class TestMergeClose:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_sequential_scan_exactly(self, seed):
        # runs of up to a few hundred atoms, where pairwise summation differs
        # from a left-to-right sum; shuffled, with exact ties
        rng = np.random.default_rng(seed)
        centres = rng.random(int(rng.integers(1, 40)))
        values = rng.choice(centres, size=int(rng.integers(1, 3000)))
        values += rng.integers(-2, 3, size=values.size) * ATOM_MERGE_TOL * rng.random(values.size)
        mass = rng.random(values.size)
        got = _merge_close(values, mass)
        expected = _merge_close_scan(values, mass)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])


class TestBernoulliPriors:
    @pytest.mark.parametrize("seed", range(3))
    def test_priors_equal_the_checked_constructor(self, seed):
        rng = np.random.default_rng(seed)
        ps = rng.random(100)
        ps[:4] = [0.0, 1.0, 0.5, np.nextafter(1.0, 0.0)]
        system = bernoulli_counting(ps.tolist())
        assert system.user_count == ps.size
        for p, prior in zip(ps.tolist(), system.priors):
            checked = DiscreteDistribution(np.array([0.0, 1.0]), np.array([1.0 - p, p]))
            assert np.array_equal(prior.support, checked.support)
            assert np.array_equal(prior.mass, checked.mass)
            assert not prior.support.flags.writeable
            assert not prior.mass.flags.writeable

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-12, 1.0 + 1e-12])
    def test_out_of_range_or_non_finite_p_rejected(self, bad):
        with pytest.raises(ValidationError, match=r"p must lie in \[0, 1\], got p_values\[1\]"):
            bernoulli_counting([0.5, bad, 0.5])

    @pytest.mark.parametrize("ps", [[], [[0.5, 0.5]]])
    def test_p_vector_shape_rejected(self, ps):
        with pytest.raises(ValidationError, match="nonempty vector"):
            bernoulli_counting(ps)


class TestSystemConstruction:
    def test_needs_a_user(self):
        with pytest.raises(ValidationError, match="needs at least one user"):
            UserSystem(priors=(), outputs=())

    @pytest.mark.parametrize("alphabet,outputs", [
        # on the grid: the three outputs' sum does not convert to a float
        (1, [[1e308]] * 3),
        # merged: shifting the other user's law by 1.5e308 overflows
        (2, [[0.5, 1.5e308]] * 2),
        # every sum is finite, but two conditionals lie 2e308 apart
        (2, [[0.0, 1.0], [-1e308, 1e308]]),
    ])
    def test_outputs_summing_past_the_float_range(self, alphabet, outputs):
        prior = DiscreteDistribution.from_weights(range(alphabet), [1] * alphabet)
        with pytest.raises(ValidationError, match="^query outputs can sum past the float range"):
            UserSystem(priors=(prior,) * len(outputs), outputs=tuple(outputs))

    def test_one_output_array_per_user(self):
        prior = DiscreteDistribution.from_weights([0, 1], [1, 1])
        with pytest.raises(ValidationError, match="outputs holds 1 arrays for 2 users"):
            UserSystem(priors=(prior, prior), outputs=([0.0, 1.0],))

    @pytest.mark.parametrize("outputs", [[0.0], [0.0, 1.0, 2.0], [[0.0, 1.0]], 1.0])
    def test_one_output_per_alphabet_value(self, outputs):
        prior = DiscreteDistribution.from_weights([0, 1], [1, 1])
        with pytest.raises(ValidationError, match="user 0 needs 2 outputs, got shape"):
            UserSystem(priors=(prior,), outputs=(outputs,))

    def test_non_finite_output_names_user_and_value(self):
        prior = DiscreteDistribution.from_weights([0, 1], [1, 1])
        with pytest.raises(ValidationError) as info:
            UserSystem(priors=(prior, prior), outputs=([0.0, 1.0], [0.0, math.inf]))
        assert str(info.value) == "query output for user 1 at 1.0 is not finite"

    def test_outputs_are_read_only_copies(self):
        prior = DiscreteDistribution.from_weights([0, 1], [1, 1])
        given = np.array([0.0, 2.0])
        system = UserSystem(priors=(prior,), outputs=(given,))
        given[1] = 5.0
        assert system.outputs[0].tolist() == [0.0, 2.0]
        assert not system.outputs[0].flags.writeable

    def test_bernoulli_probability_range(self):
        with pytest.raises(ValidationError, match="p must lie"):
            bernoulli_counting([0.5, 1.2])


def seeded_system(seed):
    """A seeded system and its :func:`per_user_system` reference, built from one input.

    By ``seed % 4``: a Bernoulli counting query with p = 0 and p = 1 among
    its p's; integer outputs, one array per user; integer outputs, one
    array shared by every user; non-integer outputs, whose sums merge.
    Priors carry zero-mass atoms.
    """
    rng = np.random.default_rng([30, seed])
    kind = seed % 4
    if kind == 0:
        ps = rng.random(int(rng.integers(1, 51)))
        ps[rng.random(ps.size) < 0.15] = 0.0
        ps[rng.random(ps.size) < 0.15] = 1.0
        return bernoulli_counting(ps), per_user_bernoulli(ps.tolist())
    users = int(rng.integers(1, 13 if kind == 3 else 51))
    sizes = [int(rng.integers(1, 5))] * users if kind == 2 else rng.integers(1, 5, users).tolist()
    priors = []
    for size in sizes:
        weights = rng.random(size) * (rng.random(size) > 0.3)
        weights[rng.integers(size)] += 0.1
        support = np.sort(rng.choice(8, size=size, replace=False))
        priors.append(DiscreteDistribution.from_weights(support, weights))
    if kind == 3:
        outputs = [rng.choice([0.1, 0.25, 0.3, 0.7, 1.5], size).tolist() for size in sizes]
    elif kind == 2:
        outputs = [rng.integers(-3, 6, sizes[0]).astype(float)] * users
    else:
        outputs = [rng.integers(-3, 6, size).astype(float) for size in sizes]
    return UserSystem(priors, outputs), per_user_system(priors, outputs)


def assert_same_grid_terms(system, reference):
    assert (system._grid_terms is None) == (reference.grid_terms is None)
    if reference.grid_terms is None:
        return
    lo, pmf, bounds, span = system._grid_terms
    for user, (offset, expected) in enumerate(reference.grid_terms):
        got = pmf[bounds[user]:bounds[user + 1]]
        assert lo[user] == offset
        if expected is None:
            # past MAX_ATOMS: no pmf, and a span that alone reaches the cap
            assert got.size == 0 and span[user] == scenarios.MAX_ATOMS
        else:
            assert np.array_equal(got, expected) and span[user] == expected.size - 1


class TestImmutableSystem:
    @pytest.mark.parametrize("name", ["priors", "outputs", "user_count", "_mass", "_offsets",
                                      "_grid_terms", "anything"])
    def test_no_attribute_can_be_set(self, name):
        system = bernoulli_counting([0.5, 0.25])
        system.priors  # a cached property, once read, is set in the instance dict
        with pytest.raises(AttributeError, match=f"a UserSystem is immutable: cannot set '{name}'"):
            setattr(system, name, None)
        assert system.user_count == 2 and system.priors[1].mass.tolist() == [0.75, 0.25]


class TestFlatStorage:
    """The flat system against the per-user construction it replaced."""

    def test_grid_terms_of_a_user_wider_than_the_cap(self):
        wide = DiscreteDistribution.from_weights([0.0, 1.0], [1, 1])
        coin = DiscreteDistribution.from_weights([0.0, 1.0], [1, 3])
        priors, outputs = (wide,) + (coin,) * 3, ([0.0, 20000.0],) + ([0.0, 1.0],) * 3
        assert_same_grid_terms(UserSystem(priors, outputs), per_user_system(priors, outputs))

    @pytest.mark.parametrize("seed", range(200))
    def test_matches_the_per_user_construction(self, seed):
        system, reference = seeded_system(seed)
        assert system.priors is system.priors and system.outputs is system.outputs
        assert system.user_count == len(system.priors) == len(reference.priors)
        for mine, theirs in zip(system.priors, reference.priors):
            for array, expected in ((mine.support, theirs.support), (mine.mass, theirs.mass)):
                assert np.array_equal(array, expected) and not array.flags.writeable
        for mine, theirs in zip(system.outputs, reference.outputs, strict=True):
            assert np.array_equal(mine, theirs) and not mine.flags.writeable
        assert_same_grid_terms(system, reference)
        for user in sorted({0, seed % system.user_count, system.user_count - 1}):
            alphabet = system.priors[user].support.tolist()
            expected = {f"S{user}={a:g}": per_step_conditional(reference, user, a) for a in alphabet}
            expected[f"S{user}=absent"] = per_step_conditional(reference, user)
            for value, label in zip(alphabet + [None], expected):
                dist = conditional_output_dist(system, user, value)
                assert np.array_equal(dist.support, expected[label][0]), label
                assert np.array_equal(dist.mass, expected[label][1]), label
            for mode in ("values", "absence"):
                for pair in discriminative_pairs(system, user, mode):
                    for label, dist in zip(pair.labels, (pair.p, pair.q)):
                        assert np.array_equal(dist.support, expected[label][0]), label
                        assert np.array_equal(dist.mass, expected[label][1]), label
                        assert not (dist.support.flags.writeable or dist.mass.flags.writeable)
