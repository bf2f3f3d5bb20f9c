"""Tests for ranks, the intensity network, likelihood, training, prediction."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import expit as scipy_expit
from scipy.stats import poisson

from popbo.errors import (
    DomainError,
    InputError,
    PreconditionError,
    TrainingDivergedError,
)
from popbo import poisson as popbo_poisson
from popbo.poisson import TruncatedPoisson, log_partial_exp_sum, truncated_mean
from popbo.surrogate import (
    TRUNCATION_SWITCH_N,
    IntensityModel,
    ObservationSet,
    TrainConfig,
    _Adam,
    _expit,
    _ll_terms,
    _normalizer,
    compute_ranks,
    fit,
    grad_log_likelihood,
    load_model,
    log_likelihood,
    model_from_blob,
    model_to_blob,
    pack_parameters,
    predict,
    rate_gradient,
    save_model,
    set_parameters,
)

RATE_ONE_BIAS = math.log(math.e - 1.0)  # softplus(bias) = 1 with zero weights


def constant_rate_model(dim, bias):
    """Network with no hidden layer and zero weights: rate = softplus(bias)."""
    model = IntensityModel.create(dim, hidden=(), rng_seed=0)
    model.weights[0][...] = 0.0
    model.biases[0][...] = bias
    return model


def random_obs(rng, n, dim):
    points = rng.uniform(size=(n, dim))
    values = rng.normal(size=n)
    return ObservationSet.from_values(points, values)


class TestComputeRanks:
    def test_distinct_values(self):
        np.testing.assert_array_equal(compute_ranks([3.2, 1.1, 2.5]), [2, 0, 1])

    def test_ties_share_rank(self):
        np.testing.assert_array_equal(compute_ranks([1.0, 1.0, 2.0]), [0, 0, 2])

    def test_single_value(self):
        np.testing.assert_array_equal(compute_ranks([7.7]), [0])

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            compute_ranks([])
        with pytest.raises(InputError):
            compute_ranks([1.0, math.nan])

    @given(st.lists(st.integers(-5, 5).map(float) | st.floats(-1e6, 1e6),
                    min_size=1, max_size=40))
    def test_matches_strict_dominance_definition(self, values):
        expected = [sum(other < v for other in values) for v in values]
        ranks = compute_ranks(values)
        assert ranks.dtype == np.int64
        np.testing.assert_array_equal(ranks, expected)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=30)
        ranks = compute_ranks(values)
        perm = rng.permutation(30)
        np.testing.assert_array_equal(compute_ranks(values[perm]), ranks[perm])

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(12)
        values = rng.normal(size=25)
        np.testing.assert_array_equal(compute_ranks(np.exp(values / 10.0)),
                                      compute_ranks(values))

    def test_rank_counts_dominators(self):
        rng = np.random.default_rng(13)
        values = rng.normal(size=40)
        ranks = compute_ranks(values)
        for j in range(40):
            assert ranks[j] == int((values < values[j]).sum())


class TestObservationSet:
    def test_from_values_derives_ranks(self):
        obs = ObservationSet.from_values([[0.1], [0.9], [0.5]], [3.0, 1.0, 2.0])
        np.testing.assert_array_equal(obs.ranks, [2, 0, 1])
        assert len(obs) == 3 and obs.dim == 1

    def test_rejects_points_outside_cube(self):
        with pytest.raises(InputError):
            ObservationSet.from_values([[1.2]], [0.0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(InputError):
            ObservationSet(np.zeros((3, 1)), np.zeros(2), np.zeros(3, dtype=int))

    def test_rejects_out_of_range_ranks(self):
        with pytest.raises(InputError):
            ObservationSet(np.zeros((2, 1)), np.zeros(2), np.array([0, 2]))


class TestTrainConfig:
    def test_zero_steps_allowed(self):
        assert TrainConfig(steps=0).steps == 0

    def test_rejects_bad_values(self):
        with pytest.raises(InputError):
            TrainConfig(steps=-1)
        with pytest.raises(InputError):
            TrainConfig(initial_lr=0.0)


class TestNetwork:
    def test_create_is_seeded(self):
        a = IntensityModel.create(3, hidden=(8, 8), rng_seed=7)
        b = IntensityModel.create(3, hidden=(8, 8), rng_seed=7)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_initial_biases_zero(self):
        model = IntensityModel.create(2, hidden=(8,), rng_seed=0)
        for b in model.biases:
            assert not b.any()

    def test_weight_init_within_fan_in_limit(self):
        model = IntensityModel.create(4, hidden=(16, 16), rng_seed=3)
        for w in model.weights:
            limit = math.sqrt(6.0 / w.shape[0])
            assert np.abs(w).max() <= limit

    def test_rates_positive(self):
        rng = np.random.default_rng(0)
        model = IntensityModel.create(2, hidden=(8, 8), rng_seed=1)
        rates = model.rates(rng.uniform(size=(50, 2)))
        assert (rates > 0).all()

    def test_rates_shape_check(self):
        model = IntensityModel.create(2, hidden=(4,), rng_seed=0)
        with pytest.raises(InputError):
            model.rates(np.zeros((3, 5)))

    def test_constant_model_rate(self):
        model = constant_rate_model(2, RATE_ONE_BIAS)
        rates = model.rates(np.array([[0.2, 0.9], [0.5, 0.5]]))
        np.testing.assert_allclose(rates, 1.0, rtol=1e-14)

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        model = IntensityModel.create(3, hidden=(8, 8), rng_seed=5)
        h = 1e-6
        for _ in range(10):
            x = rng.uniform(0.1, 0.9, size=3)
            _, grad = model.rate_and_input_grad(x)
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                fd = (model.rates((x + e)[None, :])[0]
                      - model.rates((x - e)[None, :])[0]) / (2.0 * h)
                assert abs(grad[i] - fd) <= 1e-4 * max(1.0, abs(fd))

    def test_copy_is_deep(self):
        model = IntensityModel.create(2, hidden=(4,), rng_seed=0)
        clone = model.copy()
        clone.weights[0][...] = 0.0
        assert model.weights[0].any()

    def test_layers_are_views_of_one_flat_buffer(self):
        model = IntensityModel.create(3, hidden=(4, 5), rng_seed=2)
        for part in model.weights + model.biases:
            assert np.shares_memory(part, model.params)
        np.testing.assert_array_equal(
            model.params,
            np.concatenate([w.ravel() for w in model.weights] + list(model.biases)))
        model.params[...] = 0.5
        assert all((part == 0.5).all() for part in model.weights + model.biases)


class TestLogLikelihood:
    def test_two_point_hand_value(self):
        # Both rates 1, ranks {0, 1}: each term is -log S(1) = -log 2.
        model = constant_rate_model(1, RATE_ONE_BIAS)
        obs = ObservationSet.from_values([[0.2], [0.8]], [1.0, 2.0])
        assert math.isclose(log_likelihood(model, obs), -2.0 * math.log(2.0),
                            rel_tol=1e-12)

    def test_needs_two_observations(self):
        model = constant_rate_model(1, RATE_ONE_BIAS)
        obs = ObservationSet.from_values([[0.5]], [1.0])
        with pytest.raises(PreconditionError):
            log_likelihood(model, obs)

    def test_invariant_under_increasing_value_transform(self):
        rng = np.random.default_rng(31)
        model = IntensityModel.create(2, hidden=(8,), rng_seed=2)
        points = rng.uniform(size=(9, 2))
        values = rng.normal(size=9)
        a = log_likelihood(model, ObservationSet.from_values(points, values))
        b = log_likelihood(model, ObservationSet.from_values(points, np.exp(values)))
        assert a == b

    def test_plain_regime_normalizer(self):
        # At N >= 12 the per-point normalizer is the rate itself.
        model = constant_rate_model(1, RATE_ONE_BIAS)
        points = np.linspace(0.0, 1.0, 12)[:, None]
        values = np.arange(12.0)
        obs = ObservationSet.from_values(points, values)
        lf = [math.log(math.factorial(k)) for k in range(12)]
        expected = sum(-lf[k] - 1.0 for k in range(12))  # k*log(1) = 0
        assert math.isclose(log_likelihood(model, obs), expected, rel_tol=1e-12)

    def test_truncated_value_needs_no_logsumexp(self, monkeypatch):
        # The normalizer is one shifted sum; its value has the fit's bits.
        model = IntensityModel.create(2, hidden=(8,), rng_seed=2)
        obs = random_obs(np.random.default_rng(33), 7, 2)
        rates = model.rates(obs.points)
        norm, _ = _normalizer(rates, len(obs), slope=True)
        expected = float(np.sum(_ll_terms(rates, obs.ranks, norm)))
        calls = []
        original = popbo_poisson.logsumexp

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(popbo_poisson, "logsumexp", counted)
        value = log_likelihood(model, obs)
        assert calls == []
        assert repr(value) == repr(expected)

    def test_rate_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(32)
        for n_obs in (5, 20):  # truncated and plain regimes
            rates = rng.uniform(0.5, 4.0, size=n_obs)
            ranks = rng.integers(0, n_obs, size=n_obs)
            grad = rate_gradient(rates, ranks, n_obs)
            h = 1e-7

            def term(r, k):
                if n_obs >= 12:
                    norm = r
                else:
                    s = sum(r ** i / math.factorial(i) for i in range(n_obs))
                    norm = math.log(s)
                return k * math.log(r) - math.log(math.factorial(k)) - norm

            for j in range(n_obs):
                fd = (term(rates[j] + h, int(ranks[j]))
                      - term(rates[j] - h, int(ranks[j]))) / (2.0 * h)
                assert abs(grad[j] - fd) <= 1e-5 * max(1.0, abs(fd))


def expit_corpus(seed=0, count=200_000):
    """Seeded floats at every scale, then signed zeros, tiny, overflow and inf."""
    rng = np.random.default_rng(seed)
    scales = rng.choice([1e-3, 1.0, 10.0, 100.0, 1000.0], size=count)
    extremes = [0.0, 1e-300, 709.0, 710.0, 800.0, np.inf]
    return np.concatenate([rng.normal(size=count) * scales,
                           extremes, np.negative(extremes)]).tolist()


class TestExpit:
    def test_bitwise_equal_to_scipy(self):
        values = expit_corpus()
        ours = np.array([_expit(t) for t in values])
        ref = scipy_expit(np.array(values))
        assert ours.tobytes() == ref.tobytes()

    def test_edge_values(self):
        assert _expit(0.0) == 0.5 and _expit(-0.0) == 0.5
        assert _expit(800.0) == 1.0 and _expit(np.inf) == 1.0
        assert _expit(-800.0) == 0.0 and _expit(-np.inf) == 0.0
        assert math.isnan(_expit(math.nan))

    def test_numpy_scalar_input(self):
        assert _expit(np.float64(-3.25)) == scipy_expit(-3.25)


class TestNormalizer:
    def test_truncated_normalizer_matches_single_sums(self):
        # Below the switch: log S(N-1), bitwise the single partial sum, and
        # S(N-2)/S(N-1) from the same term matrix, to rounding.
        rates = np.array([0.0, 1e-9, 0.3, 1.0, 4.5, 37.0, 1e4])
        for n_obs in range(2, TRUNCATION_SWITCH_N):
            norm, norm_grad = _normalizer(rates, n_obs, slope=True)
            log_s = log_partial_exp_sum(rates, n_obs - 1)
            np.testing.assert_array_equal(norm, log_s)
            np.testing.assert_allclose(
                norm_grad, np.exp(log_partial_exp_sum(rates, n_obs - 2) - log_s),
                rtol=1e-15, atol=0.0)
            norm_only, no_grad = _normalizer(rates, n_obs)
            np.testing.assert_array_equal(norm_only, log_s)
            assert no_grad is None
        norm, norm_grad = _normalizer(rates, TRUNCATION_SWITCH_N, slope=True)
        np.testing.assert_array_equal(norm, rates)
        np.testing.assert_array_equal(norm_grad, np.ones_like(rates))
        assert _normalizer(rates, TRUNCATION_SWITCH_N)[1] is None


class TestParameterGradient:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        model = IntensityModel.create(2, hidden=(8,), rng_seed=seed)
        obs = random_obs(rng, 5, 2)
        grad_w, grad_b = grad_log_likelihood(model, obs)
        analytic = np.concatenate([g.ravel() for g in grad_w]
                                  + [g.ravel() for g in grad_b])
        theta = pack_parameters(model)
        h = 1e-5
        numeric = np.empty_like(theta)
        for i in range(theta.size):
            bumped = theta.copy()
            bumped[i] = theta[i] + h
            set_parameters(model, bumped)
            up = log_likelihood(model, obs)
            bumped[i] = theta[i] - h
            set_parameters(model, bumped)
            down = log_likelihood(model, obs)
            numeric[i] = (up - down) / (2.0 * h)
        set_parameters(model, theta)
        denom = np.maximum(np.abs(numeric), 1e-8)
        assert (np.abs(analytic - numeric) / denom).max() < 1e-4


class TestFit:
    def test_zero_steps_leaves_parameters_untouched(self):
        rng = np.random.default_rng(41)
        model = IntensityModel.create(2, hidden=(8,), rng_seed=1)
        before = pack_parameters(model).copy()
        fit(model, random_obs(rng, 6, 2), TrainConfig(steps=0))
        np.testing.assert_array_equal(pack_parameters(model), before)

    def test_same_seed_is_bitwise_reproducible(self):
        obs = random_obs(np.random.default_rng(42), 8, 2)
        results = []
        for _ in range(2):
            model = IntensityModel.create(2, hidden=(8, 8), rng_seed=3)
            fit(model, obs, TrainConfig(steps=60), rng=np.random.default_rng(9))
            results.append(pack_parameters(model).copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_default_rng_derived_from_model_seed(self):
        obs = random_obs(np.random.default_rng(43), 8, 2)
        explicit = IntensityModel.create(2, hidden=(8,), rng_seed=5)
        fit(explicit, obs, TrainConfig(steps=40),
            rng=np.random.default_rng([5, 1]))
        default = IntensityModel.create(2, hidden=(8,), rng_seed=5)
        fit(default, obs, TrainConfig(steps=40))
        np.testing.assert_array_equal(pack_parameters(explicit),
                                      pack_parameters(default))

    def test_nll_never_increases(self):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            obs = random_obs(rng, 10, 2)
            model = IntensityModel.create(2, hidden=(8, 8), rng_seed=seed)
            before = log_likelihood(model, obs)
            fit(model, obs, TrainConfig(steps=80), rng=np.random.default_rng(seed))
            assert log_likelihood(model, obs) >= before

    def test_orders_two_points(self):
        # After training, the better (lower-value) point gets the lower rate.
        obs = ObservationSet.from_values([[0.2], [0.8]], [1.0, 5.0])
        model = IntensityModel.create(1, hidden=(16, 16), rng_seed=0)
        fit(model, obs, TrainConfig(steps=200), rng=np.random.default_rng(0))
        rates = model.rates(obs.points)
        assert rates[0] < rates[1]

    def test_divergence_raises_with_step_index(self):
        # softplus underflows to an exact 0 rate, making a positive rank's
        # log-term -inf on the very first minibatch.
        model = constant_rate_model(1, -800.0)
        obs = ObservationSet.from_values([[0.1], [0.9]], [1.0, 2.0])
        with pytest.raises(TrainingDivergedError) as info:
            fit(model, obs, TrainConfig(steps=10), rng=np.random.default_rng(0))
        assert info.value.step == 0


class TestAdam:
    @pytest.mark.parametrize("t", [1, 2, 50])
    def test_step_is_the_textbook_update(self, t):
        # The folded step sizes change rounding only.  Second moments span
        # 1e-20 .. 1, so eps weighs from dominant to negligible.
        rng = np.random.default_rng(t)
        n = 4096
        grad = rng.normal(size=n) * 10.0 ** rng.uniform(-10, 0, size=n)
        m1 = rng.normal(size=n) * 1e-3
        m2 = 10.0 ** rng.uniform(-20, 0, size=n)
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
        adam = _Adam(np.zeros(n))
        adam.grad[...], adam.m1[...], adam.m2[...] = grad, m1, m2
        adam.step(lr, t)
        m = b1 * m1 + (1.0 - b1) * grad
        v = b2 * m2 + (1.0 - b2) * grad ** 2
        update = lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
        np.testing.assert_array_equal(adam.m1, m)
        np.testing.assert_array_equal(adam.m2, v)
        np.testing.assert_allclose(adam.params, -update, rtol=1e-14, atol=0.0)


class TestPredict:
    def test_small_sample_posterior(self):
        model = constant_rate_model(1, RATE_ONE_BIAS)
        post = predict(model, [0.5], n_obs=1)
        np.testing.assert_allclose(post.pmf, [0.5, 0.5], rtol=1e-12)
        assert math.isclose(post.mean, 0.5, rel_tol=1e-12)

    def test_large_sample_moments_equal_rate(self):
        model = constant_rate_model(2, RATE_ONE_BIAS)
        post = predict(model, [0.4, 0.6], n_obs=20)
        assert math.isclose(post.mean, 1.0, rel_tol=1e-12)
        assert math.isclose(post.stddev, 1.0, rel_tol=1e-12)

    def test_support_size_tracks_n_obs_when_truncated(self):
        model = constant_rate_model(1, RATE_ONE_BIAS)
        post = predict(model, [0.5], n_obs=7)
        assert post.pmf.size == 8

    def test_regime_switches_at_truncation_constant(self):
        model = constant_rate_model(1, math.log(math.expm1(8.0)))  # rate 8
        below = predict(model, [0.5], n_obs=TRUNCATION_SWITCH_N - 1)
        at = predict(model, [0.5], n_obs=TRUNCATION_SWITCH_N)
        assert below.pmf.size == TRUNCATION_SWITCH_N
        expected = truncated_mean(TruncatedPoisson(8.0, TRUNCATION_SWITCH_N - 1))
        assert math.isclose(below.mean, expected, rel_tol=1e-12)
        assert below.mean < 7.9
        assert math.isclose(at.mean, 8.0, rel_tol=1e-12)

    def test_rejects_point_outside_cube(self):
        model = constant_rate_model(1, RATE_ONE_BIAS)
        with pytest.raises(DomainError):
            predict(model, [1.5], n_obs=3)

    @pytest.mark.parametrize("rate", [0.5, 8.0, 300.0, 1e4])
    def test_plain_posterior_is_poisson(self, rate):
        bias = rate if rate > 30.0 else math.log(math.expm1(rate))
        post = predict(constant_rate_model(1, bias), [0.5], n_obs=TRUNCATION_SWITCH_N)
        ks = np.arange(post.pmf.size)
        np.testing.assert_allclose(post.pmf, poisson.pmf(ks, rate), rtol=1e-10, atol=1e-300)
        assert poisson.sf(ks[-1], rate) < 1e-12

    @pytest.mark.parametrize("bias,n_obs,mean", [
        (-800.0, 5, 0.0),  # softplus underflows to rate 0, truncated
        (-800.0, 20, 0.0),  # rate 0, plain
        (RATE_ONE_BIAS, 0, 0.0),  # no observations: rank 0 is certain
        (1e4, 12, 1e4),  # softplus(1e4) = 1e4, plain
        (1e4, 50, 1e4),
    ])
    def test_edge_posteriors(self, bias, n_obs, mean):
        post = predict(constant_rate_model(1, bias), [0.5], n_obs=n_obs)
        assert abs(post.pmf.sum() - 1.0) <= 1e-12
        assert math.isclose(post.mean, mean, rel_tol=1e-12)
        assert post.stddev == math.sqrt(post.mean)


class TestSerialization:
    def test_blob_round_trip_is_exact(self):
        model = IntensityModel.create(3, hidden=(8, 4), rng_seed=17)
        clone = model_from_blob(model_to_blob(model))
        assert clone.layer_sizes == model.layer_sizes
        assert clone.rng_seed == model.rng_seed
        for a, b in zip(model.weights, clone.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(model.biases, clone.biases):
            np.testing.assert_array_equal(a, b)

    def test_file_round_trip_preserves_rates(self, tmp_path):
        rng = np.random.default_rng(18)
        model = IntensityModel.create(2, hidden=(8, 8), rng_seed=18)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        x = rng.uniform(size=(20, 2))
        np.testing.assert_array_equal(loaded.rates(x), model.rates(x))

    def test_corrupt_blob_rejected(self):
        model = IntensityModel.create(2, hidden=(4,), rng_seed=0)
        blob = model_to_blob(model)
        broken = blob.replace('"rng_seed"', '"rng_seed_x"')
        with pytest.raises((InputError, KeyError)):
            model_from_blob(broken)

    def test_pack_set_round_trip(self):
        model = IntensityModel.create(2, hidden=(4, 4), rng_seed=9)
        theta = pack_parameters(model).copy()
        set_parameters(model, theta * 2.0)
        np.testing.assert_array_equal(pack_parameters(model), theta * 2.0)
        with pytest.raises(InputError):
            set_parameters(model, theta[:-1])
