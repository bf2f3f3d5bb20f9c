"""Tests for ranks, the intensity network, the likelihood and its gradient, and training."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import expit as scipy_expit

from popbo.acquisition import lcb
from popbo.errors import InputError, PreconditionError, TrainingDivergedError
from popbo import poisson as popbo_poisson
from popbo.poisson import log_partial_exp_sum, pmf_vector
from popbo.surrogate import (
    DEFAULT_HIDDEN,
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
    log_likelihood,
    pack_arrays,
    rate_gradient,
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

    @pytest.mark.parametrize("field,value", [
        ("steps", 2.5), ("steps", True), ("batch_size", 2.5), ("batch_size", 0),
        ("decay_every", 30.0), ("decay_every", "30"),
    ])
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(InputError, match=field):
            TrainConfig(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = TrainConfig(steps=np.int64(5), batch_size=np.int32(8), decay_every=np.uint8(3))
        assert (cfg.steps, cfg.batch_size, cfg.decay_every) == (5, 8, 3)


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


def fresh_rates(model, x):
    """The forward pass on fresh arrays: the bits the buffered rates must match."""
    h = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
    return np.logaddexp(0.0, (h @ model.weights[-1] + model.biases[-1])[:, 0])


class TestBufferedRates:
    """rates computes its hidden layers in two buffers that the model keeps."""

    @pytest.mark.parametrize("hidden", [DEFAULT_HIDDEN, (8, 16, 5)])
    def test_bitwise_equal_to_fresh_arrays(self, hidden):
        # 1000 then 10 rows: a small batch in buffers grown by a large one.
        model = IntensityModel.create(4, hidden=hidden, rng_seed=3)
        rng = np.random.default_rng(1)
        for n in (1, 10, 1000, 10):
            x = rng.uniform(size=(n, 4))
            assert model.rates(x).tobytes() == fresh_rates(model, x).tobytes()

    def test_earlier_result_survives_later_calls(self):
        model = IntensityModel.create(4, rng_seed=3)
        rng = np.random.default_rng(2)
        x = rng.uniform(size=(1000, 4))
        first = model.rates(x)
        kept = first.copy()
        model.rates(rng.uniform(size=(1000, 4)))
        np.testing.assert_array_equal(first, kept)

    def test_copy_carries_no_buffer(self):
        model = IntensityModel.create(4, rng_seed=3)
        model.rates(np.full((1000, 4), 0.5))
        assert all(buf.size >= 1000 * DEFAULT_HIDDEN[0] for buf in model._layer_buffers)
        clone = model.copy()
        assert all(buf.size == 0 for buf in clone._layer_buffers)
        assert "_layer_buffers" not in repr(model)

    def test_repeated_large_batch_allocates_little(self):
        # Fresh 1000x128 float64 layer arrays would peak near 4 MB; with the
        # buffers only the output layer and the rates are allocated.
        model = IntensityModel.create(4, rng_seed=3)
        x = np.random.default_rng(3).uniform(size=(1000, 4))
        model.rates(x)
        tracemalloc.start()
        try:
            model.rates(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024


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

    @pytest.mark.parametrize("n_obs", [TRUNCATION_SWITCH_N, 50])
    def test_huge_bias_law_is_plain_poisson(self, n_obs):
        # softplus(1e4) = 1e4 exactly.  At n_obs >= TRUNCATION_SWITCH_N the
        # rank law at that rate is the plain Poisson law: the likelihood's
        # normalizer is the rate, the acquisition's mean is the rate, and
        # its pmf over a support 40 standard deviations past the rate has
        # unit mass.
        rates = constant_rate_model(1, 1e4).rates(np.array([[0.5]]))
        assert rates[0] == 1e4
        norm, norm_grad = _normalizer(rates, n_obs, slope=True)
        np.testing.assert_array_equal(norm, rates)
        assert norm_grad == 1.0
        assert lcb(1e4, n_obs, beta=0.0) == 1e4
        assert abs(pmf_vector(1e4, 14050).sum() - 1.0) <= 1e-12


class TestParameterGradient:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        model = IntensityModel.create(2, hidden=(8,), rng_seed=seed)
        obs = random_obs(rng, 5, 2)
        grad_w, grad_b = grad_log_likelihood(model, obs)
        analytic = np.concatenate([g.ravel() for g in grad_w]
                                  + [g.ravel() for g in grad_b])
        theta = model.params.copy()
        h = 1e-5
        numeric = np.empty_like(theta)
        for i in range(theta.size):
            bumped = theta.copy()
            bumped[i] = theta[i] + h
            model.params[...] = bumped
            up = log_likelihood(model, obs)
            bumped[i] = theta[i] - h
            model.params[...] = bumped
            down = log_likelihood(model, obs)
            numeric[i] = (up - down) / (2.0 * h)
        model.params[...] = theta
        denom = np.maximum(np.abs(numeric), 1e-8)
        assert (np.abs(analytic - numeric) / denom).max() < 1e-4


class TestFit:
    def test_zero_steps_leaves_parameters_untouched(self):
        rng = np.random.default_rng(41)
        model = IntensityModel.create(2, hidden=(8,), rng_seed=1)
        before = model.params.copy()
        fit(model, random_obs(rng, 6, 2), TrainConfig(steps=0))
        np.testing.assert_array_equal(model.params, before)

    def test_same_seed_is_bitwise_reproducible(self):
        obs = random_obs(np.random.default_rng(42), 8, 2)
        results = []
        for _ in range(2):
            model = IntensityModel.create(2, hidden=(8, 8), rng_seed=3)
            fit(model, obs, TrainConfig(steps=60), rng=np.random.default_rng(9))
            results.append(model.params.copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_default_rng_derived_from_model_seed(self):
        obs = random_obs(np.random.default_rng(43), 8, 2)
        explicit = IntensityModel.create(2, hidden=(8,), rng_seed=5)
        fit(explicit, obs, TrainConfig(steps=40),
            rng=np.random.default_rng([5, 1]))
        default = IntensityModel.create(2, hidden=(8,), rng_seed=5)
        fit(default, obs, TrainConfig(steps=40))
        np.testing.assert_array_equal(explicit.params, default.params)

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

    # Rate 0 at the rank-0 point x = 0 and 1e6 at x = 1: the loss is finite,
    # but the rank-0 derivative 0/0 - 1 is NaN, which ADAM would write into
    # every parameter.
    @pytest.mark.parametrize("steps", [1, 3])
    def test_nan_rate_derivative_raises_at_its_step(self, steps):
        model = IntensityModel([np.array([[2e6]]), np.array([[1.0]])],
                               [np.array([0.0]), np.array([-1e6])])
        obs = ObservationSet([[0.0], [1.0]], [0.0, 1.0], [0, 1])
        np.testing.assert_array_equal(model.rates(obs.points), [0.0, 1e6])
        with pytest.raises(TrainingDivergedError) as info:
            fit(model, obs, TrainConfig(steps=steps))
        assert info.value.step == 0
        assert model.adam_state is None

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    def test_infinite_rate_in_plain_regime_raises(self):
        # The output bias overflows float32 training to rate +inf, whose plain
        # derivative k/inf - 1 = -1 is finite: only the rate check sees it.
        model = constant_rate_model(1, 1e39)
        obs = random_obs(np.random.default_rng(2), TRUNCATION_SWITCH_N, 1)
        with pytest.raises(TrainingDivergedError) as info:
            fit(model, obs, TrainConfig(steps=3), rng=np.random.default_rng(0))
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
        adam = _Adam(np.zeros(n), (m1.copy(), m2.copy(), t - 1))
        adam.grad[...] = grad
        adam.step(lr)
        assert adam.t == t
        m = b1 * m1 + (1.0 - b1) * grad
        v = b2 * m2 + (1.0 - b2) * grad ** 2
        update = lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
        np.testing.assert_array_equal(adam.m1, m)
        np.testing.assert_array_equal(adam.m2, v)
        np.testing.assert_allclose(adam.params, -update, rtol=1e-14, atol=0.0)


class TestCarriedAdam:
    """A fit continues the ADAM moments and step count the last fit left."""

    @staticmethod
    def fitted(steps=5):
        obs = random_obs(np.random.default_rng(50), 6, 2)
        model = IntensityModel.create(2, hidden=(8, 8), rng_seed=4)
        fit(model, obs, TrainConfig(steps=steps), rng=np.random.default_rng(0))
        return model, obs

    def test_second_fit_continues_reference_adam(self):
        # Full batches, so each step's gradient is the full-set one; the
        # reference keeps one textbook float32 ADAM across both fits, with
        # the learning-rate schedule restarting at each fit.  It draws the
        # fit's permutations and takes its gradient from the model's own
        # float32 forward and backward passes, so only the ADAM arithmetic
        # differs: the textbook form rounds each step differently from the
        # folded one, and a parameter that moves by an ulp moves the next
        # gradient by about an ulp.  Each side thus rounds every parameter,
        # moment and gradient entry at most once more per step than the
        # other, so after T steps the two stay within 4 * T float32 unit
        # roundoffs of the largest entry (measured: under one).
        obs = random_obs(np.random.default_rng(50), 6, 2)
        model = IntensityModel.create(2, hidden=(8, 8), rng_seed=4)
        reference = model.params.astype(np.float32)
        layers = model._views(reference)
        points = obs.points.astype(np.float32)
        cfg = TrainConfig(steps=5, decay_every=3)
        b1, b2, eps = 0.9, 0.999, 1e-8
        m = np.zeros_like(reference)
        v = np.zeros_like(reference)
        t = 0
        for fit_seed in (0, 1):
            fit(model, obs, cfg, rng=np.random.default_rng(fit_seed))
            batches = np.random.default_rng(fit_seed)
            for step in range(cfg.steps):
                t += 1
                idx = batches.permutation(len(obs))
                rates, caches = model._forward(points[idx], layers)
                g = np.empty_like(reference)
                d_rates = rate_gradient(rates, obs.ranks[idx], len(obs))
                model._backward(caches, -d_rates / len(obs), *model._views(g), layers[0])
                m = b1 * m + (1.0 - b1) * g
                v = b2 * v + (1.0 - b2) * g ** 2
                lr = cfg.initial_lr * 0.2 ** (step // cfg.decay_every)
                reference -= (lr * (m / (1.0 - b1 ** t))
                              / (np.sqrt(v / (1.0 - b2 ** t)) + eps)).astype(np.float32)
            m1, m2, t_model = model.adam_state
            assert t_model == t
            assert m1.dtype == m2.dtype == np.float32
            bound = 4 * t * float(np.finfo(np.float32).eps) / 2
            for got, want in ((m1, m), (m2, v), (model.params, reference)):
                scale = float(np.abs(want).max())
                np.testing.assert_allclose(got, want, rtol=0.0, atol=bound * scale)

    def test_copy_carries_no_moments(self):
        model, _ = self.fitted()
        assert model.adam_state is not None
        clone = model.copy()
        assert clone.adam_state is None
        np.testing.assert_array_equal(clone.params, model.params)

    def test_restored_fit_drops_moments(self):
        # Large constant steps on tiny batches overshoot: the start is restored.
        model, obs = self.fitted()
        assert model.adam_state is not None
        start = model.params.copy()
        fit(model, obs, TrainConfig(steps=20, initial_lr=0.5, batch_size=3),
            rng=np.random.default_rng(4))
        np.testing.assert_array_equal(model.params, start)
        assert model.adam_state is None

    def test_zero_steps_leaves_parameters_and_moments_untouched(self):
        model, obs = self.fitted()
        params = model.params.copy()
        state = model.adam_state
        m1, m2 = state[0].copy(), state[1].copy()
        fit(model, obs, TrainConfig(steps=0))
        np.testing.assert_array_equal(model.params, params)
        assert model.adam_state is state
        np.testing.assert_array_equal(state[0], m1)
        np.testing.assert_array_equal(state[1], m2)

    def test_diverged_fit_leaves_no_moments(self):
        model = constant_rate_model(1, -800.0)
        model.adam_state = (np.zeros_like(model.params), np.zeros_like(model.params), 3)
        obs = ObservationSet.from_values([[0.1], [0.9]], [1.0, 2.0])
        with pytest.raises(TrainingDivergedError):
            fit(model, obs, TrainConfig(steps=10), rng=np.random.default_rng(0))
        assert model.adam_state is None


class TestFloat32Training:
    """fit trains a float32 copy; the rates and the rank law stay float64."""

    @staticmethod
    def first_gradient(model, obs):
        """The float32 gradient the fit hands ADAM on its first full-batch step."""
        seen = []
        step = _Adam.step

        def spy(adam, lr):
            seen.append(adam.grad.copy())
            step(adam, lr)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Adam, "step", spy)
            fit(model.copy(), obs, TrainConfig(steps=1, batch_size=len(obs)),
                rng=np.random.default_rng(0))
        return seen[0]

    @pytest.mark.parametrize("n,dim,hidden,seed", [
        (35, 6, DEFAULT_HIDDEN, 0), (35, 6, DEFAULT_HIDDEN, 1),
        (11, 4, DEFAULT_HIDDEN, 2), (5, 2, (8, 8, 8), 3),
    ])
    def test_gradient_agrees_with_float64(self, n, dim, hidden, seed):
        # CRITERION 2 checks the float64 gradient against central
        # differences.  The float32 one is compared with it at the same
        # (float32-representable) parameters.  Each of the forward's and the
        # backward's gemms, one per layer, sums at most k products, with k
        # the widest fan-in or batch; the classic bound puts its error below
        # k float32 unit roundoffs u of the terms' magnitude, so the two
        # gradients differ by less than 2 * layers * k * u of the largest
        # entry (6e-5 relative for the default network; measured 1e-7 to
        # 1e-6).
        rng = np.random.default_rng(seed)
        obs = random_obs(rng, n, dim)
        model = IntensityModel.create(dim, hidden=hidden, rng_seed=seed)
        model.params[...] = model.params.astype(np.float32)
        got = self.first_gradient(model, obs)
        assert got.dtype == np.float32
        want = -pack_arrays(*grad_log_likelihood(model, obs)) / n
        layers = len(hidden) + 1
        k = max(max(dim, *hidden), n)
        u = float(np.finfo(np.float32).eps) / 2
        bound = 2 * layers * k * u * float(np.abs(want).max())
        assert float(np.abs(got - want).max()) <= bound

    def test_far_negative_output_bias_fits(self):
        # float32 softplus(-200) underflows to a rate of exactly 0, which
        # would make a positive rank's log-term -inf; in float64 it is
        # about 1.4e-87.
        assert np.logaddexp(np.float32(0.0), np.float32(-200.0)) == 0.0
        model = constant_rate_model(1, -200.0)
        obs = ObservationSet.from_values([[0.1], [0.9]], [1.0, 2.0])
        start = log_likelihood(model, obs)
        assert math.isfinite(start)
        fit(model, obs, TrainConfig(steps=10), rng=np.random.default_rng(0))
        assert log_likelihood(model, obs) >= start
        rates = model.rates(obs.points)
        assert rates.dtype == np.float64 and (rates > 0.0).all()

    def test_inference_stays_float64(self):
        model, obs = TestCarriedAdam.fitted()
        assert model.params.dtype == np.float64
        assert model.rates(obs.points).dtype == np.float64
        assert isinstance(log_likelihood(model, obs), float)
        assert all(g.dtype == np.float64 for g in sum(grad_log_likelihood(model, obs), []))

    @pytest.mark.parametrize("steps", [60, 250])
    def test_no_moment_goes_subnormal(self, steps):
        # Units 0-15 of the first layer are dead for every input, so their
        # parameters get exactly zero gradient and their moments only decay.
        # Every moment starts just above the normal floor; without the flush
        # the first moments would be subnormal after 7 steps.
        tiny = np.finfo(np.float32).tiny
        rng = np.random.default_rng(7)
        obs = random_obs(rng, 20, 3)
        model = IntensityModel.create(3, hidden=(32, 32, 32), rng_seed=7)
        model.biases[0][:16] = -50.0
        size = model.params.size
        model.adam_state = (np.float32(2.0 * tiny) * rng.choice([-1.0, 1.0], size).astype(np.float32),
                            np.full(size, 2.0 * tiny, dtype=np.float32), 500)
        subnormal = []
        step = _Adam.step

        def checked(adam, lr):
            step(adam, lr)
            for m in (adam.m1, adam.m2):
                subnormal.append(int(((m != 0.0) & (np.abs(m) < tiny)).sum()))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Adam, "step", checked)
            for fit_seed in range(3):
                fit(model, obs, TrainConfig(steps=steps), rng=np.random.default_rng(fit_seed))
        assert len(subnormal) == 2 * 3 * steps
        assert max(subnormal) == 0
        assert model.adam_state is not None

    def test_flush_zeroes_only_what_could_decay_subnormal(self):
        tiny = float(np.finfo(np.float32).tiny)
        floors = [tiny / 0.9 ** 100, tiny / 0.999 ** 100]
        adam = _Adam(np.zeros(4, dtype=np.float32))
        for m, floor in zip((adam.m1, adam.m2), floors):
            m[...] = [floor * 0.99, -floor * 0.99, floor * 1.01, 1.0]
        adam.flush()
        for m, floor in zip((adam.m1, adam.m2), floors):
            np.testing.assert_array_equal(m, np.array([0.0, 0.0, floor * 1.01, 1.0], np.float32))
