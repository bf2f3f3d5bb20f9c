"""Tests for the acquisition values, their derivatives, and the proposer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import popbo.acquisition as acquisition
from popbo.acquisition import (
    AcquisitionConfig,
    eri,
    grad_acquisition,
    lcb,
    objective_and_drate,
    propose_next,
)
from popbo.errors import DomainError, PreconditionError, RectifiedRegionError
from popbo.poisson import log_factorials, log_partial_exp_sum, pmf_vector
from popbo.space import ContinuousSpace, DiscreteSpace
from popbo.surrogate import IntensityModel, ObservationSet

RATE_ONE_BIAS = math.log(math.e - 1.0)


def constant_rate_model(dim, bias):
    model = IntensityModel.create(dim, hidden=(), rng_seed=0)
    model.weights[0][...] = 0.0
    model.biases[0][...] = bias
    return model


def increasing_rate_model():
    """1-d network whose rate grows strictly with the coordinate."""
    model = IntensityModel.create(1, hidden=(), rng_seed=0)
    model.weights[0][...] = 4.0
    model.biases[0][...] = 0.0
    return model


def slope(kind, rate, n_obs, **cfg):
    """d objective / d rate at one rate (the objective is -ERI for eri)."""
    acq = AcquisitionConfig(kind=kind, **cfg)
    return float(objective_and_drate(np.array([rate]), n_obs, acq)[1][0])


def random_obs(rng, n, dim):
    points = rng.uniform(size=(n, dim))
    values = rng.normal(size=n)
    return ObservationSet.from_values(points, values)


class TestConfig:
    def test_kind_normalized_and_q_defaults(self):
        assert AcquisitionConfig(kind="R-LCB").q == 0.6
        assert AcquisitionConfig(kind="ERI").q == 0.4

    def test_explicit_q_kept(self):
        assert AcquisitionConfig(kind="eri", q=0.25).q == 0.25

    def test_rejects_unknown_kind(self):
        with pytest.raises(DomainError):
            AcquisitionConfig(kind="ei")

    def test_rejects_q_outside_unit_interval(self):
        with pytest.raises(DomainError):
            AcquisitionConfig(q=0.0)
        with pytest.raises(DomainError):
            AcquisitionConfig(q=1.5)

    @pytest.mark.parametrize("beta", [-3.0, -1e-300, math.nan, math.inf])
    def test_rejects_beta_not_finite_and_nonnegative(self, beta):
        with pytest.raises(DomainError, match="beta"):
            AcquisitionConfig(beta=beta)

    def test_zero_beta_allowed(self):
        assert AcquisitionConfig(beta=0.0).beta == 0.0

    @pytest.mark.parametrize("k_max", [2.5, 5.0, -1, True, "5"])
    def test_rejects_k_max_not_a_count(self, k_max):
        with pytest.raises(DomainError, match="k_max"):
            AcquisitionConfig(kind="eri", k_max=k_max)

    def test_k_max_zero_and_numpy_integers_allowed(self):
        assert AcquisitionConfig(kind="eri", k_max=0).k_max == 0
        assert AcquisitionConfig(kind="eri", k_max=np.int64(3)).k_max == 3


class TestLcb:
    def test_hand_value(self):
        # Truncated mean 0.5 at rate 1, one observation:
        # sqrt(.5) * (sqrt(.5) - 1) = -0.2071...
        value = lcb(1.0, n_obs=1, beta=1.0)
        assert math.isclose(value, 0.5 - math.sqrt(0.5), rel_tol=1e-12)

    def test_zero_rate_is_zero(self):
        assert lcb(0.0, n_obs=5, beta=1.0) == 0.0

    def test_zero_crossing_at_beta_squared(self):
        # Plain regime: mu = rate, so lcb = 0 exactly when mu = beta^2.
        beta = 1.7
        assert abs(lcb(beta * beta, n_obs=30, beta=beta)) < 1e-12

    def test_negative_between_zero_and_beta_squared(self):
        assert lcb(0.5, n_obs=30, beta=1.0) < 0.0
        assert lcb(4.0, n_obs=30, beta=1.0) > 0.0

    def test_rejects_negative_rate(self):
        with pytest.raises(DomainError):
            lcb(-1.0, n_obs=5, beta=1.0)


def two_rate_model(rate_at_0, rate_at_1):
    """1-d network with rate(x) = softplus(b + w x) through the two given rates."""
    def inv_softplus(r):
        return math.log(math.expm1(r))

    model = IntensityModel.create(1, hidden=(), rng_seed=0)
    model.biases[0][...] = inv_softplus(rate_at_0)
    model.weights[0][...] = inv_softplus(rate_at_1) - inv_softplus(rate_at_0)
    return model


class TestRectifiedLcb:
    """The rectification rule, through the discrete proposer.

    Candidate 0 is always below the threshold q * n_obs and competes with its
    LCB; candidate 1's rate is varied.  At or above the threshold a candidate
    competes with its eps draw in [0, 1), so it wins against a positive LCB.
    With 12 observations the law is plain: mu = rate, lcb = rate - sqrt(rate).
    """

    N_OBS = 12
    SPACE = DiscreteSpace(np.array([[0.0], [1.0]]))

    def propose(self, model, q, rng_seed=0):
        obs = random_obs(np.random.default_rng(81), self.N_OBS, 1)
        cfg = AcquisitionConfig(kind="r-lcb", q=q, beta=1.0, rng_seed=rng_seed)
        return int(propose_next(model, self.SPACE, obs, cfg)[0])

    def test_below_threshold_passes_through(self):
        # Both below 0.6 * 12: the lower LCB wins, not the lower rate
        # (lcb 0.25 - 0.5 = -0.25 beats lcb 0.05 - sqrt(0.05) = -0.17).
        assert self.propose(two_rate_model(0.05, 0.25), q=0.6) == 1
        assert self.propose(two_rate_model(0.25, 0.05), q=0.6) == 0

    def test_at_threshold_returns_eps(self):
        # Candidate 0 has lcb 4 - 2 = 2 > eps.  Candidate 1 sits exactly at the
        # threshold, so its eps wins; with q one step higher it is just below
        # the threshold, and its lcb of about 4.5 loses.
        model = two_rate_model(4.0, 7.2)
        rate = float(model.rates(np.array([[1.0]]))[0])
        q = rate / self.N_OBS
        while q * self.N_OBS > rate:
            q = np.nextafter(q, 0.0)
        while q * self.N_OBS < rate:
            q = np.nextafter(q, 1.0)
        assert q * self.N_OBS == rate
        above = np.nextafter(q, 1.0)
        while above * self.N_OBS <= rate:
            above = np.nextafter(above, 1.0)
        for seed in range(5):
            assert self.propose(model, q, seed) == 1
            assert self.propose(model, above, seed) == 0

    def test_q_one_rarely_rectifies(self):
        # Rate 9.5 is rectified at q = 0.6 (eps beats lcb 2) but not at q = 1,
        # where its own lcb 9.5 - sqrt(9.5) loses to lcb 2.
        model = two_rate_model(4.0, 9.5)
        assert self.propose(model, q=0.6) == 1
        assert self.propose(model, q=1.0) == 0

    def test_threshold_sweep_flips_once(self):
        # Below the threshold 0.6 * 12, candidate 1's lcb exceeds 2 from rate
        # 4 on; from the threshold up its eps wins.  One flip, at the threshold.
        models = [two_rate_model(4.0, r) for r in np.linspace(4.5, 12.0, 76)]
        rates = [float(m.rates(np.array([[1.0]]))[0]) for m in models]
        winners = [self.propose(m, q=0.6) for m in models]
        flips = [i for i in range(1, len(rates)) if winners[i] != winners[i - 1]]
        assert len(flips) == 1
        assert winners[0] == 0 and winners[-1] == 1
        assert rates[flips[0] - 1] < 0.6 * self.N_OBS <= rates[flips[0]]

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -1.0])
    def test_rejects_invalid_rate(self, rate):
        # An invalid rate is an error of the r-lcb objective, as in eri, not a
        # rectified point.
        with pytest.raises(DomainError):
            lcb(rate, n_obs=5, beta=1.0)


class TestEri:
    def test_zero_rate_attains_k_max(self):
        assert eri(0.0, n_obs=10, k_max=5) == 5.0

    def test_hand_value_rate_one(self):
        # pmf over {0, 1} is (.5, .5); improvement = 1 * .5 + 0 * .5.
        assert math.isclose(eri(1.0, n_obs=1, k_max=1), 0.5, rel_tol=1e-12)

    def test_k_max_zero_is_zero(self):
        assert eri(2.0, n_obs=8, k_max=0) == 0.0

    def test_k_max_beyond_support_rejected(self):
        with pytest.raises(DomainError):
            eri(1.0, n_obs=3, k_max=4)

    @pytest.mark.parametrize("n_obs", [6, 30])
    def test_monotone_non_increasing_in_rate(self, n_obs):
        rates = np.linspace(0.0, 15.0, 200)
        values = [eri(float(r), n_obs=n_obs, k_max=5) for r in rates]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_matches_direct_sum(self):
        # Direct expectation sum against the log-space evaluation.
        rate, n_obs, k_max = 2.3, 7, 4
        p = pmf_vector(rate, n_obs)
        direct = sum((k_max - k) * p[k] for k in range(k_max + 1))
        assert math.isclose(eri(rate, n_obs, k_max), direct, rel_tol=1e-11)

    def test_bounded_by_k_max(self):
        for r in (0.0, 0.5, 3.0, 20.0):
            v = eri(r, n_obs=25, k_max=5)
            assert 0.0 <= v <= 5.0


class TestScalarDerivatives:
    @pytest.mark.parametrize("n_obs", [5, 30])
    @pytest.mark.parametrize("rate", [0.3, 1.0, 4.0])
    def test_lcb_derivative_matches_fd(self, rate, n_obs):
        h = 1e-6
        fd = (lcb(rate + h, n_obs, 1.0) - lcb(rate - h, n_obs, 1.0)) / (2.0 * h)
        assert abs(slope("r-lcb", rate, n_obs, beta=1.0) - fd) <= 1e-6 * max(1.0, abs(fd))

    @pytest.mark.parametrize("n_obs", [6, 30])
    @pytest.mark.parametrize("rate", [0.3, 1.0, 4.0])
    def test_eri_derivative_matches_fd(self, rate, n_obs):
        h = 1e-6
        fd = (eri(rate + h, n_obs, 5) - eri(rate - h, n_obs, 5)) / (2.0 * h)
        assert abs(-slope("eri", rate, n_obs, k_max=5) - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_eri_derivative_at_zero_rate(self):
        assert -slope("eri", 0.0, n_obs=10, k_max=5) == -1.0


# Log-space reference formulas: the scalar implementations the closed form
# replaced, kept verbatim to pin the closed form against them.

def ref_eri_values(rates, n_obs, k_max, switch):
    if k_max == 0:
        return np.zeros_like(rates)
    ks = np.arange(k_max + 1, dtype=float)
    log_coeff = np.full(k_max + 1, -np.inf)
    log_coeff[:-1] = np.log(k_max - ks[:-1])
    lf = log_factorials(k_max)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_r = np.log(rates)
        terms = log_coeff + ks * log_r[..., None] - lf
    terms[..., 0] = log_coeff[0]
    log_u = logsumexp(terms, axis=-1)
    if n_obs >= switch:
        out = np.exp(log_u - rates)
    else:
        out = np.exp(log_u - log_partial_exp_sum(rates, n_obs))
    return np.where(rates == 0.0, float(k_max), out)


def ref_mean(rate, max_rank):
    if max_rank == 0:
        return 0.0
    return rate * math.exp(log_partial_exp_sum(rate, max_rank - 1)
                           - log_partial_exp_sum(rate, max_rank))


def ref_dmean_drate(rate, max_rank):
    """(slope, size): the slope Var(K) / rate of the truncated mean, from the pmf.

    The library's slope ratio + rate * (S(m-2)/S(m) - ratio^2) is the
    difference of two terms of size (mean + mean^2) / rate; far above
    max_rank that is about rate / max_rank times the slope, so the ~1e-14
    rounding of its log sums moves it by up to about 4e-9 relative (rate 1e4,
    max_rank 11, against 60-digit mpmath).  The variance, a sum of positive
    terms, has no such cancellation.
    """
    if max_rank == 0:
        return 0.0, 0.0
    p = pmf_vector(rate, max_rank)
    ks = np.arange(max_rank + 1)
    mean = float(ks @ p)
    return float((ks - mean) ** 2 @ p) / rate, (mean + mean * mean) / rate


def ref_deri_drate(rate, n_obs, k_max, switch):
    if k_max == 0:
        return 0.0
    if rate == 0.0:
        return -1.0
    log_r = math.log(rate)
    lf = log_factorials(k_max)
    u_terms = [math.log(k_max - k) + k * log_r - lf[k] for k in range(k_max)]
    log_u = logsumexp(u_terms)
    du_terms = [math.log(k_max - k) + (k - 1) * log_r - lf[k - 1]
                for k in range(1, k_max)]
    log_du = logsumexp(du_terms) if du_terms else -np.inf
    if n_obs >= switch:
        return math.exp(log_du - rate) - math.exp(log_u - rate)
    a = log_partial_exp_sum(rate, n_obs - 1)
    b = log_partial_exp_sum(rate, n_obs)
    return math.exp(log_du - b) - math.exp(log_u + a - 2.0 * b)


def assert_rel_close(actual, reference, rel):
    """Relative agreement wherever the reference is not vanishingly small."""
    actual, reference = np.asarray(actual), np.asarray(reference)
    big = np.abs(reference) > 1e-290
    np.testing.assert_allclose(actual[big], reference[big], rtol=rel, atol=0.0)


RATES = st.lists(st.floats(0.0, 1e4).map(lambda r: r + 1e-300), min_size=1, max_size=8)
N_OBS = st.sampled_from([1, 2, 5, 6, 8, 11, 12, 13, 30])


class TestClosedForm:
    """objective_and_drate against the log-space reference formulas."""

    @settings(max_examples=300, deadline=None)
    @given(RATES, N_OBS, st.sampled_from([0, 1, 2, 5]))
    def test_eri_matches_log_space_reference(self, rates, n_obs, k_max):
        k_max = min(k_max, n_obs)
        rates = np.array(rates)
        cfg = AcquisitionConfig(kind="eri", k_max=k_max)
        values, slopes = objective_and_drate(rates, n_obs, cfg)
        assert_rel_close(-values, ref_eri_values(rates, n_obs, k_max, 12), 1e-11)
        ref = [ref_deri_drate(float(r), n_obs, k_max, 12) for r in rates]
        assert_rel_close(-slopes, ref, 1e-9)

    @settings(max_examples=300, deadline=None)
    @given(RATES, N_OBS, st.sampled_from([0.5, 1.0, 2.0]))
    def test_lcb_matches_log_space_reference(self, rates, n_obs, beta):
        rates = np.array(rates)
        cfg = AcquisitionConfig(kind="r-lcb", beta=beta)
        values, slopes = objective_and_drate(rates, n_obs, cfg)
        mu = np.array([r if n_obs >= 12 else ref_mean(float(r), n_obs) for r in rates])
        dmu, size = np.array([(1.0, 1.0) if n_obs >= 12 else ref_dmean_drate(float(r), n_obs)
                              for r in rates]).T
        assert_rel_close(values, np.sqrt(mu) * (np.sqrt(mu) - beta), 1e-11)
        # 1e-9 relative, plus 1e-12 of the terms the library's slope cancels.
        factor = 1.0 - beta / (2.0 * np.sqrt(mu))
        error = np.abs(slopes - factor * dmu)
        assert np.all(error <= np.abs(factor) * (1e-9 * dmu + 1e-12 * size))

    @pytest.mark.parametrize("kind", ["r-lcb", "eri"])
    @pytest.mark.parametrize("n_obs", [5, 11, 12, 30])
    @pytest.mark.parametrize("k_max", [0, 1, 2, 5])
    def test_finite_at_extreme_rates(self, kind, n_obs, k_max):
        rates = np.array([0.0, 1e-300, 1e4, 1e300])
        cfg = AcquisitionConfig(kind=kind, k_max=k_max)
        values, slopes = objective_and_drate(rates, n_obs, cfg)
        assert np.isfinite(values).all() and np.isfinite(slopes).all()

    @pytest.mark.parametrize("n_obs", [5, 30])
    def test_eri_at_zero_rate_both_regimes(self, n_obs):
        cfg = AcquisitionConfig(kind="eri", k_max=5)
        values, slopes = objective_and_drate(np.zeros(1), n_obs, cfg)
        assert values[0] == -5.0 and slopes[0] == 1.0

    def test_values_only_without_drate(self):
        rates = np.array([0.2, 3.0])
        for n_obs in (6, 30):
            for kind in ("r-lcb", "eri"):
                cfg = AcquisitionConfig(kind=kind, k_max=3)
                values, slopes = objective_and_drate(rates, n_obs, cfg, drate=False)
                assert slopes is None
                np.testing.assert_array_equal(
                    values, objective_and_drate(rates, n_obs, cfg)[0])


class TestGradAcquisition:
    @pytest.mark.parametrize("kind", ["r-lcb", "eri"])
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(51)
        model = IntensityModel.create(2, hidden=(8, 8), rng_seed=4)
        cfg = AcquisitionConfig(kind=kind, q=1.0, k_max=3)
        n_obs = 8

        def value(x):
            rate = float(model.rates(x[None, :])[0])
            if kind == "r-lcb":
                return lcb(rate, n_obs, cfg.beta)
            return -eri(rate, n_obs, cfg.k_max)

        h = 1e-5
        for _ in range(10):
            x = rng.uniform(0.1, 0.9, size=2)
            grad = grad_acquisition(model, x, cfg, n_obs)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (value(x + e) - value(x - e)) / (2.0 * h)
                assert abs(grad[i] - fd) <= 1e-4 * max(1.0, abs(fd))

    def test_rejects_nan_coordinate(self):
        model = IntensityModel.create(2, hidden=(8,), rng_seed=0)
        with pytest.raises(DomainError, match="unit hypercube"):
            grad_acquisition(model, [math.nan, 0.5], AcquisitionConfig(q=1.0), 6)

    def test_rectified_point_has_no_gradient(self):
        model = constant_rate_model(2, 3.0)  # rate ~ 3.05 everywhere
        cfg = AcquisitionConfig(kind="r-lcb", q=0.1)
        with pytest.raises(RectifiedRegionError):
            grad_acquisition(model, [0.5, 0.5], cfg, n_obs=10)


class TestProposeContinuous:
    def test_monotone_rate_sends_proposal_to_lower_boundary(self):
        model = increasing_rate_model()
        obs = random_obs(np.random.default_rng(61), 6, 1)
        cfg = AcquisitionConfig(kind="r-lcb", q=1.0, rng_seed=0)
        x = propose_next(model, ContinuousSpace(1), obs, cfg)
        assert x.shape == (1,)
        assert x[0] <= 1e-6

    def test_bitwise_reproducible(self):
        rng = np.random.default_rng(62)
        model = IntensityModel.create(2, hidden=(8,), rng_seed=1)
        obs = random_obs(rng, 6, 2)
        cfg = AcquisitionConfig(kind="r-lcb", rng_seed=123)
        a = propose_next(model, ContinuousSpace(2), obs, cfg)
        b = propose_next(model, ContinuousSpace(2), obs, cfg)
        np.testing.assert_array_equal(a, b)

    def test_stays_in_box(self):
        rng = np.random.default_rng(63)
        model = IntensityModel.create(3, hidden=(8,), rng_seed=2)
        obs = random_obs(rng, 6, 3)
        for seed in range(5):
            for kind in ("r-lcb", "eri"):
                cfg = AcquisitionConfig(kind=kind, k_max=3, rng_seed=seed)
                x = propose_next(model, ContinuousSpace(3), obs, cfg)
                assert x.shape == (3,)
                assert (x >= 0.0).all() and (x <= 1.0).all()

    def test_seed_changes_rectified_proposal(self):
        # With q -> 0 every start is frozen, so the proposal is seed-driven.
        model = constant_rate_model(2, 3.0)
        obs = random_obs(np.random.default_rng(64), 8, 2)
        cfg0 = AcquisitionConfig(kind="r-lcb", q=1e-6, rng_seed=0)
        cfg1 = AcquisitionConfig(kind="r-lcb", q=1e-6, rng_seed=1)
        x0 = propose_next(model, ContinuousSpace(2), obs, cfg0)
        x1 = propose_next(model, ContinuousSpace(2), obs, cfg1)
        assert not np.array_equal(x0, x1)

    def test_eri_requires_enough_observations(self):
        model = increasing_rate_model()
        obs = random_obs(np.random.default_rng(65), 3, 1)
        cfg = AcquisitionConfig(kind="eri", k_max=5)
        with pytest.raises(DomainError):
            propose_next(model, ContinuousSpace(1), obs, cfg)

    def test_empty_observation_set_cannot_exist(self):
        from popbo.errors import InputError
        with pytest.raises(InputError):
            ObservationSet(np.empty((0, 1)), np.empty(0), np.empty(0, dtype=int))


class RecordingModel:
    """A model whose `rates` calls are recorded, batch by batch."""

    def __init__(self, model):
        self.model = model
        self.batches = []
        self.grad_calls = 0

    def rates(self, x):
        self.batches.append(np.array(x, dtype=float))
        return self.model.rates(x)

    def rate_and_input_grad(self, x):
        self.grad_calls += 1
        return self.model.rate_and_input_grad(x)


def sequential_trials(model, x, f, g, p, cfg, n_obs):
    """Trial points, values and Armijo margins f_new - bound of a one-trial-per-call search.

    The trials are clip(x + alpha p) for alpha = 1 then halved 29 times,
    up to but excluding the first whose clipped step is zero; a trial
    passes when its margin is <= 0.
    """
    trials, values, margins = [], [], []
    alpha = 1.0
    for _ in range(acquisition._MAX_BACKTRACKS):
        x_new = np.clip(x + alpha * p, 0.0, 1.0)
        step = x_new - x
        if not step.any():
            break
        f_new = float(objective_and_drate(model.rates(x_new[None, :]), n_obs, cfg,
                                          drate=False)[0][0])
        trials.append(x_new)
        values.append(f_new)
        margins.append(f_new - (f + acquisition._ARMIJO_C1 * float(np.dot(g, step))))
        alpha *= 0.5
    return np.array(trials).reshape(-1, x.size), np.array(values), np.array(margins)


def blocked_search(model, x, f, g, p, cfg, n_obs):
    """(result, rows scored in order, rates calls) of the proposer's line search."""
    recording = RecordingModel(model)
    result = acquisition._line_search(recording, x, f, g, p, cfg, n_obs)
    rows = np.concatenate(recording.batches) if recording.batches else np.empty((0, x.size))
    return result, rows, len(recording.batches)


def start_of(model, x, cfg, n_obs):
    """(objective value, objective gradient) at x."""
    values, _ = objective_and_drate(model.rates(x[None, :]), n_obs, cfg, drate=False)
    return float(values[0]), acquisition._rate_and_objective_grad(model, x, cfg, n_obs)[1]


class TestBlockedLineSearch:
    """The blocked Armijo search accepts what the sequential search accepts."""

    BLOCK_ENDS = [hi for _, hi in acquisition._TRIAL_BLOCKS]

    def test_blocks_cover_the_trials_once(self):
        assert acquisition._TRIAL_BLOCKS[0] == (0, 1)
        covered = [i for lo, hi in acquisition._TRIAL_BLOCKS for i in range(lo, hi)]
        assert covered == list(range(acquisition._MAX_BACKTRACKS))
        assert all(hi - lo <= acquisition._LINE_SEARCH_BLOCK
                   for lo, hi in acquisition._TRIAL_BLOCKS)

    @pytest.mark.parametrize("kind", ["r-lcb", "eri"])
    def test_accepts_the_first_trial_that_passes(self, kind):
        rng = np.random.default_rng(71)
        cfg = AcquisitionConfig(kind=kind, q=1.0, k_max=3)
        n_obs = 8
        accepted_at = []
        for model_seed in range(4):
            model = IntensityModel.create(3, hidden=(16, 16), rng_seed=model_seed)
            for _ in range(12):
                # Some starts lie on faces; descent directions of random
                # lengths make the search back off by varying amounts.
                x = rng.uniform(size=3)
                x[rng.uniform(size=3) < 0.3] = rng.integers(0, 2)
                f, g = start_of(model, x, cfg, n_obs)
                p = rng.normal(size=3)
                p *= -np.sign(np.dot(p, g)) * 10.0 ** rng.integers(-1, 4)
                trials, values, margins = sequential_trials(model, x, f, g, p, cfg, n_obs)
                passing = np.flatnonzero(margins <= 0.0)
                first = int(passing[0]) if passing.size else None
                last = len(trials) if first is None else first + 1
                # Rounding may flip a trial this close to its bound.
                if (np.abs(margins[:last]) < 1e-9).any():
                    continue
                result, rows, calls = blocked_search(model, x, f, g, p, cfg, n_obs)

                end = min(next(hi for hi in self.BLOCK_ENDS if hi >= last), len(trials))
                np.testing.assert_array_equal(rows, trials[:end])
                assert calls == 1 + sum(hi < last for hi in self.BLOCK_ENDS)
                if first is None:
                    assert result is None
                else:
                    x_new, f_new, _ = result
                    np.testing.assert_array_equal(x_new, trials[first])
                    assert f_new == pytest.approx(values[first], rel=1e-12, abs=1e-12)
                accepted_at.append(first)
        # The instances accept in the first trial and past the first block,
        # and some exhaust the search.
        assert len(accepted_at) >= 40
        assert 0 in accepted_at and None in accepted_at
        assert any(i is not None and i >= 9 for i in accepted_at)

    def test_zero_step_cuts_the_block(self):
        model = IntensityModel.create(3, hidden=(16, 16), rng_seed=5)
        cfg = AcquisitionConfig(kind="r-lcb", q=1.0)
        x = np.array([0.5, 0.0, 1.0])
        # Coordinates 1 and 2 push out of their faces; coordinate 0's step
        # rounds away once alpha * 3e-15 is below half an ulp of 0.5.
        p = np.array([3e-15, -1.0, 2.0])
        g = np.array([-1e12, 0.0, 0.0])
        f, _ = start_of(model, x, cfg, 8)
        trials, _, margins = sequential_trials(model, x, f, g, p, cfg, 8)
        assert 1 < len(trials) < self.BLOCK_ENDS[1]
        assert (margins > 1e-9).all()
        result, rows, calls = blocked_search(model, x, f, g, p, cfg, 8)
        assert result is None
        assert calls == 2
        np.testing.assert_array_equal(rows, trials)

    def test_zero_first_step_scores_nothing(self):
        model = IntensityModel.create(2, hidden=(8,), rng_seed=0)
        cfg = AcquisitionConfig(kind="r-lcb", q=1.0)
        x = np.array([0.0, 1.0])
        f, g = start_of(model, x, cfg, 8)
        result, rows, calls = blocked_search(model, x, f, g, np.array([-1.0, 1.0]), cfg, 8)
        assert result is None and calls == 0

    def test_exhausted_search_on_a_face_takes_five_calls(self):
        cfg = AcquisitionConfig(kind="r-lcb", q=1.0)
        n_obs = 8
        model = IntensityModel.create(3, hidden=(16, 16), rng_seed=2)
        x = np.array([0.0, 0.4, 0.6])
        f, g = start_of(model, x, cfg, n_obs)
        assert g[0] > 0.0
        # A descent direction whose only descending component points out of
        # the face x[0] = 0: every clipped step climbs along the free
        # coordinates.
        p = np.concatenate([[-2.0 / g[0]], g[1:] / float(np.dot(g[1:], g[1:]))])
        assert float(np.dot(p, g)) < 0.0
        trials, _, margins = sequential_trials(model, x, f, g, p, cfg, n_obs)
        assert len(trials) == acquisition._MAX_BACKTRACKS
        assert (margins > 1e-9).all()
        result, rows, calls = blocked_search(model, x, f, g, p, cfg, n_obs)
        assert result is None
        np.testing.assert_array_equal(rows, trials)
        assert calls <= 1 + math.ceil((acquisition._MAX_BACKTRACKS - 1)
                                      / acquisition._LINE_SEARCH_BLOCK) == 5

    def test_starts_are_scored_by_one_call(self):
        # q -> 0 rectifies every start: one rates call, no descent.
        recording = RecordingModel(constant_rate_model(2, 3.0))
        obs = random_obs(np.random.default_rng(72), 8, 2)
        cfg = AcquisitionConfig(kind="r-lcb", q=1e-6, rng_seed=3)
        x = propose_next(recording, ContinuousSpace(2), obs, cfg)
        assert [b.shape for b in recording.batches] == [(acquisition._RESTARTS, 2)]
        assert recording.grad_calls == 0
        np.testing.assert_array_equal(x, propose_next(constant_rate_model(2, 3.0),
                                                      ContinuousSpace(2), obs, cfg))
        # Tables take the same path and never descend, even from live candidates.
        recording = RecordingModel(IntensityModel.create(2, hidden=(8,), rng_seed=3))
        cands = np.random.default_rng(73).uniform(size=(25, 2))
        cfg = AcquisitionConfig(kind="r-lcb", q=1.0, rng_seed=3)
        x = propose_next(recording, DiscreteSpace(cands), obs, cfg)
        assert [b.shape for b in recording.batches] == [(acquisition._DISCRETE_SAMPLES, 2)]
        assert (recording.model.rates(recording.batches[0]) < cfg.q * len(obs)).any()
        assert recording.grad_calls == 0
        assert any(np.array_equal(x, c) for c in cands)


def recorded_descent(monkeypatch, model, x, cfg, n_obs):
    """(_descend's result, [(f, p, accepted) per line search]) from x."""
    searches = []
    line_search = acquisition._line_search

    def recording(model, x, f, g, p, cfg, n_obs):
        accepted = line_search(model, x, f, g, p, cfg, n_obs)
        searches.append((f, p.copy(), accepted))
        return accepted

    monkeypatch.setattr(acquisition, "_line_search", recording)
    f, _ = start_of(model, x, cfg, n_obs)
    return acquisition._descend(model, x.copy(), f, cfg, n_obs, cfg.q * n_obs), searches


def meets_relative_decrease(f, f_new):
    return f - f_new <= acquisition._LBFGS_FTOL * max(abs(f), abs(f_new), 1.0)


class TestDescent:
    """The descent's direction respects the box, and its stop test fires."""

    def test_direction_is_zero_on_a_face_the_gradient_leaves(self, monkeypatch):
        cfg = AcquisitionConfig(kind="r-lcb", q=1.0)
        model = IntensityModel.create(3, hidden=(16, 16), rng_seed=2)
        x = np.array([0.0, 0.4, 0.6])
        # The gradient points out of the face x[0] = 0: descending means x[0] < 0.
        assert start_of(model, x, cfg, 8)[1][0] > 0.0
        (_, value, frozen), searches = recorded_descent(monkeypatch, model, x, cfg, 8)
        assert searches[0][1][0] == 0.0
        assert searches[0][1][1:].any()
        assert searches[-1][2] is not None
        assert not frozen and value < searches[0][0]

    def test_ends_at_the_relative_decrease_test(self, monkeypatch):
        # rate = softplus(4 x0 + 2 x1 + b) with rate(0) = 0.05.  From n_obs = 12
        # on, mu = rate, so R-LCB = sqrt(mu) (sqrt(mu) - 1) has its minimum
        # -1/4 inside the box, where the rate is 1/4.
        cfg = AcquisitionConfig(kind="r-lcb", q=1.0)
        model = IntensityModel.create(2, hidden=(), rng_seed=0)
        model.weights[0][...] = [[4.0], [2.0]]
        model.biases[0][...] = math.log(math.expm1(0.05))
        x = np.array([0.9, 0.8])
        (x_end, value, frozen), searches = recorded_descent(monkeypatch, model, x, cfg, 12)
        assert value == pytest.approx(-0.25, abs=1e-6)
        assert 1 <= len(searches) < acquisition._LBFGS_MAX_ITER
        f, _, accepted = searches[-1]
        assert accepted is not None and not frozen
        np.testing.assert_array_equal(x_end, accepted[0])
        assert value == accepted[1]
        assert meets_relative_decrease(f, value)
        # No earlier step met the test, or the descent would have ended there.
        assert not any(meets_relative_decrease(f0, acc[1]) for f0, _, acc in searches[:-1])

    @pytest.mark.parametrize("kind", ["r-lcb", "eri"])
    def test_never_climbs_and_stays_in_the_box(self, kind):
        rng = np.random.default_rng(75)
        cfg = AcquisitionConfig(kind=kind, q=1.0, k_max=3)
        n_obs = 8
        for model_seed in range(4):
            model = IntensityModel.create(3, hidden=(16, 16), rng_seed=model_seed)
            for _ in range(10):
                x = rng.uniform(size=3)
                x[rng.uniform(size=3) < 0.3] = rng.integers(0, 2)
                f, _ = start_of(model, x, cfg, n_obs)
                x_end, value, frozen = acquisition._descend(model, x.copy(), f, cfg, n_obs,
                                                            cfg.q * n_obs)
                assert (x_end >= 0.0).all() and (x_end <= 1.0).all()
                if not frozen:
                    assert value <= f


class TestProposeDiscrete:
    def test_picks_lowest_unrectified_rate(self):
        # Candidate rates ~ {0.1, 3.4, 9.0}; threshold 6 rectifies only the
        # 9-rate point, whose substituted eps >= 0 can never beat a negative
        # confidence bound.
        def inv_softplus(r):
            return math.log(math.expm1(r))

        model = IntensityModel.create(1, hidden=(), rng_seed=0)
        model.biases[0][...] = inv_softplus(0.1)
        model.weights[0][...] = inv_softplus(9.0) - inv_softplus(0.1)
        cands = np.array([[0.0], [0.5], [1.0]])
        rates = model.rates(cands)
        assert rates[0] < 0.2 and 2.0 < rates[1] < 6.0 and rates[2] > 8.5
        obs = random_obs(np.random.default_rng(71), 10, 1)
        cfg = AcquisitionConfig(kind="r-lcb", q=0.6, rng_seed=0)
        x = propose_next(model, DiscreteSpace(cands), obs, cfg)
        np.testing.assert_array_equal(x, [0.0])

    def test_proposal_is_a_candidate(self):
        rng = np.random.default_rng(72)
        model = IntensityModel.create(2, hidden=(8,), rng_seed=3)
        cands = rng.uniform(size=(25, 2))
        obs = random_obs(rng, 6, 2)
        cfg = AcquisitionConfig(kind="r-lcb", rng_seed=5)
        x = propose_next(model, DiscreteSpace(cands), obs, cfg)
        assert any(np.array_equal(x, c) for c in cands)

    def test_bitwise_reproducible(self):
        rng = np.random.default_rng(73)
        model = IntensityModel.create(2, hidden=(8,), rng_seed=3)
        cands = rng.uniform(size=(25, 2))
        obs = random_obs(rng, 6, 2)
        cfg = AcquisitionConfig(kind="eri", k_max=3, rng_seed=5)
        a = propose_next(model, DiscreteSpace(cands), obs, cfg)
        b = propose_next(model, DiscreteSpace(cands), obs, cfg)
        np.testing.assert_array_equal(a, b)

    def test_selection_invariant_under_constant_shift(self):
        # With nothing rectified the winner depends only on objective order,
        # so a constant offset on every value cannot move the argmin.
        rng = np.random.default_rng(74)
        rates = rng.uniform(0.0, 5.0, size=50)
        for kind in ("r-lcb", "eri"):
            cfg = AcquisitionConfig(kind=kind, q=1.0, k_max=3)
            vals, _ = objective_and_drate(rates, 8, cfg, drate=False)
            for shift in (-10.0, 0.0, 3.7):
                assert np.argmin(vals + shift) == np.argmin(vals)
