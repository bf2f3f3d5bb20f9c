"""Tests for the truncated-Poisson layer: hand values, normalization, moments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp
from scipy.stats import poisson as scipy_poisson

from popbo.errors import DomainError
from popbo.poisson import (
    TRUNCATION_SWITCH_N,
    TruncatedPoisson,
    correct_ranking_probability,
    log_factorials,
    log_normalizer,
    log_partial_exp_sum,
    log_partial_exp_sums,
    partial_sum_log_terms,
    pmf_vector,
    truncated_mean,
)


def brute_force_pmf(rate, max_rank):
    """Direct power-series evaluation, safe for small rates only."""
    terms = np.array([rate ** k / math.factorial(k) for k in range(max_rank + 1)])
    return terms / terms.sum()


class TestLogHelpers:
    def test_log_factorials_table(self):
        table = log_factorials(5)
        expected = [math.log(math.factorial(k)) for k in range(6)]
        np.testing.assert_allclose(table, expected, rtol=1e-15)

    def test_log_factorials_zero(self):
        np.testing.assert_array_equal(log_factorials(0), [0.0])

    def test_log_factorials_negative_raises(self):
        with pytest.raises(DomainError):
            log_factorials(-1)

    def test_log_factorials_cached_read_only(self):
        table = log_factorials(9)
        assert log_factorials(9) is table
        with pytest.raises(ValueError):
            table[0] = 1.0
        # Shorter tables are exact prefixes of longer ones.
        np.testing.assert_array_equal(log_factorials(4), table[:5])

    def test_prefix_sums_match_single_sums(self):
        # The running sums of S(m)'s terms are, bitwise, those of every
        # longer matrix, and each single sum reads its column.
        rates = np.array([0.0, 1e-9, 0.3, 1.0, 4.5, 37.0, 1e4])
        longest = log_partial_exp_sums(partial_sum_log_terms(rates, 14))
        for m in range(0, 14):
            sums = log_partial_exp_sums(partial_sum_log_terms(rates, m))
            assert sums.shape == (rates.size, m + 2)
            np.testing.assert_array_equal(sums, longest[:, :m + 2])
            for j in range(m + 2):  # from S(-1), which is -inf
                np.testing.assert_array_equal(sums[:, j], log_partial_exp_sum(rates, j - 1))

    def test_prefix_sums_match_logsumexp_over_all_scales(self):
        # rate 0 and 1e-300 .. 1e300: a single shift by the largest term
        # would overflow at huge rates (at rate 1e300 each term is e^690
        # times the last).  The running sums never decrease.
        rates = np.concatenate([[0.0], np.logspace(-300, 300, 601), [0.3, 4.5, 1e4]])
        for m in range(0, 41):
            terms = partial_sum_log_terms(rates, m)
            sums = log_partial_exp_sums(terms)
            assert sums.shape == (rates.size, m + 2)
            assert (sums[:, 0] == -np.inf).all()
            assert (np.diff(sums, axis=-1) >= 0.0).all()
            for j in range(m + 1):
                ref = scipy_logsumexp(terms[:, :j + 1], axis=-1)
                assert np.isfinite(sums[:, j + 1]).all()
                np.testing.assert_allclose(sums[:, j + 1], ref, rtol=1e-14, atol=0.0)

    def test_partial_sum_matches_direct(self):
        for rate in (0.3, 1.0, 4.5):
            direct = sum(rate ** k / math.factorial(k) for k in range(7))
            assert math.isclose(log_partial_exp_sum(rate, 6), math.log(direct),
                                rel_tol=1e-13)

    def test_partial_sum_empty_is_neg_inf(self):
        assert log_partial_exp_sum(2.0, -1) == -math.inf

    def test_partial_sum_rate_zero(self):
        # Only the k = 0 term survives: S(m) = 1.
        assert log_partial_exp_sum(0.0, 5) == 0.0

    def test_partial_sum_vectorized(self):
        rates = np.array([0.5, 1.0, 2.0])
        out = log_partial_exp_sum(rates, 3)
        for r, o in zip(rates, out):
            assert math.isclose(o, log_partial_exp_sum(float(r), 3), rel_tol=1e-15)

    def test_partial_sum_huge_rate_finite(self):
        # 1e4^20 / 20! overflows in linear space; the log form must not.
        out = log_partial_exp_sum(1e4, 20)
        assert math.isfinite(out)


class TestPmfHandValues:
    def test_zero_rate_puts_all_mass_at_zero(self):
        np.testing.assert_array_equal(pmf_vector(0.0, 3), [1.0, 0.0, 0.0, 0.0])

    def test_rate_one_max_rank_one(self):
        np.testing.assert_allclose(pmf_vector(1.0, 1), [0.5, 0.5], rtol=1e-14)

    def test_rate_two_max_rank_two(self):
        # Terms 1, 2, 2 -> p(2) = 2/5.
        assert math.isclose(pmf_vector(2.0, 2)[2], 0.4, rel_tol=1e-13)

    def test_negative_rate_raises(self):
        with pytest.raises(DomainError):
            TruncatedPoisson(-0.1, 3)


class TestNormalizationGrid:
    @pytest.mark.parametrize("rate", [0.01, 0.1, 1.0, 5.0, 50.0, 1e3, 1e4])
    @pytest.mark.parametrize("max_rank", [0, 1, 5, 20, 100])
    def test_mass_sums_to_one(self, rate, max_rank):
        total = pmf_vector(rate, max_rank).sum()
        assert abs(total - 1.0) <= 1e-12

    @pytest.mark.parametrize("rate", [0.1, 1.0, 5.0])
    @pytest.mark.parametrize("max_rank", [1, 5, 20])
    def test_matches_brute_force(self, rate, max_rank):
        np.testing.assert_allclose(pmf_vector(rate, max_rank),
                                   brute_force_pmf(rate, max_rank), rtol=1e-11)


class TestMoments:
    def test_mean_rate_one_max_rank_one(self):
        assert math.isclose(truncated_mean(TruncatedPoisson(1.0, 1)), 0.5,
                            rel_tol=1e-13)

    def test_mean_rate_three_max_rank_two(self):
        # Terms 1, 3, 4.5 -> mean = (3 + 9) / 8.5.
        assert math.isclose(truncated_mean(TruncatedPoisson(3.0, 2)), 12.0 / 8.5,
                            rel_tol=1e-13)

    def test_mean_degenerate_cases(self):
        assert truncated_mean(TruncatedPoisson(5.0, 0)) == 0.0
        assert truncated_mean(TruncatedPoisson(0.0, 7)) == 0.0

    @pytest.mark.parametrize("rate", [0.1, 1.0, 5.0, 50.0])
    @pytest.mark.parametrize("max_rank", [1, 5, 20])
    def test_mean_matches_expectation_sum(self, rate, max_rank):
        p = pmf_vector(rate, max_rank)
        expected = float(np.dot(np.arange(max_rank + 1), p))
        assert abs(truncated_mean(TruncatedPoisson(rate, max_rank)) - expected) <= 1e-10

    def test_mean_not_rounded_above_rate(self):
        # Far below max_rank, log S(m) adds a term far below log S(m-1); the
        # running sum never decreases, so the mean cannot round above the rate.
        assert truncated_mean(TruncatedPoisson(6.0, 39)) <= 6.0

    def test_mean_below_rate(self):
        # Truncation removes high ranks, so the mean cannot exceed the rate.
        for rate in (0.5, 2.0, 10.0):
            assert truncated_mean(TruncatedPoisson(rate, 6)) < rate


RATE = st.floats(0.0, 1e4)
MAX_RANK = st.integers(0, 40)


class TestPmfProperties:
    @settings(max_examples=300, deadline=None)
    @given(RATE, MAX_RANK)
    def test_mass_is_one(self, rate, max_rank):
        assert abs(pmf_vector(rate, max_rank).sum() - 1.0) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(RATE, MAX_RANK)
    def test_mean_is_expectation_and_bounded(self, rate, max_rank):
        mean = truncated_mean(TruncatedPoisson(rate, max_rank))
        p = pmf_vector(rate, max_rank)
        assert abs(mean - float(np.dot(np.arange(max_rank + 1), p))) <= 1e-10
        assert mean <= min(rate, max_rank)


    @settings(max_examples=300, deadline=None)
    @given(RATE, MAX_RANK)
    def test_scalar_entries_are_vector_entries(self, rate, max_rank):
        # truncated_mean is bitwise the r-lcb mean rate * d log Z / dr below the switch.
        n_obs = min(max_rank, TRUNCATION_SWITCH_N - 1)
        slope = log_normalizer(np.array([rate]), n_obs, max_rank, 1)[1]
        assert truncated_mean(TruncatedPoisson(rate, max_rank)) == rate * slope[0]


class TestPmfFarSupport:
    """pmf_vector on supports far past the max_rank <= 40 that TestPmfProperties draws."""

    @pytest.mark.parametrize("rate", [0.5, 8.0, 300.0, 1e4])
    def test_wide_support_is_poisson(self, rate):
        # 40 standard deviations past the rate, the truncated law is the
        # plain Poisson law up to a tail far below the 1e-12 mass tolerance.
        max_rank = math.ceil(rate + 40.0 * math.sqrt(rate) + 50.0)
        p = pmf_vector(rate, max_rank)
        ks = np.arange(max_rank + 1)
        np.testing.assert_allclose(p, scipy_poisson.pmf(ks, rate), rtol=1e-10, atol=1e-300)
        assert scipy_poisson.sf(max_rank, rate) < 1e-12
        assert abs(p.sum() - 1.0) <= 1e-12
        assert abs(float(ks @ p) - rate) <= 1e-10

    def test_normalization_matches_logsumexp(self):
        # pmf_vector divides by the plain sum of exp(log p); scipy's
        # logsumexp of the log Poisson law normalizes the same support,
        # including supports cut far below the rate, where the mode is
        # max_rank and every other log p is far below 0.
        for rate in (0.5, 8.0, 300.0, 1e4):
            for max_rank in (1, 7, 60, 400):
                log_pmf = scipy_poisson.logpmf(np.arange(max_rank + 1), rate)
                ref = np.exp(log_pmf - scipy_logsumexp(log_pmf))
                np.testing.assert_allclose(pmf_vector(rate, max_rank), ref,
                                           rtol=1e-10, atol=1e-300)

    @pytest.mark.parametrize("rate,max_rank", [(0.0, 5), (0.0, 50), (1.0, 0), (1e4, 0)])
    def test_edge_laws_put_all_mass_at_zero(self, rate, max_rank):
        p = pmf_vector(rate, max_rank)
        np.testing.assert_array_equal(p, np.eye(max_rank + 1)[0])
        assert truncated_mean(TruncatedPoisson(rate, max_rank)) == 0.0


class TestCorrectRankingProbability:
    def test_zero_gap_is_coin_flip(self):
        assert correct_ranking_probability(0.0, 1.0) == 0.5

    def test_two_sigma_scaled_gap(self):
        # gap = 2 * sqrt(2) * sigma -> Phi(2) = 0.97725...
        sigma = 0.7
        p = correct_ranking_probability(2.0 * math.sqrt(2.0) * sigma, sigma)
        assert math.isclose(p, 0.9772498680518208, rel_tol=1e-12)

    def test_one_sigma_scaled_gap(self):
        sigma = 1.3
        p = correct_ranking_probability(math.sqrt(2.0) * sigma, sigma)
        assert math.isclose(p, 0.8413447460685429, rel_tol=1e-12)

    def test_monotone_in_gap(self):
        gaps = np.linspace(-3.0, 3.0, 41)
        probs = [correct_ranking_probability(float(g), 0.8) for g in gaps]
        assert all(b > a for a, b in zip(probs, probs[1:]))

    def test_symmetry(self):
        p_plus = correct_ranking_probability(1.1, 0.6)
        p_minus = correct_ranking_probability(-1.1, 0.6)
        assert math.isclose(p_plus + p_minus, 1.0, rel_tol=1e-12)

    def test_sigma_must_be_positive(self):
        with pytest.raises(DomainError):
            correct_ranking_probability(1.0, 0.0)
        with pytest.raises(DomainError):
            correct_ranking_probability(1.0, -0.5)
