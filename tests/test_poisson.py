"""Tests for the truncated-Poisson layer: hand values, normalization, moments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from popbo.errors import DomainError
from popbo.poisson import (
    RankPosterior,
    TruncatedPoisson,
    correct_ranking_probability,
    log_factorials,
    log_partial_exp_sum,
    log_partial_exp_sums,
    logsumexp,
    partial_sum_log_terms,
    pmf,
    pmf_vector,
    truncated_mean,
    truncated_means,
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
        # Each prefix is summed from its own cut, so agreement is to rounding.
        rates = np.array([0.0, 1e-9, 0.3, 1.0, 4.5, 37.0, 1e4])
        for m in range(0, 14):
            terms = partial_sum_log_terms(rates, m)
            sums = log_partial_exp_sums(terms, m + 2)
            assert len(sums) == m + 2
            for i, log_s in enumerate(sums):  # down to S(-1), which is -inf
                np.testing.assert_allclose(log_s, log_partial_exp_sum(rates, m - i),
                                           rtol=1e-15, atol=0.0)

    def test_prefix_sums_match_logsumexp_over_all_scales(self):
        # rate 0 and 1e-300 .. 1e300: a single shift by the largest term
        # overflows at huge rates (log S(31) = -inf at rate 1e300, m = 33).
        rates = np.concatenate([[0.0], np.logspace(-300, 300, 601), [0.3, 4.5, 1e4]])
        for m in range(0, 41):
            terms = partial_sum_log_terms(rates, m)
            for count in (1, 2, 3, m + 2):
                sums = log_partial_exp_sums(terms, count)
                assert len(sums) == count
                for i, log_s in enumerate(sums):
                    if i > m:
                        assert (log_s == -np.inf).all()
                        continue
                    ref = logsumexp(terms[:, :m + 1 - i], axis=-1)
                    assert np.isfinite(log_s).all()
                    np.testing.assert_allclose(log_s, ref, rtol=1e-14, atol=0.0)

    def test_first_two_sums_do_not_depend_on_count(self):
        # A value (count 1 or 2) and its slope (count 3) share log S(m), log S(m-1).
        rates = np.array([0.0, 1e-9, 0.3, 1.0, 4.5, 37.0, 1e4])
        for m in range(0, 14):
            terms = partial_sum_log_terms(rates, m)
            one, two, three = (log_partial_exp_sums(terms, c) for c in (1, 2, 3))
            np.testing.assert_array_equal(one[0], three[0])
            np.testing.assert_array_equal(two[1], three[1])

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
        dist = TruncatedPoisson(0.0, 3)
        assert pmf(dist, 0) == 1.0
        assert pmf(dist, 1) == 0.0
        assert pmf(dist, 3) == 0.0

    def test_rate_one_max_rank_one(self):
        np.testing.assert_allclose(pmf_vector(1.0, 1), [0.5, 0.5], rtol=1e-14)

    def test_rate_two_max_rank_two(self):
        # Terms 1, 2, 2 -> p(2) = 2/5.
        assert math.isclose(pmf(TruncatedPoisson(2.0, 2), 2), 0.4, rel_tol=1e-13)

    def test_pmf_vector_matches_scalar(self):
        dist = TruncatedPoisson(3.7, 6)
        vec = pmf_vector(3.7, 6)
        for k in range(7):
            assert math.isclose(vec[k], pmf(dist, k), rel_tol=1e-13)

    def test_out_of_support_raises(self):
        dist = TruncatedPoisson(1.0, 4)
        with pytest.raises(DomainError):
            pmf(dist, 5)
        with pytest.raises(DomainError):
            pmf(dist, -1)

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
        # Far below max_rank, log S(m-1) rounds above log S(m) unless clamped.
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
    @given(RATE, MAX_RANK, st.data())
    def test_scalar_entries_are_vector_entries(self, rate, max_rank, data):
        dist = TruncatedPoisson(rate, max_rank)
        k = data.draw(st.integers(0, max_rank))
        assert pmf(dist, k) == pmf_vector(rate, max_rank)[k]
        means, _ = truncated_means(np.array([rate]), max_rank)
        assert truncated_mean(dist) == means[0]


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


class TestRankPosterior:
    def test_accepts_consistent_fields(self):
        p = pmf_vector(1.0, 1)
        post = RankPosterior(pmf=p, mean=0.5, stddev=math.sqrt(0.5))
        assert post.mean == 0.5

    def test_rejects_unnormalized_pmf(self):
        with pytest.raises(DomainError):
            RankPosterior(pmf=np.array([0.5, 0.4]), mean=0.4, stddev=math.sqrt(0.4))

    def test_rejects_inconsistent_mean(self):
        with pytest.raises(DomainError):
            RankPosterior(pmf=np.array([0.5, 0.5]), mean=0.9, stddev=math.sqrt(0.9))

    def test_rejects_wrong_stddev(self):
        with pytest.raises(DomainError):
            RankPosterior(pmf=np.array([0.5, 0.5]), mean=0.5, stddev=0.5)


def logsumexp_corpus(seed=0, count=4000):
    """Seeded 1-d and 2-d arrays with ties, -inf entries and all--inf rows."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        shape = (int(rng.integers(1, 20)),) if i % 2 else \
            (int(rng.integers(1, 6)), int(rng.integers(1, 15)))
        a = rng.normal(scale=rng.choice([1e-3, 1.0, 30.0, 800.0]), size=shape)
        if rng.uniform() < 0.3:
            a = np.round(a)  # ties at the maximum
        if rng.uniform() < 0.3:
            a[rng.uniform(size=shape) < 0.3] = -np.inf
        if a.ndim == 2 and rng.uniform() < 0.2:
            a[0] = -np.inf  # one all--inf row
        if rng.uniform() < 0.05:
            a[...] = -np.inf
        yield a


class TestLogsumexp:
    def test_bitwise_equal_to_scipy(self):
        for a in logsumexp_corpus():
            ours, ref = logsumexp(a, axis=-1), scipy_logsumexp(a, axis=-1)
            assert type(ours) is type(ref)
            assert np.asarray(ours).tobytes() == np.asarray(ref).tobytes(), a

    def test_list_input_reduces_to_scalar(self):
        terms = [0.5, -1.0, 2.0]
        assert logsumexp(terms) == scipy_logsumexp(terms)
        assert math.isclose(logsumexp(terms), math.log(sum(math.exp(t) for t in terms)),
                            rel_tol=1e-15)

    def test_edge_values(self):
        assert logsumexp([-np.inf, -np.inf]) == -np.inf
        assert logsumexp([np.inf, 0.0]) == np.inf
        assert logsumexp([3.0, 3.0]) == 3.0 + math.log(2.0)
