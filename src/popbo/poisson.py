"""Truncated-Poisson probability mass, moments, and the ranking-robustness formula.

A candidate's rank among ``max_rank`` comparison points is modeled by a Poisson
distribution restricted to the support {0, ..., max_rank}:

    pmf(k) = (rate^k / k!) / S(max_rank),   S(m) = sum_{i=0..m} rate^i / i!

The exp(-rate) factor of the plain Poisson cancels between numerator and
normalizer, so it is never evaluated.  All arithmetic runs in log space so
that rates up to 1e4 neither overflow nor lose the small-probability tail.
Every normalizer and mean (fit, likelihood, acquisition, truncated_mean) is
read off one term matrix, log(rate^i / i!) for i = 0..m, by
log_partial_exp_sums; pmf_vector is the one pmf the library reports.

Everything here is pure and stateless: no learning, no I/O, no hidden RNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

__all__ = [
    "TruncatedPoisson",
    "RankPosterior",
    "pmf",
    "pmf_vector",
    "truncated_mean",
    "truncated_means",
    "correct_ranking_probability",
    "log_factorials",
    "log_partial_exp_sum",
    "log_partial_exp_sums",
    "partial_sum_log_terms",
    "logsumexp",
]


def logsumexp(a, axis: int = -1):
    """log(sum(exp(a))) along one axis, bitwise equal to scipy.special.logsumexp.

    Step for step the algorithm scipy uses on real input without weights:
    the maximum is split off, log1p(s / m) + log(m) + max is returned, with s
    the sum of the remaining shifted exponentials and m the number of entries
    tied at the maximum, and wherever that result is not finite (all entries
    -inf, or a +inf entry) the direct log(sum(exp(a))) replaces it.  The same
    elementwise operations and the same contiguous reductions in the same
    order give the same bits; skipping scipy's array-API dispatch makes it
    several times faster on the tiny arrays the surrogate and acquisition use.

    Args:
        a: array_like of reals; a 1-d input reduces to a numpy scalar.
        axis: the axis to reduce.

    Returns:
        The reduced array (or scalar).
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(axis=axis, keepdims=True)
        is_max = a == a_max
        m = is_max.sum(axis=axis, keepdims=True, dtype=float)
        rest = a.copy()
        np.putmask(rest, is_max, -np.inf)
        rest -= a_max
        np.exp(rest, out=rest)
        # scipy keeps s where s == 0; s / m is that same 0 there.
        out = np.log1p(rest.sum(axis=axis, keepdims=True) / m)
        out += np.log(m)
        out += a_max
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.exp(a).sum(axis=axis, keepdims=True)))
    out = out.squeeze(axis=axis)
    return out[()] if out.ndim == 0 else out


def log_factorials(max_k: int) -> np.ndarray:
    """Return the table [log(0!), log(1!), ..., log(max_k!)].

    Args:
        max_k: largest factorial argument, >= 0.

    Returns:
        Array of shape (max_k + 1,) with entry i equal to log(i!).
    """
    if max_k < 0:
        raise DomainError(f"max_k must be >= 0, got {max_k}")
    return _log_factorial_table(int(max_k))


@lru_cache(maxsize=256)
def _log_factorial_table(max_k: int) -> np.ndarray:
    # Shared between callers, hence read-only.  np.cumsum accumulates in
    # order, so every table is a prefix of any longer one.
    table = np.zeros(max_k + 1)
    if max_k >= 1:
        table[1:] = np.cumsum(np.log(np.arange(1, max_k + 1, dtype=float)))
    table.flags.writeable = False
    return table


def log_partial_exp_sum(rate, m: int):
    """log S(m) with S(m) = sum_{i=0..m} rate^i / i!, the partial exponential sum.

    Accepts a scalar or an array of rates and broadcasts over them.  By
    convention ``m = -1`` yields -inf (empty sum), which keeps derivative
    identities such as S'(m) = S(m-1) uniform at the boundary.

    Args:
        rate: nonnegative rate(s).
        m: truncation bound of the sum.

    Returns:
        log S(m) as a float for scalar input, else an array of the same shape.
    """
    rates = np.asarray(rate, dtype=float)
    scalar = rates.ndim == 0
    rates = np.atleast_1d(rates)
    if m < 0:
        out = np.full(rates.shape, -np.inf)
    else:
        out = logsumexp(partial_sum_log_terms(rates, m), axis=-1)
    return float(out[0]) if scalar else out


def log_partial_exp_sums(terms: np.ndarray, count: int) -> list:
    """[log S(m), ..., log S(m - count + 1)] from the term matrix of S(m).

    The terms of S(m - i) are the first m + 1 - i columns of those of S(m),
    so each equals the corresponding log_partial_exp_sum bitwise; log S(-1)
    is -inf.
    """
    m = terms.shape[-1] - 1
    return [logsumexp(terms[..., :m + 1 - i], axis=-1) if i <= m
            else np.full(terms.shape[:-1], -np.inf) for i in range(count)]


@lru_cache(maxsize=256)
def _term_basis(m: int):
    """(i, log i!) for i = 0..m, shared read-only."""
    ks = np.arange(m + 1, dtype=float)
    ks.flags.writeable = False
    return ks, log_factorials(m)


def partial_sum_log_terms(rates: np.ndarray, m: int) -> np.ndarray:
    """(..., m + 1) matrix of log(rate^i / i!), i = 0..m, for an array of rates."""
    ks, lf = _term_basis(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = ks * np.log(rates)[..., None] - lf
    # k = 0 contributes rate^0/0! = 1 exactly; overwrite the 0 * log(0) = nan slot.
    terms[..., 0] = 0.0
    return terms


@dataclass(frozen=True)
class TruncatedPoisson:
    """Poisson distribution renormalized on the ranks {0, ..., max_rank}.

    Attributes:
        rate: nonnegative intensity-times-volume product.
        max_rank: truncation bound, the number of comparison points.
    """

    rate: float
    max_rank: int

    def __post_init__(self):
        if not (isinstance(self.max_rank, (int, np.integer)) and self.max_rank >= 0):
            raise DomainError(f"max_rank must be a nonnegative integer, got {self.max_rank!r}")
        if not (math.isfinite(self.rate) and self.rate >= 0):
            raise DomainError(f"rate must be finite and >= 0, got {self.rate!r}")
        object.__setattr__(self, "rate", float(self.rate))
        object.__setattr__(self, "max_rank", int(self.max_rank))


@dataclass(frozen=True)
class RankPosterior:
    """Predicted rank distribution of a candidate.

    Attributes:
        pmf: probabilities indexed by rank k = 0, 1, ...
        mean: expected rank.
        stddev: reported spread, defined as sqrt(mean) in both regimes.
    """

    pmf: np.ndarray
    mean: float
    stddev: float

    def __post_init__(self):
        p = np.asarray(self.pmf, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise DomainError("pmf must be a non-empty vector")
        if p.min() < 0.0:
            raise DomainError("pmf entries must be nonnegative")
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise DomainError(f"pmf mass {p.sum()!r} deviates from 1 beyond 1e-12")
        expected = float(np.dot(np.arange(p.size, dtype=float), p))
        if abs(expected - self.mean) > 1e-10:
            raise DomainError(
                f"mean {self.mean!r} deviates from sum(k * pmf) = {expected!r} beyond 1e-10"
            )
        if not math.isclose(self.stddev, math.sqrt(self.mean), rel_tol=1e-12, abs_tol=1e-15):
            raise DomainError("stddev must equal sqrt(mean)")
        object.__setattr__(self, "pmf", p)
        object.__setattr__(self, "mean", float(self.mean))
        object.__setattr__(self, "stddev", float(self.stddev))


def pmf(dist: TruncatedPoisson, k: int) -> float:
    """Probability that the rank equals k in [0, max_rank]; other k raise DomainError."""
    if not isinstance(k, (int, np.integer)):
        raise DomainError(f"rank k must be an integer, got {k!r}")
    if k < 0 or k > dist.max_rank:
        raise DomainError(f"rank k={k} outside support [0, {dist.max_rank}]")
    return float(pmf_vector(dist.rate, dist.max_rank)[k])


def pmf_vector(rate: float, max_rank: int) -> np.ndarray:
    """Full pmf over the support {0, ..., max_rank} as an array.

    The steps log p_k - log p_{k-1} = log(rate / k) are summed outward from
    the mode, so the log terms stay small where the mass lies (the terms
    k log(rate) - log k! reach 1e5 at rate 1e4, where their rounding shifts
    the mean by 3e-9).  At rate 0 every step is -inf: all mass sits on rank 0.
    """
    dist = TruncatedPoisson(rate, max_rank)
    mode = min(int(dist.rate), dist.max_rank)
    with np.errstate(divide="ignore"):
        steps = np.log(dist.rate / np.arange(1, dist.max_rank + 1, dtype=float))
    log_p = np.zeros(dist.max_rank + 1)
    log_p[mode + 1:] = np.cumsum(steps[mode:])
    log_p[:mode] = -np.cumsum(steps[:mode][::-1])[::-1]
    return np.exp(log_p - logsumexp(log_p))


def truncated_means(rates: np.ndarray, max_rank: int, slope: bool = False):
    """(means, slopes) per rate from one term matrix; slopes None unless slope.

    mean = rate * ratio with ratio = S(m-1) / S(m), m = max_rank, and, as
    S'(m) = S(m-1), slope = ratio + rate * (S(m-2) / S(m) - ratio^2).
    log S(-1) = -inf makes the mean 0 at max_rank 0, as rate 0 does.
    """
    log_s = log_partial_exp_sums(partial_sum_log_terms(rates, max_rank), 3 if slope else 2)
    ratio = np.exp(log_s[1] - log_s[0])
    means = rates * ratio
    if not slope:
        return means, None
    return means, ratio + rates * (np.exp(log_s[2] - log_s[0]) - ratio * ratio)


def truncated_mean(dist: TruncatedPoisson) -> float:
    """Expectation of the truncated distribution: truncated_means at one rate."""
    means, _ = truncated_means(np.array([dist.rate]), dist.max_rank)
    return float(means[0])


def correct_ranking_probability(gap: float, noise_sigma: float) -> float:
    """Probability that i.i.d. Gaussian observation noise preserves a pairwise order.

    Two points whose true values differ by ``gap`` are observed with
    independent N(0, sigma^2) noise; their difference carries N(0, 2 sigma^2)
    noise, so the observed order matches the true order with probability
    Phi(gap / (sqrt(2) * sigma)).

    Args:
        gap: true value difference f(x2) - f(x1), any finite real.
        noise_sigma: noise standard deviation, > 0.

    Returns:
        Probability in (0, 1).
    """
    if not (math.isfinite(noise_sigma) and noise_sigma > 0):
        raise DomainError(f"noise_sigma must be finite and > 0, got {noise_sigma!r}")
    if not math.isfinite(gap):
        raise DomainError(f"gap must be finite, got {gap!r}")
    # Phi(t) = (1 + erf(t / sqrt 2)) / 2 with t = gap / (sqrt 2 * sigma).
    return 0.5 * (1.0 + math.erf(gap / (2.0 * noise_sigma)))
