"""Truncated-Poisson probability mass, moments, and the ranking-robustness formula.

A candidate's rank among ``max_rank`` comparison points is modeled by a Poisson
distribution restricted to the support {0, ..., max_rank}:

    pmf(k) = (rate^k / k!) / S(max_rank),   S(m) = sum_{i=0..m} rate^i / i!

The exp(-rate) factor of the plain Poisson cancels between numerator and
normalizer, so it is never evaluated.  All arithmetic runs in log space so
that rates up to 1e4 neither overflow nor lose the small-probability tail.
Every normalizer and mean (fit, likelihood, acquisition, truncated_mean) is
read off one term matrix, log(rate^i / i!) for i = 0..m, by
log_partial_exp_sums.  pmf_vector, the library's one pmf, is built apart
from that matrix (outward from the mode), so it is also an independent
reference for those values.

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
    several times faster on the short vectors of pmf_vector, its one user.

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
        out = log_partial_exp_sums(partial_sum_log_terms(rates, m), 1)[0]
    return float(out[0]) if scalar else out


def log_partial_exp_sums(terms: np.ndarray, count: int) -> list:
    """[log S(m), ..., log S(m - count + 1)] from the term matrix of S(m).

    The terms of S(m - i) are the first m + 1 - i columns of those of S(m).
    S(j), j = max(m + 1 - max(count, 3), 0), is one sum of exp(terms - shift),
    shifted by its largest term; log1p of (sum - 1), with the 1 taken from
    column 0, is exact near 0.  Longer sums add one term each by logaddexp:
    S(j)'s shift would overflow them (at rate 1e300 each term is e^690 times
    the last).  log S(m) and log S(m - 1) have the same bits for every
    count <= 3, so no value depends on whether its slope is asked for.
    log S(-1) is -inf.
    """
    m = terms.shape[-1] - 1
    j = max(m + 1 - max(count, 3), 0)
    head = terms[..., :j + 1]
    shift = head.max(axis=-1)
    shifted = np.exp(head - shift[..., None])
    sums = [shift + np.log1p(shifted[..., 1:].sum(axis=-1) + (shifted[..., 0] - 1.0))]
    for i in range(j + 1, m + 1):
        sums.append(np.logaddexp(sums[-1], terms[..., i]))
    sums.reverse()
    if count > m + 1:
        sums += [np.full(shift.shape, -np.inf)] * (count - m - 1)
    return sums[:count]


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
    log S(-1) = -inf makes the mean 0 at max_rank 0, as rate 0 does; the log
    ratio is clamped at 0, where rounding would lift the mean above the rate.
    """
    log_s = log_partial_exp_sums(partial_sum_log_terms(rates, max_rank), 3 if slope else 2)
    ratio = np.exp(np.minimum(log_s[1] - log_s[0], 0.0))
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
