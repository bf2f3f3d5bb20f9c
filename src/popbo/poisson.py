"""Truncated-Poisson probability mass, moments, and the ranking-robustness formula.

A candidate's rank among ``max_rank`` comparison points is modeled by a Poisson
distribution restricted to the support {0, ..., max_rank}:

    pmf(k) = (rate^k / k!) / S(max_rank),   S(m) = sum_{i=0..m} rate^i / i!

The exp(-rate) factor of the plain Poisson cancels between numerator and
normalizer, so it is never evaluated.  All arithmetic runs in log space so
that rates up to 1e4 neither overflow nor lose the small-probability tail.
log_normalizer is the one normalizer of the library's rank laws (likelihood,
acquisition, truncated_mean): it decides, from the number of observations,
whether a law is truncated (below TRUNCATION_SWITCH_N) or plain Poisson, and
reads the truncated one off the running sums of one term matrix,
log(rate^i / i!) for i = 0..m.  pmf_vector, the library's one pmf, is built
apart from that matrix (outward from the mode), so it is also an independent
reference for those values.

Everything here is pure and stateless: no learning, no I/O, no hidden RNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, is_count

__all__ = [
    "TruncatedPoisson",
    "pmf_vector",
    "truncated_mean",
    "correct_ranking_probability",
    "TRUNCATION_SWITCH_N",
    "log_normalizer",
    "log_factorials",
    "log_partial_exp_sum",
    "log_partial_exp_sums",
    "partial_sum_log_terms",
]


TRUNCATION_SWITCH_N = 12

# Unused but bound: perfbench/tracer.py patches logsumexp here and in acquisition.
logsumexp = np.logaddexp.reduce


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
    out = log_partial_exp_sums(partial_sum_log_terms(rates, max(m, 0)))[..., max(m + 1, 0)]
    return float(out[0]) if scalar else out


def log_partial_exp_sums(terms: np.ndarray) -> np.ndarray:
    """[log S(-1), log S(0), ..., log S(m)] along the last axis, from S(m)'s terms.

    One running logaddexp over the term matrix, led by log S(-1) = -inf:
    each sum adds one term to the one before, so no shift can overflow (at
    rate 1e300 each term is e^690 times the last), and as logaddexp never
    returns less than either argument, the sums never decrease.
    """
    sums = np.empty(terms.shape[:-1] + (terms.shape[-1] + 1,))
    sums[..., 0] = -np.inf
    sums[..., 1:] = terms
    return np.logaddexp.accumulate(sums, axis=-1)


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
        if not is_count(self.max_rank, 0):
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
    The pmf peaks at the mode, so log p is 0 there and <= 0 elsewhere: the
    sum of exp(log p) lies in [1, max_rank + 1] and needs no shift.
    """
    dist = TruncatedPoisson(rate, max_rank)
    mode = min(int(dist.rate), dist.max_rank)
    with np.errstate(divide="ignore"):
        steps = np.log(dist.rate / np.arange(1, dist.max_rank + 1, dtype=float))
    log_p = np.zeros(dist.max_rank + 1)
    log_p[mode + 1:] = np.cumsum(steps[mode:])
    log_p[:mode] = -np.cumsum(steps[:mode][::-1])[::-1]
    p = np.exp(log_p)
    return p / p.sum()


def log_normalizer(rates: np.ndarray, n_obs: int, max_rank: int, order: int = 0) -> list:
    """[log Z, d log Z / dr, d^2 log Z / dr^2][:order + 1] of the rank law per rate.

    The law on {0..max_rank} has p_k = r^k / k! / Z.  Fewer than
    TRUNCATION_SWITCH_N observations (n_obs) normalize it exactly, by
    Z = S(max_rank); at or above the switch the plain Poisson law's Z = e^r
    applies, whose derivatives are the scalars 1.0 and 0.0 (they broadcast
    like arrays).  As S'(m) = S(m-1), the truncated derivatives are
    S(m-1)/S(m) and S(m-2)/S(m) - (S(m-1)/S(m))^2, all read off one running
    sum; the first lies in [0, 1], since the sums never decrease.  S(-2)
    enters only at max_rank 0, where it is -inf like S(-1).
    """
    if n_obs >= TRUNCATION_SWITCH_N:
        return [rates, 1.0, 0.0][:order + 1]
    log_s = log_partial_exp_sums(partial_sum_log_terms(rates, max_rank))
    out = [log_s[..., -1]]
    if order >= 1:
        out.append(np.exp(log_s[..., -2] - out[0]))
    if order >= 2:
        out.append(np.exp(log_s[..., max(max_rank - 1, 0)] - out[0]) - out[1] * out[1])
    return out


def truncated_mean(dist: TruncatedPoisson) -> float:
    """Expectation rate * d log Z / dr of the truncated law.

    Zero observations lie below the switch at every max_rank, so this is
    bitwise the mean that r-lcb uses below the switch.
    """
    slope = log_normalizer(np.array([dist.rate]), 0, dist.max_rank, 1)[1]
    return float(dist.rate * slope[0])


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
        Probability in [0, 1]: far from a zero gap it rounds to exactly 0 or 1.
    """
    if not (math.isfinite(noise_sigma) and noise_sigma > 0):
        raise DomainError(f"noise_sigma must be finite and > 0, got {noise_sigma!r}")
    if not math.isfinite(gap):
        raise DomainError(f"gap must be finite, got {gap!r}")
    # Phi(t) = (1 + erf(t / sqrt 2)) / 2 with t = gap / (sqrt 2 * sigma).
    return 0.5 * (1.0 + math.erf(gap / (2.0 * noise_sigma)))
