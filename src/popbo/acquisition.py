"""Rank-based acquisition functions and the proposal optimizer.

Two acquisitions are defined on a candidate's predicted rate:

* lcb:  mu - beta * sqrt(mu), with mu the (truncated or plain) expected rank.
* eri:  sum_{k=0..k_max} (k_max - k) * pmf(k), the expected margin by which
  the candidate's rank beats the worst tolerable rank; maximizing it is
  implemented as minimizing its negation.

objective_and_drate is the one implementation of both and of their rate
derivatives.  Both are rectified: wherever the predicted rate reaches
q * n_obs the acquisition value is replaced by a uniform draw eps in [0, 1],
and descent iterates entering that region are frozen in place.  The
continuous-space proposer is a multistart projected L-BFGS on the unit cube;
discrete spaces take an argmin over uniformly sampled candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError, RectifiedRegionError
# Unused but bound: perfbench/tracer.py patches log_factorials, log_partial_exp_sum, logsumexp.
from .poisson import (log_factorials, log_partial_exp_sum, log_partial_exp_sums, logsumexp,
                      partial_sum_log_terms, truncated_means)
from .space import ContinuousSpace, DiscreteSpace
from .surrogate import TRUNCATION_SWITCH_N, IntensityModel, ObservationSet

__all__ = [
    "AcquisitionConfig",
    "lcb",
    "r_lcb",
    "eri",
    "grad_acquisition",
    "propose_next",
]

_KINDS = ("r-lcb", "eri")
_DEFAULT_Q = {"r-lcb": 0.6, "eri": 0.4}

_LBFGS_MEMORY = 10
_LBFGS_MAX_ITER = 50
_LBFGS_GTOL = 1e-6
_ARMIJO_C1 = 1e-4
_MAX_BACKTRACKS = 30
_RESTARTS = 10
_DISCRETE_SAMPLES = 1000


@dataclass(frozen=True)
class AcquisitionConfig:
    """Acquisition settings and the proposer's random stream.

    q defaults by kind (0.6 for r-lcb, 0.4 for eri) when left as None.  The
    proposer's own budget is fixed: _RESTARTS descents on continuous spaces,
    _DISCRETE_SAMPLES candidates on discrete ones.
    """

    kind: str = "r-lcb"
    beta: float = 1.0
    q: float | None = None
    k_max: int = 5
    rng_seed: int = 0

    def __post_init__(self):
        kind = str(self.kind).lower()
        if kind not in _KINDS:
            raise DomainError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "kind", kind)
        q = self.q if self.q is not None else _DEFAULT_Q[kind]
        if not (0 < q <= 1):
            raise DomainError(f"q must lie in (0, 1], got {q!r}")
        object.__setattr__(self, "q", float(q))
        if self.k_max < 0:
            raise DomainError(f"k_max must be >= 0, got {self.k_max}")
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise DomainError(f"beta must be finite and >= 0, got {self.beta!r}")


def objective_and_drate(rates, n_obs: int, cfg: AcquisitionConfig, drate: bool = True):
    """Minimization objective per rate (1-d array), and its rate derivative.

    The rank pmf is p_j = r^j / j! / Z on {0..n_obs}: Z = S(n_obs) below
    TRUNCATION_SWITCH_N, exp(r) (plain Poisson) at or above it.  r-lcb is
    sqrt(mu) * (sqrt(mu) - beta) with mu = r S(n_obs-1) / S(n_obs) or r, and
    slope (1 - beta / (2 sqrt(mu))) * dmu/dr (0 where mu = 0).  eri is -ERI,
    ERI = F_0 + ... + F_{k_max-1} with F_j = p_0 + ... + p_j; as
    dp_j/dr = p_{j-1} - rho p_j with rho = d log Z / dr (1 plain,
    1 - p_{n_obs} truncated), dERI/dr = (1 - rho) * ERI - F_{k_max-1}.
    Each p_j is one exp of a log-space term, so every finite rate >= 0
    gives finite results.  eri's k_max <= n_obs is checked here and nowhere
    else in this module; rectification is the caller's.

    Returns:
        (values, slopes), slopes None unless drate.
    """
    rates = np.asarray(rates, dtype=float)
    plain = n_obs >= TRUNCATION_SWITCH_N
    if cfg.kind == "r-lcb":
        mu, dmu = (rates, 1.0) if plain else truncated_means(rates, n_obs, drate)
        root = np.sqrt(mu)
        values = root * (root - cfg.beta)
        if not drate:
            return values, None
        with np.errstate(divide="ignore", invalid="ignore"):
            return values, np.where(mu > 0.0, (1.0 - cfg.beta / (2.0 * root)) * dmu, 0.0)

    if cfg.k_max > n_obs:
        raise DomainError(f"k_max={cfg.k_max} exceeds n_obs={n_obs}")
    if cfg.k_max == 0:
        zeros = np.zeros_like(rates)
        return zeros, zeros if drate else None
    terms = partial_sum_log_terms(rates, cfg.k_max - 1 if plain else n_obs)
    log_z = rates if plain else log_partial_exp_sums(terms, 1)[0]
    pmf = np.exp(terms - log_z[..., None])
    cdf = np.add.accumulate(pmf[..., :cfg.k_max], axis=-1)
    eri_values = cdf.sum(axis=-1)
    if not drate:
        return -eri_values, None
    slopes = cdf[..., -1] if plain else cdf[..., -1] - pmf[..., -1] * eri_values
    return -eri_values, slopes


def lcb(rate: float, n_obs: int, beta: float) -> float:
    """Lower confidence bound sqrt(mu) * (sqrt(mu) - beta) on the expected rank."""
    return _objective_at(rate, n_obs, AcquisitionConfig(kind="r-lcb", beta=beta))


def _objective_at(rate: float, n_obs: int, cfg: AcquisitionConfig) -> float:
    if not (math.isfinite(rate) and rate >= 0):
        raise DomainError(f"rate must be finite and >= 0, got {rate!r}")
    values, _ = objective_and_drate(np.array([float(rate)]), n_obs, cfg, drate=False)
    return float(values[0])


def r_lcb(rate: float, n_obs: int, cfg: AcquisitionConfig, eps: float) -> tuple[float, bool]:
    """Rectified LCB: the LCB below the rate threshold q * n_obs, else eps.

    Args:
        rate: predicted rate, finite and >= 0.
        n_obs: number of observed points.
        cfg: supplies q and beta.
        eps: caller-supplied uniform draw in [0, 1], passed through when the
            point is rectified (reparameterized for testability).

    Returns:
        (value, rectified flag).
    """
    value = lcb(rate, n_obs, cfg.beta)  # DomainError unless the rate is finite and >= 0
    if rate < cfg.q * n_obs:
        return value, False
    return float(eps), True


def eri(rate: float, n_obs: int, k_max: int) -> float:
    """Expected ranking improvement over the worst tolerable rank k_max.

    This is an improvement, i.e. larger is better; the proposal optimizer
    minimizes its negation.  k_max may not exceed n_obs.
    """
    return -_objective_at(rate, n_obs, AcquisitionConfig(kind="eri", k_max=k_max))


def grad_acquisition(model: IntensityModel, x, cfg: AcquisitionConfig, n_obs: int) -> np.ndarray:
    """Gradient of the minimization objective with respect to x.

    Chain rule through the network: (d objective / d rate) * (d rate / d x).
    Raises RectifiedRegionError where the rate reaches q * n_obs; frozen
    points have no gradient.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.min() < 0.0 or x.max() > 1.0:
        raise DomainError("x must lie in the unit hypercube")
    rate, grad = _rate_and_objective_grad(model, x, cfg, n_obs)
    threshold = cfg.q * n_obs
    if rate >= threshold:
        raise RectifiedRegionError(rate, threshold)
    return grad


def _rate_and_objective_grad(model: IntensityModel, x: np.ndarray, cfg: AcquisitionConfig,
                             n_obs: int):
    rate, d_rate = model.rate_and_input_grad(x)
    _, slopes = objective_and_drate(np.array([rate]), n_obs, cfg)
    return rate, slopes[0] * d_rate


def _projected_gradient(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    pg = g.copy()
    pg[(x <= 0.0) & (g > 0.0)] = 0.0
    pg[(x >= 1.0) & (g < 0.0)] = 0.0
    return pg


def _two_loop_direction(g: np.ndarray, s_hist: list, y_hist: list) -> np.ndarray:
    q = g.copy()
    alphas = []
    for s, y in zip(reversed(s_hist), reversed(y_hist)):
        rho = 1.0 / float(np.dot(y, s))
        a = rho * float(np.dot(s, q))
        q -= a * y
        alphas.append((a, rho))
    if s_hist:
        s, y = s_hist[-1], y_hist[-1]
        q *= float(np.dot(s, y)) / float(np.dot(y, y))
    for (s, y), (a, rho) in zip(zip(s_hist, y_hist), reversed(alphas)):
        b = rho * float(np.dot(y, q))
        q += (a - b) * s
    return -q


def _descend(model: IntensityModel, x0: np.ndarray, cfg: AcquisitionConfig,
             n_obs: int, threshold: float):
    """Projected L-BFGS from one start; returns (x, value, frozen).

    The rectification test runs on each accepted iterate: a start or iterate
    whose rate reaches the threshold is frozen where it stands and reports no
    objective value (the caller substitutes its eps draw).
    """

    def obj(x):
        rates = model.rates(x[None, :])
        values, _ = objective_and_drate(rates, n_obs, cfg, drate=False)
        return float(values[0]), float(rates[0])

    def obj_grad(x):
        return _rate_and_objective_grad(model, x, cfg, n_obs)[1]

    x = np.clip(x0, 0.0, 1.0)
    f, rate = obj(x)
    if rate >= threshold:
        return x, None, True
    g = obj_grad(x)
    s_hist: list = []
    y_hist: list = []

    for _ in range(_LBFGS_MAX_ITER):
        if np.abs(_projected_gradient(x, g)).max() < _LBFGS_GTOL:
            break
        p = _two_loop_direction(g, s_hist, y_hist)
        if float(np.dot(p, g)) >= 0.0:
            p = -g
        alpha = 1.0
        moved = False
        for _ in range(_MAX_BACKTRACKS):
            x_new = np.clip(x + alpha * p, 0.0, 1.0)
            step = x_new - x
            if not step.any():
                break
            f_new, rate_new = obj(x_new)
            if f_new <= f + _ARMIJO_C1 * float(np.dot(g, step)):
                moved = True
                break
            alpha *= 0.5
        if not moved:
            break
        if rate_new >= threshold:
            return x_new, None, True
        g_new = obj_grad(x_new)
        s = x_new - x
        y = g_new - g
        if float(np.dot(s, y)) > 1e-10:
            s_hist.append(s)
            y_hist.append(y)
            if len(s_hist) > _LBFGS_MEMORY:
                s_hist.pop(0)
                y_hist.pop(0)
        x, f, g = x_new, f_new, g_new
    return x, f, False


def _propose_continuous(model: IntensityModel, dim: int, obs_n: int,
                        cfg: AcquisitionConfig) -> np.ndarray:
    threshold = cfg.q * obs_n
    finals = np.empty((_RESTARTS, dim))
    values = np.empty(_RESTARTS)
    for i in range(_RESTARTS):
        # Substream per restart: serial and parallel schedules agree bitwise.
        sub = np.random.default_rng([cfg.rng_seed, i])
        x0 = sub.uniform(size=dim)
        eps = sub.uniform()
        x_fin, val, frozen = _descend(model, x0, cfg, obs_n, threshold)
        finals[i] = x_fin
        values[i] = eps if frozen else val
    return finals[int(np.argmin(values))].copy()


def _propose_discrete(model: IntensityModel, space: DiscreteSpace, obs_n: int,
                      cfg: AcquisitionConfig) -> np.ndarray:
    threshold = cfg.q * obs_n
    rng = np.random.default_rng(cfg.rng_seed)
    idx = rng.integers(0, space.n_candidates, size=_DISCRETE_SAMPLES)
    eps = rng.uniform(size=_DISCRETE_SAMPLES)
    pts = space.candidates[idx]
    rates = model.rates(pts)
    raw, _ = objective_and_drate(rates, obs_n, cfg, drate=False)
    vals = np.where(rates < threshold, raw, eps)
    return pts[int(np.argmin(vals))].copy()


def propose_next(model: IntensityModel, space, obs: ObservationSet,
                 cfg: AcquisitionConfig) -> np.ndarray:
    """Next query point minimizing the (rectified) acquisition objective.

    Continuous spaces run _RESTARTS independent descents from uniform
    starts; rectified descents contribute their frozen location with their
    eps draw as value.  Discrete spaces take the argmin over
    _DISCRETE_SAMPLES uniformly drawn candidates.  Ties (all rectified
    with equal eps) fall to the lowest restart/candidate index.  eri with
    k_max > len(obs) raises DomainError.
    """
    n_obs = len(obs)
    if n_obs < 1:
        raise PreconditionError("need at least one observation")
    if isinstance(space, DiscreteSpace):
        return _propose_discrete(model, space, n_obs, cfg)
    if isinstance(space, ContinuousSpace):
        return _propose_continuous(model, space.dim, n_obs, cfg)
    raise DomainError(f"unsupported search space {type(space).__name__}")
