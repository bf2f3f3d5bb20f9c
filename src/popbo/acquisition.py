"""Rank-based acquisition functions and the proposal optimizer.

Two acquisitions are defined on a candidate's predicted rate:

* lcb:  mu - beta * sqrt(mu), with mu the (truncated or plain) expected rank.
* eri:  sum_{k=0..k_max} (k_max - k) * pmf(k), the expected margin by which
  the candidate's rank beats the worst tolerable rank; maximizing it is
  implemented as minimizing its negation.

Both are rectified: wherever the predicted rate reaches q * n_obs the
acquisition value is replaced by a uniform draw eps in [0, 1], and descent
iterates entering that region are frozen in place.  The continuous-space
proposer is a multistart projected L-BFGS on the unit cube; discrete spaces
take an argmin over uniformly sampled candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError, RectifiedRegionError
from .poisson import log_factorials, log_partial_exp_sum, log_partial_exp_sum_pair, logsumexp
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


@dataclass(frozen=True)
class AcquisitionConfig:
    """Knobs of the acquisition and its optimizer.

    q defaults by kind (0.6 for r-lcb, 0.4 for eri) when left as None.
    """

    kind: str = "r-lcb"
    beta: float = 1.0
    q: float | None = None
    k_max: int = 5
    restarts: int = 10
    discrete_samples: int = 1000
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
        if self.restarts < 1 or self.discrete_samples < 1:
            raise DomainError("restarts and discrete_samples must be >= 1")


def _truncated_means(rates: np.ndarray, max_rank: int) -> np.ndarray:
    if max_rank == 0:
        return np.zeros_like(rates)
    log_den, log_num = log_partial_exp_sum_pair(rates, max_rank)
    return rates * np.exp(log_num - log_den)


def _lcb_values(rates: np.ndarray, n_obs: int, beta: float, switch: int) -> np.ndarray:
    mu = rates if n_obs >= switch else _truncated_means(rates, n_obs)
    root = np.sqrt(mu)
    return root * (root - beta)


def _eri_values(rates: np.ndarray, n_obs: int, k_max: int, switch: int) -> np.ndarray:
    """Expected ranking improvement for each rate; support {0..n_obs}."""
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


def _objective_values(rates: np.ndarray, cfg: AcquisitionConfig, n_obs: int,
                      switch: int) -> np.ndarray:
    """Minimization objective per rate, without the rectification override."""
    if cfg.kind == "r-lcb":
        return _lcb_values(rates, n_obs, cfg.beta, switch)
    return -_eri_values(rates, n_obs, cfg.k_max, switch)


def _dmean_drate(rate: float, max_rank: int) -> float:
    """Derivative of the truncated mean, using S'(m) = S(m-1)."""
    if max_rank == 0:
        return 0.0
    a = log_partial_exp_sum(rate, max_rank - 1)
    b = log_partial_exp_sum(rate, max_rank)
    c = log_partial_exp_sum(rate, max_rank - 2)
    return math.exp(a - b) + rate * (math.exp(c - b) - math.exp(2.0 * (a - b)))


def _dlcb_drate(rate: float, n_obs: int, beta: float, switch: int) -> float:
    if n_obs >= switch:
        mu, dmu = rate, 1.0
    else:
        mu = float(_truncated_means(np.asarray([rate]), n_obs)[0])
        dmu = _dmean_drate(rate, n_obs)
    if mu == 0.0:
        return 0.0
    return (1.0 - beta / (2.0 * math.sqrt(mu))) * dmu


def _deri_drate(rate: float, n_obs: int, k_max: int, switch: int) -> float:
    if k_max == 0:
        return 0.0
    if rate == 0.0:
        # U'(0) - U(0) in both regimes: (k_max - 1) - k_max.
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


def _dobjective_drate(rate: float, cfg: AcquisitionConfig, n_obs: int,
                      switch: int) -> float:
    if cfg.kind == "r-lcb":
        return _dlcb_drate(rate, n_obs, cfg.beta, switch)
    return -_deri_drate(rate, n_obs, cfg.k_max, switch)


def lcb(rate: float, n_obs: int, beta: float,
        truncation_switch_n: int = TRUNCATION_SWITCH_N) -> float:
    """Lower confidence bound sqrt(mu) * (sqrt(mu) - beta) on the expected rank."""
    if not (math.isfinite(rate) and rate >= 0):
        raise DomainError(f"rate must be finite and >= 0, got {rate!r}")
    return float(_lcb_values(np.asarray([float(rate)]), n_obs, beta,
                             truncation_switch_n)[0])


def r_lcb(rate: float, n_obs: int, cfg: AcquisitionConfig, eps: float,
          truncation_switch_n: int = TRUNCATION_SWITCH_N) -> tuple[float, bool]:
    """Rectified LCB: the LCB below the rate threshold q * n_obs, else eps.

    Args:
        rate: predicted rate, >= 0.
        n_obs: number of observed points.
        cfg: supplies q and beta.
        eps: caller-supplied uniform draw in [0, 1], passed through when the
            point is rectified (reparameterized for testability).

    Returns:
        (value, rectified flag).
    """
    if rate < cfg.q * n_obs:
        return lcb(rate, n_obs, cfg.beta, truncation_switch_n), False
    return float(eps), True


def eri(rate: float, n_obs: int, k_max: int,
        truncation_switch_n: int = TRUNCATION_SWITCH_N) -> float:
    """Expected ranking improvement over the worst tolerable rank k_max.

    This is an improvement, i.e. larger is better; the proposal optimizer
    minimizes its negation.  k_max may not exceed n_obs: ranks beyond the
    support carry no mass, so such a call is a misconfiguration.
    """
    if not (math.isfinite(rate) and rate >= 0):
        raise DomainError(f"rate must be finite and >= 0, got {rate!r}")
    if k_max < 0:
        raise DomainError(f"k_max must be >= 0, got {k_max}")
    if k_max > n_obs:
        raise DomainError(f"k_max={k_max} exceeds n_obs={n_obs}")
    return float(_eri_values(np.asarray([float(rate)]), n_obs, k_max,
                             truncation_switch_n)[0])


def grad_acquisition(model: IntensityModel, x, cfg: AcquisitionConfig, n_obs: int,
                     truncation_switch_n: int = TRUNCATION_SWITCH_N) -> np.ndarray:
    """Gradient of the minimization objective with respect to x.

    Chain rule through the network: (d objective / d rate) * (d rate / d x).
    Raises RectifiedRegionError where the rate reaches q * n_obs; frozen
    points have no gradient.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.min() < 0.0 or x.max() > 1.0:
        raise DomainError("x must lie in the unit hypercube")
    if cfg.kind == "eri" and cfg.k_max > n_obs:
        raise DomainError(f"k_max={cfg.k_max} exceeds n_obs={n_obs}")
    rate, d_rate = model.rate_and_input_grad(x)
    threshold = cfg.q * n_obs
    if rate >= threshold:
        raise RectifiedRegionError(rate, threshold)
    return _dobjective_drate(rate, cfg, n_obs, truncation_switch_n) * d_rate


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
             n_obs: int, threshold: float, switch: int):
    """Projected L-BFGS from one start; returns (x, value, frozen).

    The rectification test runs on each accepted iterate: a start or iterate
    whose rate reaches the threshold is frozen where it stands and reports no
    objective value (the caller substitutes its eps draw).
    """

    def obj(x):
        rate = float(model.rates(x[None, :])[0])
        return float(_objective_values(np.asarray([rate]), cfg, n_obs, switch)[0]), rate

    def obj_grad(x):
        rate, d_rate = model.rate_and_input_grad(x)
        return _dobjective_drate(rate, cfg, n_obs, switch) * d_rate

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
                        cfg: AcquisitionConfig, switch: int) -> np.ndarray:
    threshold = cfg.q * obs_n
    finals = np.empty((cfg.restarts, dim))
    values = np.empty(cfg.restarts)
    for i in range(cfg.restarts):
        # Substream per restart: serial and parallel schedules agree bitwise.
        sub = np.random.default_rng([cfg.rng_seed, i])
        x0 = sub.uniform(size=dim)
        eps = sub.uniform()
        x_fin, val, frozen = _descend(model, x0, cfg, obs_n, threshold, switch)
        finals[i] = x_fin
        values[i] = eps if frozen else val
    return finals[int(np.argmin(values))].copy()


def _propose_discrete(model: IntensityModel, space: DiscreteSpace, obs_n: int,
                      cfg: AcquisitionConfig, switch: int) -> np.ndarray:
    threshold = cfg.q * obs_n
    rng = np.random.default_rng(cfg.rng_seed)
    idx = rng.integers(0, space.n_candidates, size=cfg.discrete_samples)
    eps = rng.uniform(size=cfg.discrete_samples)
    pts = space.candidates[idx]
    rates = model.rates(pts)
    raw = _objective_values(rates, cfg, obs_n, switch)
    vals = np.where(rates < threshold, raw, eps)
    return pts[int(np.argmin(vals))].copy()


def propose_next(model: IntensityModel, space, obs: ObservationSet,
                 cfg: AcquisitionConfig,
                 truncation_switch_n: int = TRUNCATION_SWITCH_N) -> np.ndarray:
    """Next query point minimizing the (rectified) acquisition objective.

    Continuous spaces run cfg.restarts independent descents from uniform
    starts; rectified descents contribute their frozen location with their
    eps draw as value.  Discrete spaces take the argmin over
    cfg.discrete_samples uniformly drawn candidates.  Ties (all rectified
    with equal eps) fall to the lowest restart/candidate index.
    """
    n_obs = len(obs)
    if n_obs < 1:
        raise PreconditionError("need at least one observation")
    if cfg.kind == "eri" and cfg.k_max > n_obs:
        raise DomainError(f"k_max={cfg.k_max} exceeds n_obs={n_obs}")
    if isinstance(space, DiscreteSpace):
        return _propose_discrete(model, space, n_obs, cfg, truncation_switch_n)
    if isinstance(space, ContinuousSpace):
        return _propose_continuous(model, space.dim, n_obs, cfg, truncation_switch_n)
    raise DomainError(f"unsupported search space {type(space).__name__}")
