"""Rank-based acquisition functions and the proposal optimizer.

Two acquisitions are defined on a candidate's predicted rate:

* lcb:  mu - beta * sqrt(mu), with mu the expected rank under the truncated
  or the plain law, as poisson.log_normalizer decides from n_obs.
* eri:  sum_{k=0..k_max} (k_max - k) * pmf(k), the expected margin by which
  the candidate's rank beats the worst tolerable rank; maximizing it is
  implemented as minimizing its negation.

objective_and_drate is the one implementation of both and of their rate
derivatives.  Both are rectified: wherever the predicted rate reaches
q * n_obs the acquisition value is replaced by a uniform draw eps in [0, 1],
and descent iterates entering that region are frozen in place.  One
proposer scores a batch of starts (uniform points, or sampled table rows)
and takes the argmin, after a projected L-BFGS descent from each live start
on continuous spaces only; a descent moves only the coordinates not held on
a face and ends at a small gradient or a small relative decrease.  It calls
the model only through `rates`, on batches of points (all starts at once,
each Armijo block at once); on continuous spaces each call keeps its
forward pass, from which the gradient at a start or an accepted trial is
read (`input_grad`), so an L-BFGS iteration costs one model pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError, RectifiedRegionError, is_count, is_real
# Unused but bound: perfbench/tracer.py patches log_factorials, log_partial_exp_sum, logsumexp.
from .poisson import (log_factorials, log_normalizer, log_partial_exp_sum, logsumexp,
                      partial_sum_log_terms)
from .space import ContinuousSpace, DiscreteSpace
from .surrogate import IntensityModel, ObservationSet

__all__ = [
    "AcquisitionConfig",
    "lcb",
    "eri",
    "grad_acquisition",
    "propose_next",
]

_KINDS = ("r-lcb", "eri")
_DEFAULT_Q = {"r-lcb": 0.6, "eri": 0.4}

_LBFGS_MEMORY = 10
_LBFGS_MAX_ITER = 50
_LBFGS_GTOL = 1e-6
_LBFGS_FTOL = 1e-5
_ARMIJO_C1 = 1e-4
_MAX_BACKTRACKS = 30
_LINE_SEARCH_BLOCK = 8
# Trial step sizes 1, 1/2, ..., 2^-29, scored as the first alone and then
# _LINE_SEARCH_BLOCK at a time: an exhausted search costs 5 `rates` calls.
_STEP_SIZES = 0.5 ** np.arange(_MAX_BACKTRACKS)
_TRIAL_BLOCKS = ((0, 1),) + tuple((lo, min(lo + _LINE_SEARCH_BLOCK, _MAX_BACKTRACKS))
                                  for lo in range(1, _MAX_BACKTRACKS, _LINE_SEARCH_BLOCK))
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
        if not (is_real(q) and 0 < q <= 1):
            raise DomainError(f"q must lie in (0, 1], got {q!r}")
        object.__setattr__(self, "q", float(q))
        if not is_count(self.k_max, 0):
            raise DomainError(f"k_max must be an integer >= 0, got {self.k_max!r}")
        if not (is_real(self.beta) and math.isfinite(self.beta) and self.beta >= 0):
            raise DomainError(f"beta must be finite and >= 0, got {self.beta!r}")


def objective_and_drate(rates, n_obs: int, cfg: AcquisitionConfig, drate: bool = True):
    """Minimization objective per rate (1-d array), and its rate derivative.

    The rank pmf is p_j = r^j / j! / Z on {0..n_obs}; poisson.log_normalizer
    gives log Z and its rate derivatives d1, d2 in either regime.  r-lcb is
    sqrt(mu) * (sqrt(mu) - beta) with the mean mu = r d1, and slope
    (1 - beta / (2 sqrt(mu))) * dmu/dr with dmu/dr = d1 + r d2 (0 where
    mu = 0).  eri is -ERI, ERI = F_0 + ... + F_{k_max-1} with
    F_j = p_0 + ... + p_j; as dp_j/dr = p_{j-1} - d1 p_j,
    dERI/dr = (1 - d1) * ERI - F_{k_max-1}.  Each p_j is one exp of a
    log-space term, so every finite rate >= 0 gives finite results.  eri's
    k_max <= n_obs is checked here and nowhere else in this module;
    rectification is the caller's.

    Returns:
        (values, slopes), slopes None unless drate.
    """
    rates = np.asarray(rates, dtype=float)
    if cfg.kind == "r-lcb":
        log_z = log_normalizer(rates, n_obs, n_obs, 2 if drate else 1)
        mu = rates * log_z[1]
        root = np.sqrt(mu)
        values = root * (root - cfg.beta)
        if not drate:
            return values, None
        dmu = log_z[1] + rates * log_z[2]
        with np.errstate(divide="ignore", invalid="ignore"):
            return values, np.where(mu > 0.0, (1.0 - cfg.beta / (2.0 * root)) * dmu, 0.0)

    if cfg.k_max > n_obs:
        raise DomainError(f"k_max={cfg.k_max} exceeds n_obs={n_obs}")
    if cfg.k_max == 0:
        zeros = np.zeros_like(rates)
        return zeros, zeros if drate else None
    log_z = log_normalizer(rates, n_obs, n_obs, 1 if drate else 0)
    pmf = np.exp(partial_sum_log_terms(rates, cfg.k_max - 1) - log_z[0][..., None])
    cdf = np.add.accumulate(pmf, axis=-1)
    eri_values = cdf.sum(axis=-1)
    if not drate:
        return -eri_values, None
    return -eri_values, cdf[..., -1] - (1.0 - log_z[1]) * eri_values


def lcb(rate: float, n_obs: int, beta: float) -> float:
    """Lower confidence bound sqrt(mu) * (sqrt(mu) - beta) on the expected rank."""
    return _objective_at(rate, n_obs, AcquisitionConfig(kind="r-lcb", beta=beta))


def _objective_at(rate: float, n_obs: int, cfg: AcquisitionConfig) -> float:
    if not (math.isfinite(rate) and rate >= 0):
        raise DomainError(f"rate must be finite and >= 0, got {rate!r}")
    values, _ = objective_and_drate(np.array([float(rate)]), n_obs, cfg, drate=False)
    return float(values[0])


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
    if not (x.min() >= 0.0 and x.max() <= 1.0):  # NaN fails too
        raise DomainError("x must lie in the unit hypercube")
    rate, d_rate = model.rate_and_input_grad(x)
    _, slopes = objective_and_drate(np.array([rate]), n_obs, cfg)
    threshold = cfg.q * n_obs
    if rate >= threshold:
        raise RectifiedRegionError(rate, threshold)
    return slopes[0] * d_rate


def _projected_gradient(x: np.ndarray, g: np.ndarray):
    """(g with its components on active faces zeroed, the mask of those faces)."""
    active = ((x <= 0.0) & (g > 0.0)) | ((x >= 1.0) & (g < 0.0))
    return np.where(active, 0.0, g), active


def _two_loop_direction(g: np.ndarray, history: list) -> np.ndarray:
    """L-BFGS direction -H g from the (s, y, rho = 1 / (y . s)) pairs, oldest first."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(history):
        a = rho * float(np.dot(s, q))
        q -= a * y
        alphas.append(a)
    if history:
        s, y, _ = history[-1]
        q *= float(np.dot(s, y)) / float(np.dot(y, y))
    for (s, y, rho), a in zip(history, reversed(alphas)):
        b = rho * float(np.dot(y, q))
        q += (a - b) * s
    return -q


def _line_search(model: IntensityModel, x: np.ndarray, f: float, g: np.ndarray,
                 p: np.ndarray, cfg: AcquisitionConfig, n_obs: int):
    """Backtracking Armijo search along p from x; (x_new, f_new, rate_new, g_new) or None.

    The trials are clip(x + alpha p) for alpha = 1, 1/2, ..., 2^-29 in that
    order, and the first with f_new <= f + c1 g . (x_new - x) is accepted.
    The search gives up after the last trial, or at the first trial whose
    clipped step is zero (no later trial is scored).  Trials are scored a
    block of _TRIAL_BLOCKS at a time: the accepted trial is the one a
    sequential search would accept, and the rows after it cost only their
    share of one batched forward pass.  Each block's pass is kept, and the
    objective gradient g_new at x_new is read from it (input_grad).
    """
    for lo, hi in _TRIAL_BLOCKS:
        trials = np.clip(x + _STEP_SIZES[lo:hi, None] * p, 0.0, 1.0)
        steps = trials - x
        moving = steps.any(axis=1)
        n = hi - lo if moving.all() else int(np.argmin(moving))
        if n == 0:
            return None
        rates, caches = model.rates(trials[:n], keep=True)
        values, slopes = objective_and_drate(rates, n_obs, cfg)
        passed = values <= f + _ARMIJO_C1 * (steps[:n] @ g)
        if passed.any():
            j = int(np.argmax(passed))
            return (trials[j], float(values[j]), float(rates[j]),
                    slopes[j] * model.input_grad(caches, j))
        if n < hi - lo:
            return None
    return None


def _descend(model: IntensityModel, x: np.ndarray, f: float, g: np.ndarray,
             cfg: AcquisitionConfig, n_obs: int, threshold: float):
    """Projected L-BFGS from x, with objective value f and gradient g there.

    Returns (x, value, frozen).  The caller scores and rectifies the start,
    so x lies in the box with a rate below the threshold.  Each iteration
    projects the gradient onto the box, stops below _LBFGS_GTOL, and runs
    the two-loop recursion on the projection; the direction is zeroed on
    the active faces (Bertsekas's projected Newton method), or replaced by
    minus the projected gradient if it does not descend.  One line search
    follows (_line_search).  An accepted iterate whose rate reaches the
    threshold is frozen where it stands and reports no objective value (the
    caller substitutes its eps draw); one that lowers f by at most
    _LBFGS_FTOL * max(|f|, |f_new|, 1) ends the descent (L-BFGS-B's factr
    test).
    """
    history: list = []

    for _ in range(_LBFGS_MAX_ITER):
        pg, active = _projected_gradient(x, g)
        if np.abs(pg).max() < _LBFGS_GTOL:
            break
        p = _two_loop_direction(pg, history)
        p[active] = 0.0
        if float(np.dot(p, pg)) >= 0.0:
            p = -pg
        accepted = _line_search(model, x, f, g, p, cfg, n_obs)
        if accepted is None:
            break
        x_new, f_new, rate_new, g_new = accepted
        if rate_new >= threshold:
            return x_new, None, True
        if f - f_new <= _LBFGS_FTOL * max(abs(f), abs(f_new), 1.0):
            return x_new, f_new, False
        s = x_new - x
        y = g_new - g
        sy = float(np.dot(s, y))
        if sy > 1e-10:
            history.append((s, y, 1.0 / sy))
            if len(history) > _LBFGS_MEMORY:
                history.pop(0)
        x, f, g = x_new, f_new, g_new
    return x, f, False


def propose_next(model: IntensityModel, space, obs: ObservationSet,
                 cfg: AcquisitionConfig) -> np.ndarray:
    """Next query point minimizing the (rectified) acquisition objective.

    One path serves both spaces.  The starts are _RESTARTS uniform points,
    each with its eps from its own substream, or _DISCRETE_SAMPLES candidates
    drawn with replacement and then their eps, from one stream.  One `rates`
    call scores every start; a start whose rate reaches q * n_obs takes its
    eps draw as value.  On continuous spaces that call keeps its forward
    pass, which gives each live start its first gradient, and each live
    start is then descended in place; one whose descent freezes also takes
    its eps.  The argmin wins; ties (all rectified with equal eps) fall to
    the lowest start.  eri with k_max > len(obs) raises DomainError.
    """
    n_obs = len(obs)
    if n_obs < 1:
        raise PreconditionError("need at least one observation")
    if isinstance(space, ContinuousSpace):
        # Substream per restart: serial and parallel schedules agree bitwise.
        subs = [np.random.default_rng([cfg.rng_seed, i]) for i in range(_RESTARTS)]
        starts = np.array([sub.uniform(size=space.dim) for sub in subs])
        eps = np.array([sub.uniform() for sub in subs])
        rates, caches = model.rates(starts, keep=True)
    elif isinstance(space, DiscreteSpace):
        rng = np.random.default_rng(cfg.rng_seed)
        starts = space.candidates[rng.integers(0, space.n_candidates, size=_DISCRETE_SAMPLES)]
        eps = rng.uniform(size=_DISCRETE_SAMPLES)
        rates, caches = model.rates(starts), None
    else:
        raise DomainError(f"unsupported search space {type(space).__name__}")
    threshold = cfg.q * n_obs
    values, slopes = objective_and_drate(rates, n_obs, cfg, drate=caches is not None)
    live = rates < threshold
    values = np.where(live, values, eps)
    if caches is not None:
        for i in np.flatnonzero(live):
            g = slopes[i] * model.input_grad(caches, i)
            starts[i], val, frozen = _descend(model, starts[i].copy(), float(values[i]), g, cfg,
                                              n_obs, threshold)
            values[i] = eps[i] if frozen else val
    return starts[int(np.argmin(values))].copy()
