"""The optimization loop: initialize, rank, fit, propose, observe, record.

PoPBO and the random-search baseline are the same loop with different
proposal steps.

RNG discipline keeps the query sequence a function of (config, seed) and of
the observation *ranks* only: per iteration the master stream hands out a
model seed, a fit seed, and a proposal seed in a fixed order, and noise is
drawn only when the objective is noisy.  Applying a strictly increasing
transform to all observed values therefore leaves every proposal unchanged.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .acquisition import AcquisitionConfig, propose_next
from .errors import EvaluationFailedError, InputError, PopboError, PreconditionError, is_count
from .surrogate import (DEFAULT_HIDDEN, IntensityModel, ObservationSet, TrainConfig,
                        compute_ranks, fit)

__all__ = ["BoRunConfig", "TraceRecord", "RegretTrace", "run", "random_search_baseline",
           "incumbent"]

_SEED_BOUND = 2 ** 63
# ADAM steps of every fit after the first, which continues the previous
# fit's moments from a trained start.
_WARM_STEPS = 60


@dataclass(frozen=True)
class BoRunConfig:
    """One optimization run.

    hidden widths are configurable only so tests can run tiny networks; the
    production architecture is the default.  Settings are checked here,
    before any evaluation is spent: each count (n_init, n_iters, each hidden
    width) and the seed must be an integer, and ERI's k_max may not exceed
    n_init, since the first proposal ranks against n_init observations.
    """

    n_init: int = 12
    n_iters: int = 80
    seed: int = 0
    surrogate: TrainConfig = field(default_factory=TrainConfig)
    acquisition: AcquisitionConfig = field(default_factory=AcquisitionConfig)
    hidden: tuple = DEFAULT_HIDDEN

    def __post_init__(self):
        if not is_count(self.n_init, 2):
            raise InputError(f"n_init must be an integer >= 2, got {self.n_init!r}")
        if not is_count(self.n_iters, 0):
            raise InputError(f"n_iters must be an integer >= 0, got {self.n_iters!r}")
        if not is_count(self.seed, 0):
            raise InputError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not all(is_count(width, 1) for width in self.hidden):
            raise InputError(f"hidden widths must be integers >= 1, got {self.hidden!r}")
        if self.acquisition.kind == "eri" and self.acquisition.k_max > self.n_init:
            raise InputError(f"k_max={self.acquisition.k_max} exceeds n_init={self.n_init}")


@dataclass(frozen=True)
class TraceRecord:
    """One evaluated query.

    iteration 0 covers the initial design block; iterations 1..n_iters are
    the model-driven queries.  regret is NaN when no optimum is known.
    """

    iteration: int
    point: np.ndarray
    value: float
    incumbent: float
    regret: float
    fit_seconds: float
    propose_seconds: float
    eval_seconds: float


@dataclass
class RegretTrace:
    """Per-query records of one run, in evaluation order."""

    benchmark: str
    dim: int
    optimum: float | None
    records: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def values(self) -> np.ndarray:
        return np.array([r.value for r in self.records])

    @property
    def points(self) -> np.ndarray:
        return np.array([r.point for r in self.records])

    @property
    def final_regret(self) -> float:
        if not self.records:
            raise PreconditionError("empty trace")
        return self.records[-1].regret


def incumbent(trace: RegretTrace):
    """Best (point, value) in the trace; ties go to the earliest record."""
    if not trace.records:
        raise PreconditionError("empty trace")
    best = trace.records[0]
    for rec in trace.records[1:]:
        if rec.value < best.value:
            best = rec
    return best.point, best.value


def _observe(objective, x_norm, rng, trace):
    try:
        y = float(objective.evaluate(x_norm, rng))
    except Exception as exc:  # noqa: BLE001 - converted to a typed abort
        raise EvaluationFailedError(trace, exc) from exc
    if not math.isfinite(y):
        raise EvaluationFailedError(trace, ValueError(f"non-finite observation {y!r}"))
    return y


def _loop(objective, seed: int, n_init: int, n_iters: int, step) -> RegretTrace:
    """The run every method shares: a uniform block of n_init, then n_iters steps.

    step(rng, points, values) returns (x_next, fit_seconds, propose_seconds)
    from the run's master stream, the (N, d) points and the N values so far.
    A failed evaluation raises EvaluationFailedError, and any PopboError from
    step (e.g. a diverged fit) is re-raised; both carry the trace so far.
    """
    space = objective.space
    optimum = objective.optimum
    trace = RegretTrace(getattr(objective, "name", "objective"), space.dim, optimum)
    rng = np.random.default_rng(seed)
    values = []
    best = math.inf

    def observe(iteration, x_norm, fit_s, propose_s):
        nonlocal best
        t0 = time.perf_counter()
        y = _observe(objective, x_norm, rng, trace)
        eval_s = time.perf_counter() - t0
        values.append(y)
        best = min(best, y)
        trace.records.append(TraceRecord(
            iteration=iteration,
            point=np.asarray(objective.trace_point(x_norm), dtype=float),
            value=y,
            incumbent=best,
            regret=best - optimum if optimum is not None else math.nan,
            fit_seconds=fit_s,
            propose_seconds=propose_s,
            eval_seconds=eval_s,
        ))

    points = space.sample(rng, n_init)
    for x in points:
        observe(0, x, 0.0, 0.0)
    for t in range(1, n_iters + 1):
        try:
            x_next, fit_s, propose_s = step(rng, points, values)
        except PopboError as exc:
            exc.trace = trace
            raise
        points = np.vstack([points, x_next[None, :]])
        observe(t, x_next, fit_s, propose_s)
    return trace


def run(objective, cfg: BoRunConfig) -> RegretTrace:
    """Execute the full loop and return the trace.

    Each iteration recomputes ranks of everything observed so far, trains the
    intensity model, proposes the acquisition minimizer, and evaluates it.
    The model is created at the first iteration and fitted for
    cfg.surrogate.steps ADAM steps.  Every later fit is warm: it starts from
    the last parameters, continues their ADAM moments (see fit) and runs
    min(cfg.surrogate.steps, _WARM_STEPS) steps, 60 of the default 100.
    Wall-clock seconds are recorded split into fit / propose / evaluate.
    """
    space = objective.space
    warm_cfg = replace(cfg.surrogate, steps=min(cfg.surrogate.steps, _WARM_STEPS))
    model = None

    def step(rng, points, values):
        nonlocal model
        # Fixed draw order per iteration, independent of observed values; the
        # model seed is drawn every time although only the first one is used.
        model_seed = int(rng.integers(_SEED_BOUND))
        fit_seed = int(rng.integers(_SEED_BOUND))
        propose_seed = int(rng.integers(_SEED_BOUND))

        obs = ObservationSet(points, np.asarray(values), compute_ranks(values))
        t0 = time.perf_counter()
        if model is None:
            model = IntensityModel.create(space.dim, cfg.hidden, rng_seed=model_seed)
            train = cfg.surrogate
        else:
            train = warm_cfg
        fit(model, obs, train, rng=np.random.default_rng(fit_seed))
        t1 = time.perf_counter()
        x_next = propose_next(model, space, obs, replace(cfg.acquisition, rng_seed=propose_seed))
        return x_next, t1 - t0, time.perf_counter() - t1

    return _loop(objective, cfg.seed, cfg.n_init, cfg.n_iters, step)


def random_search_baseline(objective, budget: int, seed: int,
                           n_init: int | None = None) -> RegretTrace:
    """Uniform i.i.d. queries through the same loop as run.

    The first min(n_init, budget) draws (all budget when n_init is None) are
    the loop's initial block (one block draw, then per-point noise), so a
    PoPBO run with the same seed shares those rows bitwise; every later query
    is one more uniform draw.

    Raises:
        InputError: budget, seed or n_init is not an integer, or seed < 0 or
            n_init < 1; nothing is evaluated.
        PreconditionError: budget < 1.
        EvaluationFailedError: an evaluation raised or returned a non-finite
            value; the error carries the trace observed so far.
    """
    if not is_count(budget, -math.inf):
        raise InputError(f"budget must be an integer, got {budget!r}")
    if budget < 1:
        raise PreconditionError(f"budget must be >= 1, got {budget}")
    if not is_count(seed, 0):
        raise InputError(f"seed must be an integer >= 0, got {seed!r}")
    if not (n_init is None or is_count(n_init, 1)):
        raise InputError(f"n_init must be an integer >= 1, got {n_init!r}")
    block = budget if n_init is None else min(n_init, budget)
    space = objective.space
    return _loop(objective, seed, block, budget - block,
                 lambda rng, points, values: (space.sample(rng, 1)[0], 0.0, 0.0))
