"""Benchmark objectives with optional Gaussian observation noise.

Continuous objectives are standard closed forms (Forrester, Branin,
Hartmann-6, Rosenbrock-6) on their published raw-coordinate boxes; the engine
works in normalized unit-cube coordinates and de-normalization happens here.
A generic tabular adapter turns a CSV of configuration rows into a discrete
search space with exact lookups.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DomainError, InputError
from .space import ContinuousSpace, DiscreteSpace
from .surrogate import (
    DEFAULT_HIDDEN,
    IntensityModel,
    ObservationSet,
    TrainConfig,
    compute_ranks,
    fit,
)

__all__ = [
    "BenchmarkFunction",
    "TabularBenchmark",
    "get_benchmark",
    "forrester_ranking_study",
    "BENCHMARK_NAMES",
    "forrester",
    "branin",
    "hartmann6",
    "rosenbrock",
]

# Minima verified against the closed forms with local refinement.
FORRESTER_MIN = -6.0207400557670825  # on [0, 0.8], at x ~ 0.757249
BRANIN_MIN = 0.39788735772973816
HARTMANN6_MIN = -3.3223680114155147
ROSENBROCK_MIN = 0.0


def forrester(x) -> float:
    """(6x - 2)^2 * sin(12x - 4) on a 1-d point."""
    x = float(np.asarray(x).reshape(-1)[0])
    return (6.0 * x - 2.0) ** 2 * math.sin(12.0 * x - 4.0)


def branin(x) -> float:
    x1, x2 = np.asarray(x, dtype=float).reshape(2)
    b = 5.1 / (4.0 * math.pi ** 2)
    c = 5.0 / math.pi
    t = 1.0 / (8.0 * math.pi)
    return (x2 - b * x1 ** 2 + c * x1 - 6.0) ** 2 \
        + 10.0 * (1.0 - t) * math.cos(x1) + 10.0


_HARTMANN6_ALPHA = np.array([1.0, 1.2, 3.0, 3.2])
_HARTMANN6_A = np.array([
    [10.0, 3.0, 17.0, 3.5, 1.7, 8.0],
    [0.05, 10.0, 17.0, 0.1, 8.0, 14.0],
    [3.0, 3.5, 1.7, 10.0, 17.0, 8.0],
    [17.0, 8.0, 0.05, 10.0, 0.1, 14.0],
])
_HARTMANN6_P = 1e-4 * np.array([
    [1312.0, 1696.0, 5569.0, 124.0, 8283.0, 5886.0],
    [2329.0, 4135.0, 8307.0, 3736.0, 1004.0, 9991.0],
    [2348.0, 1451.0, 3522.0, 2883.0, 3047.0, 6650.0],
    [4047.0, 8828.0, 8732.0, 5743.0, 1091.0, 381.0],
])


def hartmann6(x) -> float:
    x = np.asarray(x, dtype=float).reshape(6)
    inner = np.sum(_HARTMANN6_A * (x - _HARTMANN6_P) ** 2, axis=1)
    return float(-np.sum(_HARTMANN6_ALPHA * np.exp(-inner)))


def rosenbrock(x) -> float:
    x = np.asarray(x, dtype=float).reshape(-1)
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


@dataclass(frozen=True)
class BenchmarkFunction:
    """A continuous objective on a raw-coordinate box.

    Attributes:
        name: registry label.
        dim: dimensionality.
        bounds: (dim, 2) raw lower/upper bounds.
        fn: callable on raw coordinates.
        optimum: known global minimum value, or None.
        noise_sigma: standard deviation of additive Gaussian observation noise.
    """

    name: str
    dim: int
    bounds: np.ndarray
    fn: Callable = field(repr=False)
    optimum: float | None = None
    noise_sigma: float = 0.0

    def __post_init__(self):
        bounds = np.asarray(self.bounds, dtype=float)
        if bounds.shape != (self.dim, 2):
            raise InputError(f"bounds must have shape ({self.dim}, 2), got {bounds.shape}")
        if not np.isfinite(bounds).all() or not (bounds[:, 0] < bounds[:, 1]).all():
            raise InputError("bounds must be finite with lower < upper")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise InputError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma!r}")
        object.__setattr__(self, "bounds", bounds)

    @property
    def space(self) -> ContinuousSpace:
        return ContinuousSpace(self.dim)

    def denormalize(self, x_norm: np.ndarray) -> np.ndarray:
        x_norm = np.asarray(x_norm, dtype=float)
        return self.bounds[:, 0] + x_norm * (self.bounds[:, 1] - self.bounds[:, 0])

    def trace_point(self, x_norm: np.ndarray) -> np.ndarray:
        """Coordinates to record in traces: the raw (de-normalized) point."""
        return self.denormalize(x_norm)

    def evaluate(self, x_normalized, rng: np.random.Generator | None = None) -> float:
        """Observe the objective at a normalized point, with noise when configured.

        The noise draw comes from the supplied run RNG and is taken only when
        noise_sigma > 0, so noiseless runs consume no randomness here.
        """
        x = np.asarray(x_normalized, dtype=float).reshape(-1)
        if x.size != self.dim:
            raise DomainError(f"expected {self.dim} coordinates, got {x.size}")
        if not np.isfinite(x).all() or x.min() < 0.0 or x.max() > 1.0:
            raise DomainError("x must lie in the unit hypercube")
        y = float(self.fn(self.denormalize(x)))
        if self.noise_sigma > 0.0:
            if rng is None:
                raise InputError("rng required when noise_sigma > 0")
            y += rng.normal(0.0, self.noise_sigma)
        return y


# name -> (raw box, objective, known minimum, default initial design size).
_BENCHMARKS = {
    "forrester": ([[0.0, 0.8]], forrester, FORRESTER_MIN, 12),
    "branin": ([[-5.0, 10.0], [0.0, 15.0]], branin, BRANIN_MIN, 12),
    "hartmann6": ([[0.0, 1.0]] * 6, hartmann6, HARTMANN6_MIN, 12),
    "rosenbrock6": ([[-5.0, 10.0]] * 6, rosenbrock, ROSENBROCK_MIN, 30),
}
BENCHMARK_NAMES = tuple(_BENCHMARKS)


def get_benchmark(name: str, noise_sigma: float = 0.0) -> BenchmarkFunction:
    """Registry of the built-in objectives."""
    key = str(name).lower()
    if key not in _BENCHMARKS:
        raise DomainError(f"unknown benchmark {name!r}")
    bounds, fn, optimum, _ = _BENCHMARKS[key]
    return BenchmarkFunction(key, len(bounds), bounds, fn, optimum, noise_sigma)


def default_n_init(name: str) -> int:
    """Registry default initial design size; 12 for any other name (tables)."""
    entry = _BENCHMARKS.get(str(name).lower())
    return entry[3] if entry else 12


def _column_levels(entries: list) -> dict:
    """Map raw column entries to normalized coordinates in [0, 1]."""
    try:
        numeric = sorted({float(e) for e in entries})
        keys = [repr(v) for v in numeric]
        raw_to_key = {e: repr(float(e)) for e in set(entries)}
    except ValueError:
        keys = sorted(set(entries))
        raw_to_key = {e: e for e in set(entries)}
    n = len(keys)
    coord = {k: (i / (n - 1) if n > 1 else 0.0) for i, k in enumerate(keys)}
    return {e: coord[raw_to_key[e]] for e in raw_to_key}


@dataclass
class TabularBenchmark:
    """Finite configuration table with exact value lookup.

    Each coordinate column becomes one normalized dimension: its sorted
    distinct levels map to evenly spaced points in [0, 1] (a single level maps
    to 0).  Evaluating a listed configuration returns the stored value
    bitwise; anything else is a domain error.  A table has no noise model.
    """

    name: str
    column_names: list
    candidates: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        cand = np.asarray(self.candidates, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if cand.ndim != 2 or cand.shape[0] == 0 or cand.shape[0] != vals.shape[0]:
            raise InputError("candidates and values must be non-empty and aligned")
        if not np.isfinite(vals).all():
            raise InputError("values contain non-finite entries")
        self.candidates = cand
        self.values = vals
        self._lookup = {}
        for row, v in zip(cand, vals):
            key = tuple(row.tolist())
            if key in self._lookup:
                raise InputError(f"duplicate configuration {key}")
            self._lookup[key] = float(v)

    @classmethod
    def from_csv(cls, path) -> "TabularBenchmark":
        """Load a UTF-8, comma-separated table with a `value` column."""
        path = Path(path)
        with path.open(newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise InputError(f"{path}: empty file") from None
            if "value" not in header:
                raise InputError(f"{path}: missing `value` column")
            value_idx = header.index("value")
            coord_idx = [i for i in range(len(header)) if i != value_idx]
            if not coord_idx:
                raise InputError(f"{path}: no coordinate columns")
            raw_rows, raw_values = [], []
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise InputError(f"{path}: ragged row {row!r}")
                raw_rows.append([row[i] for i in coord_idx])
                try:
                    raw_values.append(float(row[value_idx]))
                except ValueError:
                    raise InputError(f"{path}: non-numeric value {row[value_idx]!r}") from None
        if not raw_rows:
            raise InputError(f"{path}: no data rows")
        maps = [_column_levels([r[j] for r in raw_rows]) for j in range(len(coord_idx))]
        cand = np.array([[maps[j][r[j]] for j in range(len(coord_idx))] for r in raw_rows])
        return cls(name=path.stem, column_names=[header[i] for i in coord_idx],
                   candidates=cand, values=np.asarray(raw_values))

    @property
    def dim(self) -> int:
        return self.candidates.shape[1]

    @property
    def optimum(self) -> float:
        return float(self.values.min())

    @property
    def space(self) -> DiscreteSpace:
        return DiscreteSpace(self.candidates)

    def trace_point(self, x_norm: np.ndarray) -> np.ndarray:
        return np.asarray(x_norm, dtype=float).reshape(-1)

    def evaluate(self, x_normalized, rng: np.random.Generator | None = None) -> float:
        key = tuple(np.asarray(x_normalized, dtype=float).reshape(-1).tolist())
        try:
            return self._lookup[key]
        except KeyError:
            raise DomainError(f"configuration {key} is not in the table") from None


# The in-loop ADAM schedule assumes a warm-started model refit every
# iteration; a one-shot ranking study needs an actually converged fit.
STUDY_TRAIN_CONFIG = TrainConfig(steps=2000, initial_lr=0.05, decay_every=700)


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks with ties given their mean rank, as scipy's rankdata."""
    s = np.sort(v)
    return (np.searchsorted(s, v, "left") + np.searchsorted(s, v, "right") + 1) / 2


def _spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation: Pearson correlation of the average ranks.

    The [1, 0] entry is the one scipy.stats.spearmanr reports; with the same
    ranks it is the same arithmetic.
    """
    return float(np.corrcoef(_average_ranks(a), _average_ranks(b))[1, 0])


def forrester_ranking_study(n_train: int = 15, n_grid: int = 100,
                            sigmas=(0.0, 0.15, 0.3, 0.45), seed: int = 0,
                            train_cfg: TrainConfig | None = None,
                            hidden=DEFAULT_HIDDEN) -> dict:
    """Rank-correlation of the surrogate's predictions on a noiseless grid.

    For each noise level the surrogate trains on n_train noisy observations
    of the 1-d objective, predicts rates on n_grid evenly spaced grid points,
    and is scored by Spearman correlation against the true (noiseless) grid
    ranking.  Noise perturbs the training observations only; the grid is
    ground truth.  A constant prediction scores 0 (no ordering information).

    Returns:
        dict mapping each sigma to its Spearman correlation.
    """
    bench = get_benchmark("forrester")
    cfg = train_cfg if train_cfg is not None else STUDY_TRAIN_CONFIG
    grid = np.linspace(0.0, 1.0, n_grid)[:, None]
    truth = np.array([bench.fn(bench.denormalize(g)) for g in grid])
    true_ranks = compute_ranks(truth)

    report = {}
    for i, sigma in enumerate(sigmas):
        if sigma < 0:
            raise DomainError(f"sigma must be >= 0, got {sigma!r}")
        rng = np.random.default_rng([seed, i])
        x_train = rng.uniform(size=(n_train, 1))
        y_train = np.array([bench.fn(bench.denormalize(x)) for x in x_train])
        if sigma > 0:
            y_train = y_train + rng.normal(0.0, sigma, size=n_train)
        obs = ObservationSet.from_values(x_train, y_train)
        model = IntensityModel.create(1, hidden, rng_seed=int(rng.integers(2 ** 63)))
        fit(model, obs, cfg, rng=np.random.default_rng(int(rng.integers(2 ** 63))))
        preds = model.rates(grid)
        if np.ptp(preds) == 0.0:
            rho = 0.0
        else:
            rho = _spearman(preds, true_ranks)
        report[float(sigma)] = rho
    return report
