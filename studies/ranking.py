"""One-dimensional ranking study: does the fitted surrogate order a grid right?

For each noise level the surrogate trains on noisy observations of the 1-d
Forrester function and predicts rates on an evenly spaced grid; the score is
the Spearman correlation of those rates with the true (noiseless) grid
ranking.  CRITERION 7 is this study's mean over seeds 0-9 at sigma 0 and
0.45; the full run prints those per-seed correlations and their means as
one JSON object:

    python studies/ranking.py [--out FILE]
    python studies/ranking.py --smoke     # tiny network, two sigmas, one JSON line

This checkout's `src/` is put on the path when run as a script.  Only the
standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from popbo.benchmarks import get_benchmark
from popbo.errors import DomainError
from popbo.surrogate import (DEFAULT_HIDDEN, IntensityModel, ObservationSet, TrainConfig,
                             compute_ranks, fit)

SIGMAS = (0.0, 0.15, 0.3, 0.45)
# CRITERION 7's seeds and noise levels.
CRITERION_SEEDS = range(10)
CRITERION_SIGMAS = (0.0, 0.45)
# The in-loop ADAM schedule assumes a warm-started model refit every
# iteration; a one-shot ranking study needs an actually converged fit.
STUDY_TRAIN_CONFIG = TrainConfig(steps=2000, initial_lr=0.05, decay_every=700)
SMOKE_TRAIN_CONFIG = TrainConfig(steps=40, initial_lr=0.05, decay_every=20)


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


def forrester_ranking_study(n_train: int = 15, n_grid: int = 100, sigmas=SIGMAS,
                            seed: int = 0, train_cfg: TrainConfig | None = None,
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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", type=Path, help="also write the JSON here")
    p.add_argument("--smoke", action="store_true",
                   help="seed 0, an (8,) network fitted 40 steps, sigmas 0 and 0.45")
    args = p.parse_args(argv)
    if args.smoke:
        out = forrester_ranking_study(n_train=8, n_grid=20, sigmas=(0.0, 0.45),
                                      train_cfg=SMOKE_TRAIN_CONFIG, hidden=(8,))
        report = {"smoke": True, "spearman": out}
    else:
        per_seed = [forrester_ranking_study(sigmas=CRITERION_SIGMAS, seed=s)
                    for s in CRITERION_SEEDS]
        report = {"mean": {s: float(np.mean([r[s] for r in per_seed])) for s in CRITERION_SIGMAS},
                  "spearman": {s: [r[s] for r in per_seed] for s in CRITERION_SIGMAS}}
    text = json.dumps(report)
    print(text)
    if args.out:
        args.out.write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
