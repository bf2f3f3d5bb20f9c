"""Golden-trace guard: pinned hashes of short runs and fits.

The hashes were recorded from the original per-layer implementation.  Any
change to the order of floating-point operations in the surrogate, the
acquisition values or the loop shows up here as a different digest; a change
that is meant to alter bits must re-pin them and say so.

Re-pinned since: hartmann6-eri, when ERI and its rate derivative moved from
log-space sums to the closed form over running pmf sums (the values agree to
about 1e-12 relative, the first proposal to about 1e-13).  Then both runs and
the truncated and plain-minibatch fits, when ADAM folded its bias corrections
into two scalars and the truncated partial sums came from one shifted sum
(each agrees with the old form to about 1e-15 relative per step).  The
restored fit pins its start parameters, and the table run's queries did not
move, so those two digests stayed.
"""

import hashlib
import logging
import math

import numpy as np
import pytest

from popbo.acquisition import AcquisitionConfig
from popbo.benchmarks import get_benchmark
from popbo.engine import BoRunConfig, run
from popbo.harness import ExperimentConfig, run_experiment, trace_path, write_trace_csv
from popbo.surrogate import (
    IntensityModel,
    ObservationSet,
    TrainConfig,
    fit,
    pack_parameters,
)

GOLDEN_RUNS = {
    "branin-rlcb": "52a401902421401732bf57160e3d206c00febd5c2ce04876a57da75ac4914a14",
    "hartmann6-eri": "e6efb55176beb8dc63a043707ff6921bc94a1078c62a4ec64589bbe1b8d059cf",
}
GOLDEN_TABLE = "43a209e2888801a8c2e8f4813ff436e349562304d9719cf5db997b6fd139c5ed"
GOLDEN_FITS = {
    "restored": "d081b50830be5635e24fef7b93f6103f70ac67b01346daacf8397bd3a9a84ff1",
    "truncated": "6618e082d623885d7289517f569c0542a6cfff195f1f90eca5fd324b44f912c9",
    "plain-minibatch": "18dc68e8aa93f5ef033a1057f6fdac3ecf4a35bc143e72b4eacc2cd68bb43288",
}


def science_digest(csv_path) -> str:
    """sha256 of a trace CSV without its three wall-clock columns."""
    lines = csv_path.read_text(encoding="utf-8").strip().split("\n")
    kept = [",".join(line.split(",")[:-3]) for line in lines]
    return hashlib.sha256("\n".join(kept).encode("utf-8")).hexdigest()


def params_digest(model) -> str:
    flat = np.ascontiguousarray(pack_parameters(model), dtype="<f8")
    return hashlib.sha256(flat.tobytes()).hexdigest()


@pytest.mark.parametrize("name,bench,kind", [
    ("branin-rlcb", "branin", "r-lcb"),
    ("hartmann6-eri", "hartmann6", "eri"),
])
def test_run_trace_is_pinned(tmp_path, name, bench, kind):
    cfg = BoRunConfig(n_init=12, n_iters=6, seed=0,
                      acquisition=AcquisitionConfig(kind=kind))
    trace = run(get_benchmark(bench), cfg)
    digest = science_digest(write_trace_csv(trace, tmp_path / "trace.csv"))
    assert digest == GOLDEN_RUNS[name]


def write_grid_table(path):
    """5 x 5 table of a shifted bowl with ripples; no ties in value."""
    lines = ["a,b,value"]
    for i in range(5):
        for j in range(5):
            u, v = i / 4.0, j / 4.0
            y = (u - 0.3) ** 2 + 2.0 * (v - 0.6) ** 2 + 0.05 * math.sin(7.0 * u + 3.0 * v)
            lines.append(f"{i},{j},{y!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_truncated_table_trace_is_pinned(tmp_path):
    table = write_grid_table(tmp_path / "grid.csv")
    cfg = ExperimentConfig(benchmark=str(table), method="popbo-rlcb", seeds=(0,),
                           n_init=3, n_iters=8, out_dir=str(tmp_path / "out"))
    run_experiment(cfg)
    digest = science_digest(trace_path(cfg.out_dir, cfg.method, "grid", 0))
    assert digest == GOLDEN_TABLE


def fit_case(name):
    """(model, obs, cfg, rng) for one pinned fit."""
    seed, n, cfg = {
        # Large constant steps on tiny batches overshoot: the start is restored.
        "restored": (4, 5, TrainConfig(steps=20, initial_lr=0.5, batch_size=3)),
        "truncated": (0, 8, TrainConfig(steps=40, decay_every=15)),
        "plain-minibatch": (1, 15, TrainConfig(steps=40, batch_size=8, decay_every=15)),
    }[name]
    rng = np.random.default_rng(seed)
    obs = ObservationSet.from_values(rng.uniform(size=(n, 2)), rng.normal(size=n))
    model = IntensityModel.create(2, hidden=(16, 16), rng_seed=seed)
    return model, obs, cfg, np.random.default_rng(seed)


@pytest.mark.parametrize("name", sorted(GOLDEN_FITS))
def test_fit_parameters_are_pinned(name):
    model, obs, cfg, rng = fit_case(name)
    start = pack_parameters(model).copy()
    fit(model, obs, cfg, rng=rng)
    restored = np.array_equal(pack_parameters(model), start)
    assert restored == (name == "restored")
    assert params_digest(model) == GOLDEN_FITS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_FITS))
def test_restore_is_logged(name, caplog):
    model, obs, cfg, rng = fit_case(name)
    with caplog.at_level(logging.DEBUG, logger="popbo.surrogate"):
        fit(model, obs, cfg, rng=rng)
    records = [r for r in caplog.records if r.name == "popbo.surrogate"]
    if name != "restored":
        assert records == []
        return
    [record] = records
    assert record.levelno == logging.DEBUG
    nll_start, nll_end = record.args
    assert math.isfinite(nll_start) and not nll_end <= nll_start
