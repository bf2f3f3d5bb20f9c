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
move, so those two digests stayed.  Then all three runs, when warm fits began
to continue the previous fit's ADAM moments and to run 60 steps instead of
100: that changes the algorithm of every fit after the first, so the queries
move.  Each pinned fit is one cold fit on a fresh model, which that change
leaves bitwise alone, so the three fit digests stayed.  Then all three runs
and the truncated and plain-minibatch fits, when fit began to train a float32
copy of the parameters (forward, backward, gradient and ADAM moments) and to
zero moments that would decay into the subnormal range: every trained
parameter rounds differently, about 1e-7 relative per step.  The restored
fit still pins its start parameters, so its digest stayed.  Then the
branin-rlcb run, when the proposer began to score all restart starts, and
each block of Armijo trials, with one batched `rates` call: a batched
forward pass rounds some rates differently in the last bit from a one-row
pass, and branin's fifth query moved by about 1e-13.  The trial points and
the acceptance rule are unchanged, and the hartmann6-eri run, the table run
and the three fits kept their digests.

Then the hartmann6-eri run, when the softplus slope (the logistic sigmoid)
moved from a per-element loop over the C library's exp to numpy's
vectorized exp, computed once in the forward pass: on AVX-512 hosts the two
exps differ in the last bit for a few percent of inputs, and the slope in
`rate_and_input_grad` moves the ERI descents' gradients, so its queries
moved by up to about 4e-14.  The other two runs and the three fits kept
their digests.  Under OpenBLAS's Haswell kernel with numpy's AVX-512
dispatch disabled, all six digests equal those of the code before it.

Then both runs, when the continuous descents began to zero their direction
on the active faces of the box and to stop once an accepted step lowers the
objective by no more than 1e-5 relative: every descent takes other steps and
most end earlier, so the queries move.  Tables never descend, so the table
run and the three fits kept their digests.
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
from popbo.surrogate import IntensityModel, ObservationSet, TrainConfig, fit

GOLDEN_RUNS = {
    "branin-rlcb": "fc5a016f75d0649b60f7fe7a2a83680f36e19c82878cf3590a984b38c253f3bb",
    "hartmann6-eri": "196280e931a9cafc86d60f632f728c47388299ee13b4d3416225869d5bf4edad",
}
GOLDEN_TABLE = "045250cf9a5cc4c45b7aa78db96d511770a94850977dfe33e4715d5cbdbbcbab"
GOLDEN_FITS = {
    "restored": "d081b50830be5635e24fef7b93f6103f70ac67b01346daacf8397bd3a9a84ff1",
    "truncated": "9b50c8b036de0d9c3c8d2759913dc2bb5217bb48364c1777b44f34a27db2ea1d",
    "plain-minibatch": "cc2aa18ecc3df2d84d0a24e73cfe5100e0f89dabac152feb81eeab603212ebaf",
}


def science_digest(csv_path) -> str:
    """sha256 of a trace CSV without its three wall-clock columns."""
    lines = csv_path.read_text(encoding="utf-8").strip().split("\n")
    kept = [",".join(line.split(",")[:-3]) for line in lines]
    return hashlib.sha256("\n".join(kept).encode("utf-8")).hexdigest()


def params_digest(model) -> str:
    flat = np.ascontiguousarray(model.params, dtype="<f8")
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
    start = model.params.copy()
    fit(model, obs, cfg, rng=rng)
    restored = np.array_equal(model.params, start)
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
