"""The benchmark's span tracer runs against the current source.

perfbench/tracer.py patches popbo's functions by name at runtime and raises
KeyError when one of them is missing, so renaming or dropping a traced name
fails here rather than only in a traced benchmark run.
"""

from pathlib import Path

import numpy as np
import pytest

import popbo.acquisition as acquisition
import popbo.engine as engine
from popbo.acquisition import AcquisitionConfig, propose_next
from popbo.harness import ExperimentConfig, run_experiment
from popbo.space import ContinuousSpace
from popbo.surrogate import IntensityModel, ObservationSet

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    return tracer


@pytest.mark.parametrize("kind,n_obs", [("eri", 12), ("r-lcb", 6)])
def test_propose_next_runs_traced(tracer, kind, n_obs):
    rng = np.random.default_rng(3)
    obs = ObservationSet.from_values(rng.uniform(size=(n_obs, 2)), rng.normal(size=n_obs))
    model = IntensityModel.create(2, hidden=(8,), rng_seed=1)
    cfg = AcquisitionConfig(kind=kind, q=1.0, k_max=3)
    original = engine.propose_next

    with tracer.Tracer().installed() as spans:
        x = engine.propose_next(model, ContinuousSpace(2), obs, cfg)

    assert engine.propose_next is original
    np.testing.assert_array_equal(x, propose_next(model, ContinuousSpace(2), obs, cfg))
    metrics = spans.layer_metrics(1)
    assert spans.proposals == 1
    assert metrics["acquisition.rates_calls_per_propose"] >= acquisition._RESTARTS
    # The objective is closed form, and the truncated normalizer S(n_obs) is
    # one shifted sum: no log-sum-exp is taken in either regime.
    assert metrics["acquisition.logsumexp_calls"] == 0
    assert "poisson.logsumexp" not in {span[0] for span in spans.spans}


def test_run_experiment_loop_runs_traced(tracer, tmp_path):
    # The loop must reach fit and propose_next through engine's module
    # globals, and run through harness.run, or these counts drop to zero.
    cfg = ExperimentConfig(benchmark="branin", method="popbo-rlcb", seeds=(0,),
                           n_init=4, n_iters=2, out_dir=str(tmp_path))
    with tracer.Tracer().installed() as spans:
        written = run_experiment(cfg)

    assert len(written) == 2
    metrics = spans.layer_metrics(cfg.n_iters)
    assert metrics["surrogate.fit_calls"] == 2
    assert spans.proposals == 2
    assert "engine.run" in {span[0] for span in spans.spans}
