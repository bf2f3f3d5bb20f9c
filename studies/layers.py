"""Layer-by-layer timings of one popbo step, printed as JSON.

Times each piece a BO step spends its time in, at the two sizes of the
benchmark workloads: (N, d) = (35, 6), the largest `hartmann6-eri` step
(continuous ERI), and (11, 4), the largest `grid4-table` step (R-LCB on an
8^4-row table).  The pieces are the fit's forward and backward passes over
a full batch, one ADAM step, `_ll_terms`, the rank law's normalizer and
its slope as `rate_gradient` asks for them (`poisson.log_normalizer` at
(N, N - 1), or `surrogate._normalizer` in checkouts from before it),
`objective_and_drate` on one rate, one `_descend` (from the observed point
of lowest rate), `propose_next` and `compute_ranks`; at (35, 6) one
`rate_and_input_grad` call, beside a one-row `model.rates` call at the
same point (the descent makes one of the first per accepted iterate); and
at (11, 4) one `model.rates` call on the discrete proposer's batch of
sampled rows, with its minor page faults per call (from
`resource.getrusage`, where the platform has it), and the R-LCB values
of that batch's rates, below the truncation switch.  Each time is the
minimum and the median, in microseconds, over repeats of a timed loop; the
number of `model.rates` calls that one `_descend` and one `propose_next`
make is counted beside them (the line search scores its trials in
batches, so this shows the mechanism behind the timings), and at (35, 6)
so is their descent work: descents, L-BFGS iterations (one line search
each) and failed line searches, counted by wrapping `acquisition._descend`
and `acquisition._line_search` from here.  The environment (Python,
numpy, BLAS, `nproc`, `OPENBLAS_NUM_THREADS`) is recorded:

    OPENBLAS_NUM_THREADS=1 python studies/layers.py [--src DIR] [--out FILE]
    python studies/layers.py --smoke     # one call each, to check that it runs

`--src` selects the popbo source tree (default: this checkout's `src/`), so
two checkouts can be compared with one script.  Only the standard library
and numpy are used.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import itertools
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

try:
    import resource
except ImportError:  # not on Windows
    resource = None

ROOT = Path(__file__).resolve().parents[1]
SIZES = ((35, 6), (11, 4))
WARM_STEPS = 100
REPEATS, TARGET_S = 7, 0.05
GRID_LEVELS = 8


def environment(src: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "src": str(src),
    }


def timed(fn, smoke: bool) -> dict:
    """Min and median microseconds per call of fn over REPEATS timed loops."""
    fn()
    if smoke:
        return {"min_us": None, "p50_us": None, "calls": 1}
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    number = max(1, int(TARGET_S / once))
    per_call = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        per_call.append((time.perf_counter() - t0) / number * 1e6)
    return {"min_us": min(per_call), "p50_us": float(np.median(per_call)), "calls": number}


def minor_faults(fn, smoke: bool) -> float | None:
    """Minor page faults per call of fn, or None without resource.getrusage."""
    if resource is None:
        return None
    fn()
    calls = 1 if smoke else 50
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        fn()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls


def training_pass(surrogate, model):
    """(dtype, forward, backward, params) as fit trains them.

    Checkouts from before float32 training have no _TRAIN_DTYPE and train
    the model's own float64 parameters.
    """
    dtype = getattr(surrogate, "_TRAIN_DTYPE", None)
    if dtype is None:
        return (np.float64, model._forward, model._backward, model.params)
    params = model.params.astype(dtype)
    layers = model._views(params)
    return (dtype, lambda x: model._forward(x, layers),
            lambda caches, d, gw, gb: model._backward(caches, d, gw, gb, layers[0]), params)


def descent(acquisition, model, x0, cfg, n: int, threshold: float):
    """One `_descend` from x0 as a thunk, for this checkout's signature.

    `_descend` takes the start's objective value from its caller, which
    scores all restart starts in one batch; checkouts from before that
    scored the start inside `_descend`.
    """
    if "f" not in inspect.signature(acquisition._descend).parameters:
        return lambda: acquisition._descend(model, x0, cfg, n, threshold)
    values, _ = acquisition.objective_and_drate(model.rates(x0[None, :]), n, cfg, drate=False)
    return lambda: acquisition._descend(model, x0, float(values[0]), cfg, n, threshold)


def normalizer(poisson, surrogate, rates, n: int):
    """The fit's normalizer call (value and slope) as a thunk, for this checkout."""
    if hasattr(poisson, "log_normalizer"):
        return lambda: poisson.log_normalizer(rates, n, n - 1, 1)
    return lambda: surrogate._normalizer(rates, n, slope=True)


def rates_calls(model, fn) -> int:
    """Number of `model.rates` calls made by one call of fn."""
    calls = 0
    method = model.rates

    def counted(x):
        nonlocal calls
        calls += 1
        return method(x)

    model.rates = counted
    try:
        fn()
    finally:
        del model.rates
    return calls


def descent_work(acquisition, fn) -> dict:
    """Descents, L-BFGS iterations and failed line searches in one call of fn.

    Each iteration that moves runs one `_line_search`, which returns None
    when it fails.
    """
    counts = {"descents": 0, "iterations": 0, "failed_line_searches": 0}
    descend, line_search = acquisition._descend, acquisition._line_search

    def counted_descend(*args):
        counts["descents"] += 1
        return descend(*args)

    def counted_line_search(*args):
        counts["iterations"] += 1
        accepted = line_search(*args)
        counts["failed_line_searches"] += accepted is None
        return accepted

    acquisition._descend, acquisition._line_search = counted_descend, counted_line_search
    try:
        fn()
    finally:
        acquisition._descend, acquisition._line_search = descend, line_search
    return counts


def measure(n: int, dim: int, smoke: bool) -> dict:
    from popbo import acquisition, poisson, surrogate
    from popbo.space import ContinuousSpace, DiscreteSpace

    rng = np.random.default_rng([n, dim])
    obs = surrogate.ObservationSet.from_values(rng.uniform(size=(n, dim)), rng.normal(size=n))
    model = surrogate.IntensityModel.create(dim, rng_seed=n)
    surrogate.fit(model, obs, surrogate.TrainConfig(steps=WARM_STEPS), rng=np.random.default_rng(0))

    dtype, forward, backward, params = training_pass(surrogate, model)
    points = obs.points.astype(dtype)
    rates, caches = forward(points)
    d_rates = -surrogate.rate_gradient(rates, obs.ranks, n) / n
    adam = surrogate._Adam(params.copy(), model.adam_state)
    grad_w, grad_b = model._views(adam.grad)
    backward(caches, d_rates, grad_w, grad_b)
    norm_and_slope = normalizer(poisson, surrogate, rates, n)
    norm = norm_and_slope()[0]

    if dim == 6:
        cfg = acquisition.AcquisitionConfig(kind="eri", rng_seed=1)
        space = ContinuousSpace(dim)
    else:
        cfg = acquisition.AcquisitionConfig(kind="r-lcb", rng_seed=1)
        axis = np.linspace(0.0, 1.0, GRID_LEVELS)
        space = DiscreteSpace(np.array(list(itertools.product(*[axis] * dim))))
    # The fit flushes decaying moments once per 100 steps (a no-op before
    # float32 training); the timed steps do the same.
    flush = getattr(adam, "flush", lambda: None)

    def adam_step():
        if adam.t % 100 == 0:
            flush()
        adam.step(1e-4)

    # The descent starts from the observed point of lowest rate, which lies
    # below the rectification threshold unless every point does not.
    x0 = obs.points[int(np.argmin(model.rates(obs.points)))]
    one_rate = rates[:1].astype(float)
    descend = descent(acquisition, model, x0, cfg, n, cfg.q * n)
    propose = functools.partial(acquisition.propose_next, model, space, obs, cfg)

    report = {
        "train_dtype": np.dtype(dtype).name,
        "forward": timed(lambda: forward(points), smoke),
        "backward": timed(lambda: backward(caches, d_rates, grad_w, grad_b), smoke),
        "adam_step": timed(adam_step, smoke),
        "_ll_terms": timed(lambda: surrogate._ll_terms(rates, obs.ranks, norm), smoke),
        "normalizer_and_slope": timed(norm_and_slope, smoke),
        "objective_and_drate": timed(
            lambda: acquisition.objective_and_drate(one_rate, n, cfg), smoke),
        "_descend": timed(descend, smoke),
        "propose_next": timed(propose, smoke),
        "compute_ranks": timed(lambda: surrogate.compute_ranks(obs.values), smoke),
        "rates_calls": {"_descend": rates_calls(model, descend),
                        "propose_next": rates_calls(model, propose)},
    }
    if isinstance(space, DiscreteSpace):
        rows = space.candidates[rng.integers(0, space.n_candidates,
                                             size=acquisition._DISCRETE_SAMPLES)]
        report["rates_discrete_batch"] = {
            **timed(lambda: model.rates(rows), smoke),
            "rows": len(rows),
            "minor_faults_per_call": minor_faults(lambda: model.rates(rows), smoke),
        }
        batch_rates = model.rates(rows)
        report["objective_discrete_batch"] = timed(
            lambda: acquisition.objective_and_drate(batch_rates, n, cfg, drate=False), smoke)
    else:
        report["descent_work"] = {"_descend": descent_work(acquisition, descend),
                                  "propose_next": descent_work(acquisition, propose)}
        report["rate_and_input_grad"] = timed(lambda: model.rate_and_input_grad(x0), smoke)
        report["rates_one_row"] = timed(lambda: model.rates(x0[None, :]), smoke)
    return report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--src", type=Path, default=ROOT / "src", help="popbo source tree")
    p.add_argument("--out", type=Path, help="also write the JSON here")
    p.add_argument("--smoke", action="store_true", help="one call each, no timing loops")
    args = p.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    report = {
        "environment": environment(src),
        "sizes": {f"N={n},d={dim}": measure(n, dim, args.smoke) for n, dim in SIZES},
    }
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        args.out.write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
