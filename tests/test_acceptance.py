"""Acceptance gate: every shipped guarantee, one test and one verdict line each.

Each test exercises its guarantee at the stated tolerance and time budget and
records a CRITERION line through the shared conftest reporter.  Runs are
seeded throughout, so the measured numbers are the numbers every rerun sees.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import chi2

from conftest import record_criterion
from popbo.acquisition import AcquisitionConfig, eri, grad_acquisition, propose_next
from popbo.benchmarks import (
    BenchmarkFunction,
    branin,
    get_benchmark,
    hartmann6,
)
from popbo.engine import BoRunConfig, run
from popbo.harness import random_search_baseline, read_trace_csv, write_trace_csv
from popbo.poisson import TruncatedPoisson, correct_ranking_probability, pmf_vector, truncated_mean
from popbo.space import ContinuousSpace
from popbo.surrogate import (
    DEFAULT_HIDDEN,
    IntensityModel,
    ObservationSet,
    TrainConfig,
    fit,
    grad_log_likelihood,
    log_likelihood,
)
from ranking import forrester_ranking_study


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    return float(np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric))


def test_criterion_1_truncated_poisson_correctness():
    t0 = time.perf_counter()
    worst_mass = 0.0
    worst_mean = 0.0
    for rate in (0.1, 1.0, 5.0, 50.0):
        for max_rank in (1, 5, 20):
            probs = pmf_vector(rate, max_rank)
            worst_mass = max(worst_mass, abs(float(probs.sum()) - 1.0))
            terms = np.array([rate ** k / math.factorial(k)
                              for k in range(max_rank + 1)])
            brute = float(np.dot(np.arange(max_rank + 1), terms / terms.sum()))
            mean = truncated_mean(TruncatedPoisson(rate, max_rank))
            worst_mean = max(worst_mean, abs(mean - brute))
    elapsed = time.perf_counter() - t0
    ok = worst_mass <= 1e-12 and worst_mean <= 1e-10 and elapsed < 1.0
    line = record_criterion(
        1, ok, f"pmf mass off by {worst_mass:.2e} (<=1e-12), mean off by "
               f"{worst_mean:.2e} (<=1e-10), {elapsed:.2f}s (<1s)")
    assert ok, line


def test_criterion_2_likelihood_parameter_gradient():
    t0 = time.perf_counter()
    h = 1e-5
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        model = IntensityModel.create(2, hidden=(8, 8, 8), rng_seed=seed)
        obs = ObservationSet.from_values(rng.uniform(size=(5, 2)),
                                         rng.normal(size=5))
        grad_w, grad_b = grad_log_likelihood(model, obs)
        analytic = np.concatenate([g.ravel() for g in grad_w]
                                  + [g.ravel() for g in grad_b])
        theta = model.params.copy()
        numeric = np.empty_like(theta)
        for i in range(theta.size):
            bumped = theta.copy()
            bumped[i] = theta[i] + h
            model.params[...] = bumped
            up = log_likelihood(model, obs)
            bumped[i] = theta[i] - h
            model.params[...] = bumped
            down = log_likelihood(model, obs)
            numeric[i] = (up - down) / (2.0 * h)
        model.params[...] = theta
        worst = max(worst, relative_error(analytic, numeric))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 10.0
    line = record_criterion(
        2, ok, f"backprop vs central differences on 20 instances, worst "
               f"relative error {worst:.2e} (<1e-4), {elapsed:.1f}s (<10s)")
    assert ok, line


def test_criterion_3_eri_input_gradient():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    model = IntensityModel.create(2, hidden=(8, 8, 8), rng_seed=30)
    n_obs, k_max = 10, 5
    cfg = AcquisitionConfig(kind="eri", q=1.0, k_max=k_max)
    h = 1e-5

    def objective(x):
        rate = float(model.rates(x[None, :])[0])
        return -eri(rate, n_obs, k_max)

    def clear_of_kinks(x):
        # Keep a margin so no finite-difference probe crosses a ReLU corner.
        _, (_, pre_acts, _) = model._forward(x[None, :])
        return min(float(np.abs(p).min()) for p in pre_acts) > 1e-3

    worst = 0.0
    accepted = 0
    while accepted < 20:
        x = rng.uniform(0.05, 0.95, size=2)
        if not clear_of_kinks(x):
            continue
        accepted += 1
        grad = grad_acquisition(model, x, cfg, n_obs)
        numeric = np.empty(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            numeric[i] = (objective(x + e) - objective(x - e)) / (2.0 * h)
        worst = max(worst, relative_error(grad, numeric))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 10.0
    line = record_criterion(
        3, ok, f"acquisition input-gradient at 20 interior points, worst "
               f"relative error {worst:.2e} (<1e-4), {elapsed:.1f}s (<10s)")
    assert ok, line


def test_criterion_4_pairwise_order_robustness():
    t0 = time.perf_counter()
    sigma = 0.8
    rng = np.random.default_rng(404)
    n = 1_000_000
    gaps = (0.0, math.sqrt(2.0) * sigma, 2.0 * math.sqrt(2.0) * sigma)
    worst = 0.0
    two_sigma_mc = None
    for gap in gaps:
        noise = rng.normal(0.0, sigma, size=n) - rng.normal(0.0, sigma, size=n)
        empirical = float((gap + noise > 0.0).mean())
        predicted = correct_ranking_probability(gap, sigma)
        worst = max(worst, abs(empirical - predicted))
        if gap == gaps[-1]:
            two_sigma_mc = empirical
    anchor_gap = abs(two_sigma_mc - 0.9772)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.002 and anchor_gap <= 0.003 and elapsed < 5.0
    line = record_criterion(
        4, ok, f"1e6-pair Monte Carlo off by {worst:.2e} (<=0.002), "
               f"97.72% anchor off by {anchor_gap:.2e} (<=0.003), "
               f"{elapsed:.1f}s (<5s)")
    assert ok, line


def test_criterion_5_monotone_transform_invariance():
    t0 = time.perf_counter()
    base = get_benchmark("branin")

    def warped_fn(x_raw):
        return math.exp(branin(x_raw) / 10.0)

    warped = BenchmarkFunction("branin-warped", 2, base.bounds, warped_fn,
                               optimum=None)
    cfg = BoRunConfig(n_init=12, n_iters=80, seed=0)
    a = run(base, cfg)
    b = run(warped, cfg)
    identical = np.array_equal(a.points, b.points)
    elapsed = time.perf_counter() - t0
    ok = identical and elapsed < 120.0
    line = record_criterion(
        5, ok, f"92-query sequences on original and exp(f/10)-warped objective "
               f"{'bitwise identical' if identical else 'DIVERGED'}, "
               f"{elapsed:.0f}s (<2min)")
    assert ok, line


def test_criterion_6_tiny_q_degrades_to_uniform():
    t0 = time.perf_counter()
    bench = get_benchmark("branin")
    rng = np.random.default_rng(123)
    points = rng.uniform(size=(20, 2))
    values = np.array([bench.evaluate(p) for p in points])
    obs = ObservationSet.from_values(points, values)
    model = IntensityModel.create(2, DEFAULT_HIDDEN, rng_seed=1)
    fit(model, obs, TrainConfig(), rng=np.random.default_rng(2))

    space = ContinuousSpace(2)
    proposals = np.array([
        propose_next(model, space, obs,
                     AcquisitionConfig(kind="r-lcb", q=0.001, rng_seed=s))
        for s in range(200)
    ])
    bins = np.clip((proposals * 4).astype(int), 0, 3)
    counts = np.zeros((4, 4))
    for b0, b1 in bins:
        counts[b0, b1] += 1
    expected = 200 / 16.0
    stat = float(((counts - expected) ** 2 / expected).sum())
    p_value = float(chi2.sf(stat, df=15))
    elapsed = time.perf_counter() - t0
    ok = p_value > 0.01 and elapsed < 300.0
    line = record_criterion(
        6, ok, f"200 proposals at q=0.001 vs uniform 4x4 grid: chi-square "
               f"p={p_value:.3f} (>0.01), {elapsed:.0f}s (<5min)")
    assert ok, line


def test_criterion_7_one_dim_ranking_fidelity():
    t0 = time.perf_counter()
    rhos = {0.0: [], 0.45: []}
    for seed in range(10):
        out = forrester_ranking_study(sigmas=(0.0, 0.45), seed=seed)
        for sigma in rhos:
            rhos[sigma].append(out[sigma])
    mean_clean = float(np.mean(rhos[0.0]))
    mean_noisy = float(np.mean(rhos[0.45]))
    elapsed = time.perf_counter() - t0
    ok = mean_clean >= 0.9 and mean_noisy >= 0.6 and elapsed < 300.0
    line = record_criterion(
        7, ok, f"grid rank correlation over 10 seeds: {mean_clean:.3f} at "
               f"sigma=0 (>=0.9), {mean_noisy:.3f} at sigma=0.45 (>=0.6), "
               f"{elapsed:.0f}s (<5min)")
    assert ok, line


@pytest.mark.slow
def test_criterion_8_beats_random_search():
    t0 = time.perf_counter()
    seeds = range(10)
    finals = {}
    for bench_name in ("branin", "hartmann6"):
        bench = get_benchmark(bench_name)
        finals[bench_name] = {}
        for kind in ("r-lcb", "eri"):
            regrets = [run(bench, BoRunConfig(
                n_init=12, n_iters=80, seed=s,
                acquisition=AcquisitionConfig(kind=kind))).final_regret
                for s in seeds]
            finals[bench_name][kind] = float(np.median(regrets))
        rs = [random_search_baseline(bench, budget=92, seed=s,
                                     n_init=12).final_regret for s in seeds]
        finals[bench_name]["rs"] = float(np.median(rs))
    ok = all(finals[b][k] < finals[b]["rs"]
             for b in finals for k in ("r-lcb", "eri"))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1800.0
    detail = "; ".join(
        f"{b}: r-lcb {finals[b]['r-lcb']:.3g} / eri {finals[b]['eri']:.3g} "
        f"vs random {finals[b]['rs']:.3g}" for b in finals)
    line = record_criterion(
        8, ok, f"median final regret over 10 paired seeds ({detail}), "
               f"{elapsed:.0f}s (<30min)")
    assert ok, line


def test_criterion_9_trace_csv_determinism(tmp_path):
    cfg = BoRunConfig(n_init=4, n_iters=3, seed=17)
    bench = get_benchmark("branin")
    paths = []
    for tag in ("a", "b"):
        trace = run(bench, cfg)
        paths.append(write_trace_csv(trace, tmp_path / f"{tag}.csv"))
    first = (paths[0]).read_text(encoding="utf-8").strip().split("\n")
    second = (paths[1]).read_text(encoding="utf-8").strip().split("\n")
    header = first[0].split(",")
    timing = {header.index(c) for c in ("fit_s", "propose_s", "eval_s")}
    stable = [i for i in range(len(header)) if i not in timing]
    identical = len(first) == len(second) and all(
        [a.split(",")[i] for i in stable] == [b.split(",")[i] for i in stable]
        for a, b in zip(first, second))
    ok = identical
    line = record_criterion(
        9, ok, "repeated run produced byte-identical trace rows outside the "
               "wall-clock columns" if ok else
               "repeated run DIVERGED outside the wall-clock columns")
    assert ok, line
    # The parsed payloads agree exactly as numbers, too.
    ha, ra = read_trace_csv(paths[0])
    hb, rb = read_trace_csv(paths[1])
    for rowa, rowb in zip(ra, rb):
        assert rowa[:6] == rowb[:6]


def test_criterion_10_per_iteration_cost_growth():
    t0 = time.perf_counter()
    bench = get_benchmark("hartmann6")
    space = ContinuousSpace(6)
    sizes = (50, 100, 200)
    best = {}
    for n in sizes:
        rng = np.random.default_rng(n)
        points = rng.uniform(size=(n, 6))
        values = np.array([bench.evaluate(p) for p in points])
        obs = ObservationSet.from_values(points, values)
        reps = []
        for rep in range(2):
            model = IntensityModel.create(6, DEFAULT_HIDDEN, rng_seed=rep)
            t1 = time.perf_counter()
            fit(model, obs, TrainConfig(), rng=np.random.default_rng(rep))
            propose_next(model, space, obs,
                         AcquisitionConfig(kind="r-lcb", rng_seed=rep))
            reps.append(time.perf_counter() - t1)
        best[n] = min(reps)
    slope = float(np.polyfit(np.log(sizes), np.log([best[n] for n in sizes]), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = slope <= 2.3 and elapsed < 1200.0
    times = ", ".join(f"N={n}: {best[n]:.2f}s" for n in sizes)
    line = record_criterion(
        10, ok, f"fit+propose scaling ({times}) log-log slope {slope:.2f} "
                f"(<=2.3), {elapsed:.0f}s (<20min)")
    assert ok, line
