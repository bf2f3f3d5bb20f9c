"""Paired regret study: does a change to popbo keep its optimization quality?

Runs two checkouts of popbo (a parent and a change) on the same benchmarks,
methods and seeds, each run in its own subprocess with the checkout's `src/`
on the path and `OPENBLAS_NUM_THREADS=1`, and writes one JSON report:

    python studies/regret.py --parent ../parent --out QUALITY_tag.json
    python studies/regret.py --smoke        # 2 seeds, 3 iterations, self vs self

Scope: branin, hartmann6, a generated 4-d table and branin with observation
noise, each with popbo-rlcb and popbo-eri (the gated cells), plus random
search on each as an ungated reference, 30 seeds of 80 iterations, two runs
at a time.  A run with the same seed starts from the same initial block in
both checkouts, so seeds pair up.  For the noisy cell the regret is the
noiseless regret of the incumbent (the point with the best noisy
observation); elsewhere it is the trace's regret column.

Verdict rule, fixed before the study's first run:
  * per gated cell, an exact two-sided sign test on the paired final regrets
    (ties dropped); a cell rejects against the change when its Holm-adjusted
    p-value over the gated cells is below 0.05 and the change loses more
    pairs than it wins;
  * the pooled sign test over the pairs of every gated cell rejects against
    the change when p < 0.05 and the change loses more pairs than it wins;
  * quality holds when neither rejects against the change.
The median of each checkout and the parent's 90% bootstrap CI of its median
are reported but not gated on: with a heavy-tailed regret, a last-bit change
moves a 30-seed median outside that CI without any real effect.  Each
cell's exact one-sided sign test for improvement (the chance of at least as
many wins under no effect, from the same pairs) is reported beside the
verdict, also not gated on, so that a change claiming better quality can
cite it; so is the study's wall time.

Only the standard library and numpy are used.  The exit status is 0 when
quality holds, else 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GATED_METHODS = ("popbo-rlcb", "popbo-eri")
REFERENCE_METHOD = "random-search"
NOISE_SIGMA = 1.0
SEEDS, ITERS = 30, 80
SMOKE_SEEDS, SMOKE_ITERS = 2, 3
WORKERS = 2
CHECKPOINTS = (10, 20, 40, 80)
ALPHA = 0.05
BOOTSTRAP_RESAMPLES = 10_000
TABLE_LEVELS, TABLE_DIM = 6, 4

# Runs one seed in the checkout on sys.path and prints its regret per
# iteration (entry 0 after the initial block) and its fit + propose seconds.
RUNNER = r"""
import json, sys, tempfile
from popbo.benchmarks import get_benchmark
from popbo.harness import ExperimentConfig, read_trace_csv, run_experiment
job = json.loads(sys.argv[1])
with tempfile.TemporaryDirectory() as out:
    cfg = ExperimentConfig(benchmark=job["benchmark"], method=job["method"],
                           seeds=(job["seed"],), n_iters=job["iters"],
                           noise_sigma=job["noise_sigma"], out_dir=out)
    header, rows = read_trace_csv(run_experiment(cfg)[0])
col = {name: i for i, name in enumerate(header)}
xs = [i for name, i in col.items() if name.startswith("x")]
truth = get_benchmark(job["benchmark"]) if job["noise_sigma"] > 0 else None
best, regret, seconds = None, {}, 0.0
for row in rows:
    if best is None or row[col["y"]] < best[col["y"]]:
        best = row
    if truth is None:
        regret[row[0]] = row[col["regret"]]
    else:
        regret[row[0]] = truth.fn([best[i] for i in xs]) - truth.optimum
    seconds += row[col["fit_s"]] + row[col["propose_s"]]
print(json.dumps({"regret": [regret[t] for t in sorted(regret)], "seconds": seconds}))
"""


def write_table(path: Path) -> Path:
    """Seeded 6^4-row table: a shifted, weighted bowl plus ripples and jitter."""
    rng = np.random.default_rng([10, TABLE_LEVELS, TABLE_DIM])
    centre = rng.uniform(0.2, 0.8, size=TABLE_DIM)
    weight = rng.uniform(0.5, 2.0, size=TABLE_DIM)
    phase = rng.uniform(0.0, 2.0 * math.pi, size=TABLE_DIM)
    axis = np.arange(TABLE_LEVELS)
    levels = np.stack(np.meshgrid(*[axis] * TABLE_DIM, indexing="ij"), -1).reshape(-1, TABLE_DIM)
    u = levels / (TABLE_LEVELS - 1)
    values = (np.sum(weight * (u - centre) ** 2, axis=1)
              + 0.05 * np.sum(np.sin(3.0 * math.pi * u + phase), axis=1)
              + rng.normal(0.0, 0.01, size=len(levels)))
    lines = [",".join(f"l{i}" for i in range(TABLE_DIM)) + ",value"]
    lines += [",".join(map(str, row)) + "," + repr(float(y)) for row, y in zip(levels, values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def src_digest(checkout: Path) -> str:
    """sha256 over the checkout's popbo sources, to name what was measured."""
    h = hashlib.sha256()
    for path in sorted((checkout / "src" / "popbo").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_one(checkout: Path, job: dict) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(checkout / "src"))
    done = subprocess.run([sys.executable, "-c", RUNNER, json.dumps(job)], env=env,
                          capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout} {job} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def sign_test(wins: int, losses: int) -> float:
    """Exact two-sided sign test p-value (ties already dropped)."""
    n, k = wins + losses, min(wins, losses)
    if n == 0:
        return 1.0
    return min(1.0, 2.0 * sum(math.comb(n, i) for i in range(k + 1)) / 2.0 ** n)


def improvement_sign_test(wins: int, losses: int) -> float:
    """Exact one-sided sign test p-value for more wins than chance (ties dropped)."""
    n = wins + losses
    return sum(math.comb(n, i) for i in range(wins, n + 1)) / 2.0 ** n


def holm(p_values: list) -> list:
    """Holm step-down adjusted p-values, in the input order."""
    order = sorted(range(len(p_values)), key=lambda i: p_values[i])
    adjusted, running = [0.0] * len(p_values), 0.0
    for rank, i in enumerate(order):
        running = max(running, min(1.0, (len(p_values) - rank) * p_values[i]))
        adjusted[i] = running
    return adjusted


def bootstrap_median_ci(values: np.ndarray, level: float = 0.9) -> list:
    rng = np.random.default_rng(0)
    picks = rng.integers(0, len(values), size=(BOOTSTRAP_RESAMPLES, len(values)))
    medians = np.median(values[picks], axis=1)
    tail = 50.0 * (1.0 - level)
    return [float(np.percentile(medians, tail)), float(np.percentile(medians, 100.0 - tail))]


def side(runs: list, iters: int) -> dict:
    regret = np.array([r["regret"] for r in runs])
    final = regret[:, -1]
    return {
        "final_regret": final.tolist(),
        "median": float(np.median(final)),
        "median_at": {str(t): float(np.median(regret[:, t])) for t in CHECKPOINTS if t <= iters},
        "model_seconds_median": float(np.median([r["seconds"] for r in runs])),
    }


def cell_report(cell: dict, parent_runs: list, change_runs: list, iters: int) -> dict:
    parent, change = side(parent_runs, iters), side(change_runs, iters)
    p_final, c_final = np.array(parent["final_regret"]), np.array(change["final_regret"])
    wins, losses = int(np.sum(c_final < p_final)), int(np.sum(c_final > p_final))
    ci = bootstrap_median_ci(p_final)
    return dict(cell, parent=parent, change=change, parent_median_ci90=ci,
                change_median_in_parent_ci90_or_below=bool(change["median"] <= ci[1]),
                wins=wins, losses=losses, ties=len(p_final) - wins - losses,
                sign_p=sign_test(wins, losses),
                improvement_p=improvement_sign_test(wins, losses))


def study(parent: Path, change: Path, seeds: int, iters: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        table = str(write_table(Path(tmp) / "table4.csv"))
        cells = [dict(label=label, benchmark=bench, noise_sigma=noise, method=method,
                      gated=method != REFERENCE_METHOD)
                 for label, bench, noise in (("branin", "branin", 0.0),
                                             ("hartmann6", "hartmann6", 0.0),
                                             ("table4", table, 0.0),
                                             ("branin-noisy", "branin", NOISE_SIGMA))
                 for method in (*GATED_METHODS, REFERENCE_METHOD)]
        jobs = [(side_name, checkout, i, dict(benchmark=c["benchmark"], method=c["method"],
                                              noise_sigma=c["noise_sigma"], seed=seed,
                                              iters=iters))
                for i, c in enumerate(cells) for seed in range(seeds)
                for side_name, checkout in (("parent", parent), ("change", change))]
        started = time.time()
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            results = list(pool.map(lambda job: run_one(job[1], job[3]), jobs))
        elapsed = time.time() - started
    runs = {}
    for (side_name, _, i, _), result in zip(jobs, results):
        runs.setdefault((i, side_name), []).append(result)
    reports = []
    for i, c in enumerate(cells):
        c = {k: v for k, v in c.items() if k != "benchmark"}
        reports.append(cell_report(c, runs[(i, "parent")], runs[(i, "change")], iters))
    gated = [r for r in reports if r["gated"]]
    for r, p in zip(gated, holm([r["sign_p"] for r in gated])):
        r["holm_p"] = p
        r["rejects_against_change"] = p < ALPHA and r["losses"] > r["wins"]
    wins, losses = sum(r["wins"] for r in gated), sum(r["losses"] for r in gated)
    pooled = {"wins": wins, "losses": losses, "ties": sum(r["ties"] for r in gated),
              "sign_p": sign_test(wins, losses),
              "improvement_p": improvement_sign_test(wins, losses)}
    pooled["rejects_against_change"] = pooled["sign_p"] < ALPHA and losses > wins
    holds = not pooled["rejects_against_change"] and not any(
        r["rejects_against_change"] for r in gated)
    return {
        "verdict": "quality holds" if holds else "quality fails",
        "rule": ("per gated cell: exact two-sided sign test on paired final regrets, Holm "
                 f"over the gated cells at {ALPHA}; pooled sign test over all gated pairs "
                 f"at {ALPHA}; either rejects only when the change loses more pairs"),
        "settings": {"seeds": list(range(seeds)), "iters": iters, "workers": WORKERS,
                     "noise_sigma": NOISE_SIGMA, "table": f"{TABLE_LEVELS}^{TABLE_DIM} rows",
                     "bootstrap_resamples": BOOTSTRAP_RESAMPLES, "wall_seconds": elapsed},
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "nproc": os.cpu_count(), "machine": platform.machine(),
                        "OPENBLAS_NUM_THREADS": "1"},
        "parent_src_sha256": src_digest(parent),
        "change_src_sha256": src_digest(change),
        "pooled": pooled,
        "cells": reports,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", type=Path, help="checkout root of the parent (has src/popbo)")
    p.add_argument("--change", type=Path, default=ROOT, help="checkout root of the change")
    p.add_argument("--out", type=Path, help="report path (JSON)")
    p.add_argument("--smoke", action="store_true",
                   help=f"{SMOKE_SEEDS} seeds, {SMOKE_ITERS} iterations, this checkout "
                        "against itself")
    args = p.parse_args(argv)
    seeds, iters = SEEDS, ITERS
    if args.smoke:
        args.parent, args.change, seeds, iters = ROOT, ROOT, SMOKE_SEEDS, SMOKE_ITERS
    if args.parent is None:
        p.error("--parent is required unless --smoke")
    for checkout in (args.parent, args.change):
        if not (checkout / "src" / "popbo").is_dir():
            p.error(f"{checkout} has no src/popbo")
    report = study(args.parent.resolve(), args.change.resolve(), seeds, iters)
    text = json.dumps(report, indent=1)
    if args.out is not None:
        args.out.write_text(text + "\n", encoding="utf-8")
    for r in report["cells"]:
        print(f"{r['label']:>13} {r['method']:>13}  median {r['parent']['median']:.4g} -> "
              f"{r['change']['median']:.4g}  wins {r['wins']}/{r['losses']}/{r['ties']}  "
              f"p {r['sign_p']:.3g}  improvement p {r['improvement_p']:.3g}")
    print(f"pooled wins/losses/ties {report['pooled']['wins']}/{report['pooled']['losses']}/"
          f"{report['pooled']['ties']}  p {report['pooled']['sign_p']:.3g}  improvement p "
          f"{report['pooled']['improvement_p']:.3g}: {report['verdict']}")
    print(f"wall time {report['settings']['wall_seconds']:.0f} s")
    if args.smoke and any(r["wins"] or r["losses"] for r in report["cells"]):
        print("smoke: a checkout against itself must tie every pair", file=sys.stderr)
        return 1
    return 0 if report["verdict"] == "quality holds" else 1


if __name__ == "__main__":
    sys.exit(main())
