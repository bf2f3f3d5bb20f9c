"""Experiment runner: seed fan-out, trace CSVs, and regret summaries.

Trace schema (one row per evaluation, stable across methods):

    iter,x0,...,x{d-1},y,incumbent,regret,fit_s,propose_s,eval_s

All floats are written with repr so the scientific columns round-trip
bitwise; the three *_s columns hold measured wall-clock seconds and are the
only fields that may differ between reruns of the same config and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .acquisition import AcquisitionConfig
from .benchmarks import BENCHMARK_NAMES, TabularBenchmark, default_n_init, get_benchmark
from .engine import BoRunConfig, RegretTrace, random_search_baseline, run
from .errors import DomainError, InputError, PopboError, is_count, is_real

__all__ = [
    "METHODS",
    "ExperimentConfig",
    "run_experiment",
    "random_search_baseline",
    "resolve_benchmark",
    "default_n_init",
    "write_trace_csv",
    "read_trace_csv",
    "summarize_traces",
    "trace_path",
    "summary_path",
]

METHODS = ("popbo-rlcb", "popbo-eri", "random-search")

# Random search's settings pass R-LCB's check, which adds no rule to the shared ones.
_METHOD_KIND = {"popbo-rlcb": "r-lcb", "popbo-eri": "eri", "random-search": "r-lcb"}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a benchmark, a method, and a seed list.

    benchmark is a registry name or a path to a tabular CSV.  n_init=None
    resolves to the benchmark default (30 for rosenbrock6, else 12); q=None
    resolves to the method default.
    """

    benchmark: str
    method: str
    seeds: tuple = (0,)
    n_init: int | None = None
    n_iters: int = 80
    noise_sigma: float = 0.0
    q: float | None = None
    k_max: int = 5
    beta: float = 1.0
    out_dir: str = "."
    workers: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise DomainError(f"method must be one of {METHODS}, got {self.method!r}")
        # Seeds given as decimal text count as the integers they spell.
        seeds = tuple(int(s) if isinstance(s, str) and s.isdecimal() else s
                      for s in self.seeds)
        if not seeds:
            raise DomainError("seeds must be non-empty")
        if not all(is_count(s, 0) for s in seeds):
            raise DomainError(f"seeds must be integers >= 0, got {tuple(self.seeds)!r}")
        seeds = tuple(int(s) for s in seeds)
        if len(set(seeds)) != len(seeds):
            raise DomainError(f"seeds must be distinct, got {seeds}")
        object.__setattr__(self, "seeds", seeds)
        if self.n_iters < 0:
            raise DomainError("n_iters must be >= 0")
        if not (is_real(self.noise_sigma) and math.isfinite(self.noise_sigma)
                and self.noise_sigma >= 0):
            raise DomainError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma!r}")
        if not is_count(self.workers, 1):
            raise DomainError(f"workers must be an integer >= 1, got {self.workers!r}")


def resolve_benchmark(name: str, noise_sigma: float = 0.0):
    """Registry name or tabular CSV path -> objective.

    Tables are exact lookups with no noise model, so asking for noise on one
    is an error rather than a setting that is silently dropped.
    """
    if str(name).lower() in BENCHMARK_NAMES:
        return get_benchmark(name, noise_sigma)
    path = Path(name)
    if path.suffix.lower() == ".csv" and path.exists():
        if noise_sigma != 0:
            raise DomainError(f"noise_sigma={noise_sigma!r} given for table {name!r}, "
                              "which has no noise model")
        return TabularBenchmark.from_csv(path)
    raise DomainError(
        f"unknown benchmark {name!r}: expected one of {BENCHMARK_NAMES} or a CSV path"
    )


def _float_str(v: float) -> str:
    return repr(float(v))


def write_trace_csv(trace: RegretTrace, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    cols = ["iter"] + [f"x{i}" for i in range(trace.dim)] \
        + ["y", "incumbent", "regret", "fit_s", "propose_s", "eval_s"]
    lines = [",".join(cols)]
    for rec in trace.records:
        row = [str(rec.iteration)]
        row += [_float_str(c) for c in rec.point]
        row += [_float_str(v) for v in (rec.value, rec.incumbent, rec.regret,
                                        rec.fit_seconds, rec.propose_seconds,
                                        rec.eval_seconds)]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_trace_csv(path):
    """Parse a trace CSV back into (header, rows); floats via float()."""
    text = Path(path).read_text(encoding="utf-8").strip().split("\n")
    header = text[0].split(",")
    rows = []
    for line in text[1:]:
        parts = line.split(",")
        if len(parts) != len(header):
            raise InputError(f"{path}: ragged trace row {line!r}")
        rows.append([int(parts[0])] + [float(p) for p in parts[1:]])
    return header, rows


def trace_path(out_dir, method: str, benchmark_label: str, seed: int) -> Path:
    return Path(out_dir) / f"{method}_{benchmark_label}_seed{seed}.csv"


def summary_path(out_dir, method: str, benchmark_label: str) -> Path:
    return Path(out_dir) / f"{method}_{benchmark_label}_summary.csv"


def summarize_traces(paths, out_path) -> Path:
    """Per-iteration median and standard error across seeds, from trace files.

    For each iteration index, each seed contributes the state after its last
    row of that index (the initial block collapses to its final incumbent).
    Regeneration from the same traces is byte-identical.
    """
    per_iter_regret: dict = {}
    per_iter_incumbent: dict = {}
    for p in paths:
        header, rows = read_trace_csv(p)
        inc_idx = header.index("incumbent")
        reg_idx = header.index("regret")
        seen: dict = {}
        for row in rows:
            seen[row[0]] = row
        for it, row in seen.items():
            per_iter_regret.setdefault(it, []).append(row[reg_idx])
            per_iter_incumbent.setdefault(it, []).append(row[inc_idx])

    def stderr(xs):
        if len(xs) < 2:
            return 0.0
        return float(np.std(xs, ddof=1) / math.sqrt(len(xs)))

    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["iter,n_seeds,median_regret,stderr_regret,median_incumbent,stderr_incumbent"]
    for it in sorted(per_iter_regret):
        regs = per_iter_regret[it]
        incs = per_iter_incumbent[it]
        lines.append(",".join([
            str(it), str(len(regs)),
            _float_str(np.median(regs)), _float_str(stderr(regs)),
            _float_str(np.median(incs)), _float_str(stderr(incs)),
        ]))
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out_path


def _run_seed(objective, method: str, out_dir, run_cfg: BoRunConfig) -> tuple:
    """Run one seed and write its trace; return (path, its PopboError or None)."""
    out = trace_path(out_dir, method, objective.name, run_cfg.seed)
    try:
        if method == "random-search":
            trace = random_search_baseline(objective, run_cfg.n_init + run_cfg.n_iters,
                                           run_cfg.seed, run_cfg.n_init)
        else:
            trace = run(objective, run_cfg)
    except PopboError as exc:
        if getattr(exc, "trace", None) is not None:
            write_trace_csv(exc.trace, out)
        return out, exc
    write_trace_csv(trace, out)
    return out, None


def run_experiment(cfg: ExperimentConfig) -> list:
    """Run every seed, write one trace CSV each, then the summary CSV.

    Returns the written paths (traces then summary).  Every seed's run
    config is built, and so checked, before any evaluation.  The benchmark
    is resolved (a table parsed) once and shared: objectives hold no state.
    Seeds run in worker processes when workers > 1, with the same traces
    and failures: a seed's PopboError stops no other seed, and every seed
    writes its trace, up to the failure if an evaluation or a fit fails;
    then the first error in seed order is raised and no summary is written.
    """
    objective = resolve_benchmark(cfg.benchmark, cfg.noise_sigma)
    benchmark_label = objective.name
    n_init = cfg.n_init if cfg.n_init is not None else default_n_init(benchmark_label)
    acquisition = AcquisitionConfig(kind=_METHOD_KIND[cfg.method], beta=cfg.beta,
                                    q=cfg.q, k_max=cfg.k_max)
    runs = [BoRunConfig(n_init=n_init, n_iters=cfg.n_iters, seed=seed, acquisition=acquisition)
            for seed in cfg.seeds]
    run_seed = partial(_run_seed, objective, cfg.method, cfg.out_dir)
    if cfg.workers > 1:
        # Imported only here, so single-process runs never load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            outcomes = list(pool.map(run_seed, runs))
    else:
        outcomes = list(map(run_seed, runs))
    for _, error in outcomes:
        if error is not None:
            raise error
    written = [path for path, _ in outcomes]
    return written + [summarize_traces(written, summary_path(cfg.out_dir, cfg.method,
                                                             benchmark_label))]
