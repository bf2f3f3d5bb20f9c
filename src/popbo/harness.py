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
from pathlib import Path

import numpy as np

from .acquisition import AcquisitionConfig
from .benchmarks import BENCHMARK_NAMES, TabularBenchmark, get_benchmark
from .engine import BoRunConfig, RegretTrace, random_search_baseline, run
from .errors import DomainError, EvaluationFailedError, InputError

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

_METHOD_KIND = {"popbo-rlcb": "r-lcb", "popbo-eri": "eri"}


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
        seeds = tuple(int(s) for s in self.seeds)
        if not seeds:
            raise DomainError("seeds must be non-empty")
        object.__setattr__(self, "seeds", seeds)
        if self.n_iters < 0:
            raise DomainError("n_iters must be >= 0")
        if self.noise_sigma < 0:
            raise DomainError("noise_sigma must be >= 0")
        if self.workers < 1:
            raise DomainError("workers must be >= 1")


def resolve_benchmark(name: str, noise_sigma: float = 0.0):
    """Registry name or tabular CSV path -> objective.

    Tables are exact lookups with no noise model, so asking for noise on one
    is an error rather than a setting that is silently dropped.
    """
    if str(name).lower() in BENCHMARK_NAMES:
        return get_benchmark(name, noise_sigma)
    path = Path(name)
    if path.suffix.lower() == ".csv" and path.exists():
        if noise_sigma > 0:
            raise DomainError(f"noise_sigma={noise_sigma!r} given for table {name!r}, "
                              "which has no noise model")
        return TabularBenchmark.from_csv(path)
    raise DomainError(
        f"unknown benchmark {name!r}: expected one of {BENCHMARK_NAMES} or a CSV path"
    )


def default_n_init(benchmark_name: str) -> int:
    return 30 if str(benchmark_name).lower() == "rosenbrock6" else 12


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


def _build_run_config(cfg: ExperimentConfig, n_init: int, seed: int) -> BoRunConfig:
    acq = AcquisitionConfig(kind=_METHOD_KIND[cfg.method], beta=cfg.beta,
                            q=cfg.q, k_max=cfg.k_max)
    return BoRunConfig(n_init=n_init, n_iters=cfg.n_iters, seed=seed, acquisition=acq)


def _run_one(cfg: ExperimentConfig, objective, benchmark_label: str, n_init: int,
             seed: int) -> Path:
    out = trace_path(cfg.out_dir, cfg.method, benchmark_label, seed)
    try:
        if cfg.method == "random-search":
            trace = random_search_baseline(objective, n_init + cfg.n_iters, seed, n_init)
        else:
            trace = run(objective, _build_run_config(cfg, n_init, seed))
    except EvaluationFailedError as exc:
        # Persist what was observed before the failure, then re-raise.
        write_trace_csv(exc.trace, out)
        raise
    write_trace_csv(trace, out)
    return out


def run_experiment(cfg: ExperimentConfig) -> list:
    """Run every seed, write one trace CSV each, then the summary CSV.

    Returns the list of written paths (traces then summary).  The benchmark
    is resolved (a table parsed) once and shared by every seed: objectives
    hold no state, their noise comes from each run's own stream.  Seeds run
    in parallel worker processes when workers > 1; each worker writes only
    its own trace file and the summary is produced after all complete.
    """
    objective = resolve_benchmark(cfg.benchmark, cfg.noise_sigma)
    benchmark_label = objective.name
    n_init = cfg.n_init if cfg.n_init is not None else default_n_init(benchmark_label)
    if n_init < 2:
        raise DomainError("n_init must be >= 2")
    if cfg.method != "random-search":
        # Reject a bad run config (e.g. ERI's k_max above n_init) before any
        # seed spends an evaluation.
        _build_run_config(cfg, n_init, cfg.seeds[0])

    written = []
    if cfg.workers > 1:
        # Imported only here, so single-process runs never load
        # multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [pool.submit(_run_one, cfg, objective, benchmark_label, n_init, s)
                       for s in cfg.seeds]
            for fut in futures:
                written.append(fut.result())
    else:
        for seed in cfg.seeds:
            written.append(_run_one(cfg, objective, benchmark_label, n_init, seed))

    summary = summarize_traces(written, summary_path(cfg.out_dir, cfg.method,
                                                     benchmark_label))
    return written + [summary]
