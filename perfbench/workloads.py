"""Workload definitions and their seeded inputs.

Every workload is a closed loop in one process: one `run_experiment` call
per BO seed, each a sequential ask/tell run of the engine.  The workload seed
(the benchmark's `--seed`) fixes the BO seeds and, for the table workload, the
generated table; popbo itself only receives those generated inputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
GRID_LEVELS = 8
GRID_DIM = 4
GRID_JITTER = 0.01


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a popbo experiment repeated over BO seeds.

    benchmark is a popbo registry name, or "grid4" for the generated table.
    n_seeds * n_iters is the number of model-driven steps in one round; each
    workload has at least 100 so that step_ms_p90 has ten samples beyond it.
    Traced runs use the first trace_seeds BO seeds only.
    """

    name: str
    benchmark: str
    method: str
    n_init: int
    n_iters: int
    n_seeds: int
    trace_seeds: int


WORKLOADS = {w.name: w for w in (
    Workload("hartmann6-eri", "hartmann6", "popbo-eri", n_init=12, n_iters=24, n_seeds=12,
             trace_seeds=3),
    Workload("grid4-table", "grid4", "popbo-rlcb", n_init=3, n_iters=9, n_seeds=12,
             trace_seeds=12),
)}


@dataclass(frozen=True)
class Inputs:
    """What one run hands to popbo, plus the oracle the checks compare against.

    benchmark_arg is the string passed as ExperimentConfig.benchmark: a
    registry name or the path of the generated table CSV.  table maps each
    row's integer levels to its value (None for continuous benchmarks).
    """

    workload: Workload
    bo_seeds: tuple
    benchmark_arg: str
    table: dict | None


def bo_seeds(workload: Workload, seed: int) -> tuple:
    """The BO seeds of one round; disjoint across workload seeds."""
    return tuple(1000 * int(seed) + i for i in range(workload.n_seeds))


def grid_table(seed: int) -> dict:
    """Seeded 8^4-row table: a shifted, weighted bowl plus ripples and jitter.

    Returns a dict from the integer level tuple to its value.
    """
    rng = np.random.default_rng([4, GRID_LEVELS, int(seed)])
    centre = rng.uniform(0.2, 0.8, size=GRID_DIM)
    weight = rng.uniform(0.5, 2.0, size=GRID_DIM)
    phase = rng.uniform(0.0, 2.0 * math.pi, size=GRID_DIM)
    axis = np.arange(GRID_LEVELS)
    levels = np.stack(np.meshgrid(*[axis] * GRID_DIM, indexing="ij"), -1).reshape(-1, GRID_DIM)
    u = levels / (GRID_LEVELS - 1)
    values = (np.sum(weight * (u - centre) ** 2, axis=1)
              + 0.05 * np.sum(np.sin(3.0 * math.pi * u + phase), axis=1)
              + rng.normal(0.0, GRID_JITTER, size=len(levels)))
    return {tuple(int(v) for v in row): float(y) for row, y in zip(levels, values)}


def write_table(table: dict, path: Path) -> Path:
    header = ",".join(f"l{i}" for i in range(GRID_DIM)) + ",value"
    lines = [header] + [",".join(map(str, key)) + "," + repr(val) for key, val in table.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def prepare(workload: Workload, seed: int, work_dir: Path) -> Inputs:
    """Generate the run's inputs and load the objective once, as a user would.

    For the table workload the table is generated and written to
    `work_dir/grid4.csv`, then loaded through popbo's CSV path.
    """
    from popbo.harness import ExperimentConfig, resolve_benchmark

    table = None
    benchmark_arg = workload.benchmark
    if workload.benchmark == "grid4":
        table = grid_table(seed)
        benchmark_arg = str(write_table(table, Path(work_dir) / "grid4.csv"))
    resolve_benchmark(benchmark_arg)
    seeds = bo_seeds(workload, seed)
    ExperimentConfig(benchmark=benchmark_arg, method=workload.method, seeds=seeds,
                     n_init=workload.n_init, n_iters=workload.n_iters)
    return Inputs(workload, seeds, benchmark_arg, table)


def import_popbo():
    """Import popbo from this checkout's src/, never from anywhere else."""
    src = REPO / "src"
    if not (src / "popbo" / "__init__.py").is_file():
        raise SystemExit(f"popbo sources not found under {src}")
    sys.path.insert(0, str(src))
    import popbo

    if Path(popbo.__file__).resolve().parent != (src / "popbo").resolve():
        raise SystemExit(f"imported popbo from {popbo.__file__}, not from {src}")
    return popbo
