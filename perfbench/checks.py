"""Output checks and fingerprints for popbo trace CSVs.

The checks use their own parser and their own copies of the objective
formulas, so a fault in popbo's CSV writer or benchmark code cannot hide
itself.  Each check returns a list of error strings; an empty list passes.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from workloads import GRID_LEVELS

TIMING_COLUMNS = ("fit_s", "propose_s", "eval_s")

# Published domains and global minima of the continuous objectives.
BOXES = {
    "branin": ([-5.0, 0.0], [10.0, 15.0]),
    "hartmann6": ([0.0] * 6, [1.0] * 6),
}
OPTIMA = {"branin": 0.397887357729738, "hartmann6": -3.322368011415515}
OPTIMUM_TOL = 1e-9
VALUE_TOL = 1e-9

_H6_ALPHA = [1.0, 1.2, 3.0, 3.2]
_H6_A = [[10, 3, 17, 3.5, 1.7, 8], [0.05, 10, 17, 0.1, 8, 14],
         [3, 3.5, 1.7, 10, 17, 8], [17, 8, 0.05, 10, 0.1, 14]]
_H6_P = [[0.1312, 0.1696, 0.5569, 0.0124, 0.8283, 0.5886],
         [0.2329, 0.4135, 0.8307, 0.3736, 0.1004, 0.9991],
         [0.2348, 0.1451, 0.3522, 0.2883, 0.3047, 0.6650],
         [0.4047, 0.8828, 0.8732, 0.5743, 0.1091, 0.0381]]


def _branin(x):
    x1, x2 = x
    b, c, t = 5.1 / (4 * math.pi ** 2), 5 / math.pi, 1 / (8 * math.pi)
    return (x2 - b * x1 ** 2 + c * x1 - 6) ** 2 + 10 * (1 - t) * math.cos(x1) + 10


def _hartmann6(x):
    return -sum(alpha * math.exp(-sum(a * (xi - p) ** 2 for a, xi, p in zip(arow, x, prow)))
                for alpha, arow, prow in zip(_H6_ALPHA, _H6_A, _H6_P))


FORMULAS = {"branin": _branin, "hartmann6": _hartmann6}


def parse_trace(text: str):
    """Split a trace CSV into (header, rows of raw field strings)."""
    lines = text.strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def scientific_text(text: str) -> str:
    """The trace without its wall-clock columns: the bitwise-deterministic part."""
    header, rows = parse_trace(text)
    keep = [i for i, c in enumerate(header) if c not in TIMING_COLUMNS]
    return "\n".join(",".join(r[i] for i in keep) for r in [header] + rows) + "\n"


def fingerprint(texts) -> str:
    """sha256 over the scientific columns of several traces, in order."""
    digest = hashlib.sha256()
    for text in texts:
        digest.update(scientific_text(text).encode("utf-8"))
    return digest.hexdigest()


def _expected_value(benchmark: str, point, table):
    """(value, error): the objective at a traced point, or why it is not valid."""
    if table is not None:
        levels = tuple(int(round(c * (GRID_LEVELS - 1))) for c in point)
        if any(lv / (GRID_LEVELS - 1) != c for lv, c in zip(levels, point)) \
                or levels not in table:
            return None, f"point {point} is not a table row"
        return table[levels], None
    low, high = BOXES[benchmark]
    if any(not lo <= c <= hi for c, lo, hi in zip(point, low, high)):
        return None, f"point {point} outside the box"
    return FORMULAS[benchmark](point), None


def check_trace(text: str, benchmark: str, n_init: int, n_iters: int, table=None) -> list:
    """Validate one run's trace; returns error strings (empty when it passes)."""
    header, rows = parse_trace(text)
    dim = len(header) - 7
    expected = ["iter"] + [f"x{i}" for i in range(dim)] \
        + ["y", "incumbent", "regret", *TIMING_COLUMNS]
    if header != expected:
        return [f"header {header}"]
    if len(rows) != n_init + n_iters:
        return [f"{len(rows)} rows, expected {n_init + n_iters}"]
    errors = []
    iters = [int(r[0]) for r in rows]
    if iters != [0] * n_init + list(range(1, n_iters + 1)):
        errors.append("iteration column out of sequence")
    data = np.array([[float(v) for v in r[1:]] for r in rows])
    if not np.isfinite(data).all():
        return errors + ["non-finite values"]
    points, y, inc, regret = data[:, :dim], data[:, dim], data[:, dim + 1], data[:, dim + 2]
    if (data[:, dim + 3:] < 0).any():
        errors.append("negative timing")
    if (np.diff(inc) > 0).any():
        errors.append("incumbent increased")
    if not np.array_equal(inc, np.minimum.accumulate(y)):
        errors.append("incumbent is not the running minimum")
    if (regret < 0).any():
        errors.append("negative regret")
    optimum = min(table.values()) if table is not None else OPTIMA[benchmark]
    if np.abs(regret - (inc - optimum)).max() > OPTIMUM_TOL:
        errors.append("regret is not incumbent minus the optimum")
    for i, (point, value) in enumerate(zip(points, y)):
        truth, problem = _expected_value(benchmark, point.tolist(), table)
        if problem:
            errors.append(f"row {i}: {problem}")
        elif abs(truth - value) > VALUE_TOL * max(1.0, abs(truth)):
            errors.append(f"row {i}: y={value!r} but the objective gives {truth!r}")
    return errors
