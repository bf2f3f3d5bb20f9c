"""Smoke test of the benchmark itself, on shortened workloads.

Usage (from the repository root; about a minute):

    python3 perfbench/smoke.py

Asserts that
  * every workload of BENCHMARK.json emits every end-to-end and per-layer metric with its unit,
    and its outputs pass the checks;
  * counts repeat exactly across two traced runs of the same seed;
  * the output checks fire on corrupted traces;
  * without popbo's sources the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import run
from workloads import REPO, WORKLOADS, grid_table, import_popbo

SHORT = {"n_seeds": 1, "trace_seeds": 1, "n_iters": 4}
# Per-layer metrics in these units are counts or ratios of counts, so they
# repeat exactly between two traced runs of the same code and seed.
EXACT_UNITS = ("count", "calls/propose", "count/count")
EXACT = {m["name"] for m in run.SPEC["per_layer"] if m["unit"] in EXACT_UNITS}


def check_metrics(result: dict, table):
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0, result
    names = [m["name"] for m in table]
    assert list(result["metrics"]) == names, sorted(set(names) ^ set(result["metrics"]))
    for m in table:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"] and math.isfinite(entry["value"]), (m, entry)


def edit(text: str, row: int, column: str, value: str) -> str:
    """The trace with one field replaced."""
    header, rows = checks.parse_trace(text)
    rows[row][header.index(column)] = value
    return "\n".join(",".join(r) for r in [header] + rows) + "\n"


def corruptions(text: str):
    """(label, corrupted trace) pairs, each of which the checks must reject."""
    header, rows = checks.parse_trace(text)
    col = {c: i for i, c in enumerate(header)}
    last = len(rows) - 1
    yield "missing row", "\n".join(text.strip().split("\n")[:-1]) + "\n"
    yield "non-finite y", edit(text, last, "y", "nan")
    yield "incumbent increased", edit(text, last, "incumbent", repr(float(rows[last - 1][col["incumbent"]]) + 1))
    yield "negative regret", edit(text, last, "regret", "-1.0")
    yield "point outside", edit(text, last, "x0", "1e6")
    yield "wrong y", edit(text, 0, "y", repr(float(rows[0][col["y"]]) + 0.5))


def check_corruptions(workload, text: str, table):
    args = (workload.benchmark, workload.n_init, workload.n_iters, table)
    assert checks.check_trace(text, *args) == [], checks.check_trace(text, *args)
    for label, bad in corruptions(text):
        assert checks.check_trace(bad, *args), f"{workload.name}: checks missed {label}"
    retimed = edit(text, -1, "eval_s", "0.0")
    assert checks.scientific_text(retimed) == checks.scientific_text(text)
    assert checks.scientific_text(dict(corruptions(text))["wrong y"]) != checks.scientific_text(text)


def check_missing_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(REPO / "BENCHMARK.json", tmp)
        shutil.copytree(REPO / "perfbench", Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns(".out", "__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid4-table",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc


def main():
    import_popbo()
    check_missing_sources()
    for entry in run.SPEC["workloads"]:
        workload = WORKLOADS[entry["name"]]
        short = dataclasses.replace(workload, **SHORT)
        result, _, first = run.run_workload(short, 0, 1.0, trace=False)
        check_metrics(result, run.SPEC["end_to_end"])
        (text,) = first.texts.values()
        check_corruptions(short, text, grid_table(0) if short.benchmark == "grid4" else None)
        traced = [run.run_workload(short, 0, 1.0, trace=True)[0] for _ in range(2)]
        for result in traced:
            check_metrics(result, run.SPEC["per_layer"])
        counts = [{k: v["value"] for k, v in r["metrics"].items() if k in EXACT} for r in traced]
        assert counts[0] == counts[1], counts
        print(f"{workload.name}: ok {json.dumps(counts[0])}")
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
