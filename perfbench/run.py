"""popbo benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload hartmann6-eri --seed 0 --seconds 45 --trace 0

A round runs `popbo.harness.run_experiment(workers=1)` once per BO seed of
the workload, in this process, and checks every trace it writes.  With
`--trace 0` one full round runs and its BO seeds then keep cycling until
`--seconds` are spent, and the end-to-end metrics are printed.  With
`--trace 1` one untraced round of the workload's first `trace_seeds` BO
seeds is followed by one traced round of the same seeds; the traced round
must reproduce the untraced scientific columns byte for byte, and the
per-layer metrics are printed.  Metric names and units come from
BENCHMARK.json.  The graded timing figures of `--trace 0` are corrected for
the host's speed, measured by the reference kernel of hostspeed.py.  The last
stdout line is the result object; the line before it carries information
that is not graded (environment, fingerprint, median final regret, sample
counts, host slowdown, timings as measured).  Outputs go to perfbench/.out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from hostspeed import HostSpeed
from workloads import REPO, WORKLOADS, import_popbo, prepare

BENCH_DIR = Path(__file__).resolve().parent
OUT = BENCH_DIR / ".out"
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 120
WARMUP_SEED = 10 ** 9
WARMUP_ITERS = 2


@dataclass
class Round:
    """Traces and timings of one pass over a workload's BO seeds."""

    texts: dict = field(default_factory=dict)  # BO seed -> trace CSV text
    failed: dict = field(default_factory=dict)  # BO seed -> error repr
    walls: dict = field(default_factory=dict)  # BO seed -> run_experiment wall s

    @property
    def attempted(self) -> int:
        return len(self.walls)

    @property
    def model_steps(self) -> int:
        return sum(len(step_times(t)) for t in self.texts.values())

    def steps_ms(self, columns=checks.TIMING_COLUMNS, seed=None) -> list:
        """Per model-driven iteration times in ms, over all completed seeds or one."""
        texts = self.texts.values() if seed is None else [self.texts[seed]]
        return [1e3 * t for text in texts for t in step_times(text, columns)]


def step_times(text: str, columns=checks.TIMING_COLUMNS) -> list:
    """Per model-driven iteration, the sum of the named timing columns, in s."""
    header, rows = checks.parse_trace(text)
    idx = [header.index(c) for c in columns]
    return [sum(float(r[i]) for i in idx) for r in rows if r[0] != "0"]


def run_round(inputs, seeds, out_dir: Path, run_experiment, deadline=None, host=None) -> Round:
    """One run per BO seed, in order; with a deadline, no run starts after it.

    With a HostSpeed, its kernel is timed between runs.
    """
    from popbo.errors import PopboError
    from popbo.harness import ExperimentConfig

    w = inputs.workload
    rnd = Round()
    for seed in seeds:
        if deadline is not None and time.perf_counter() > deadline:
            break
        cfg = ExperimentConfig(benchmark=inputs.benchmark_arg, method=w.method, seeds=(seed,),
                               n_init=w.n_init, n_iters=w.n_iters, out_dir=str(out_dir),
                               workers=1)
        t0 = time.perf_counter()
        try:
            paths = run_experiment(cfg)
            rnd.walls[seed] = time.perf_counter() - t0
            rnd.texts[seed] = Path(paths[0]).read_text(encoding="utf-8")
        except PopboError as exc:
            rnd.walls[seed] = time.perf_counter() - t0
            rnd.failed[seed] = repr(exc)
        if host is not None:
            host.maybe_sample()
    return rnd


def check_round(rnd: Round, inputs) -> list:
    w = inputs.workload
    errors = []
    for seed, text in rnd.texts.items():
        errors += [f"seed {seed}: {e}" for e in
                   checks.check_trace(text, w.benchmark, w.n_init, w.n_iters, inputs.table)]
    return errors


def measure_setup(workload, seed: int, work_dir: Path) -> list:
    """Wall seconds of fresh processes that import popbo and prepare the inputs."""
    times = []
    for i in range(SETUP_SAMPLES):
        probe_dir = work_dir / f"setup{i}"
        probe_dir.mkdir()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), workload.name,
                        str(seed), str(probe_dir)],
                       check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def warm_up(inputs, out_dir: Path):
    """One short run so lazy imports and first-call costs land outside timing."""
    from popbo.harness import ExperimentConfig, run_experiment

    w = inputs.workload
    run_experiment(ExperimentConfig(benchmark=inputs.benchmark_arg, method=w.method,
                                    seeds=(WARMUP_SEED,), n_init=w.n_init,
                                    n_iters=WARMUP_ITERS, out_dir=str(out_dir)))


def percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((REPO / "src" / "popbo").glob("*.py")))
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "src_popbo_lines": src_lines,
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var)
    return env


def measure_end_to_end(inputs, work: Path, seconds: float, host: HostSpeed):
    """Run one full round, then keep cycling its BO seeds until `seconds` are spent.

    The last round may be partial.  Each step's time is the median of its
    repeats, and each BO seed's wall time likewise.  The three timing figures
    are then divided by the host's slowdown against the reference kernel of
    hostspeed.py (iters_per_s multiplied); `info.raw` keeps them as measured.
    """
    from popbo.harness import run_experiment

    rounds, errors = [], []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        rnd = run_round(inputs, inputs.bo_seeds, work / f"round{len(rounds)}", run_experiment,
                        deadline if rounds else None, host)
        rounds.append(rnd)
        errors += check_round(rnd, inputs)
    first = rounds[0]
    for i, rnd in enumerate(rounds[1:], 1):
        for seed in rnd.walls:
            if (seed in rnd.failed) != (seed in first.failed) or (
                    seed in rnd.texts and checks.scientific_text(rnd.texts[seed])
                    != checks.scientific_text(first.texts[seed])):
                errors.append(f"round {i}, BO seed {seed}: differs from round 0")
    steps = []
    for seed in first.texts:
        repeats = [r.steps_ms(seed=seed) for r in rounds if seed in r.texts]
        steps += [statistics.median(times) for times in zip(*repeats)]
    wall = sum(statistics.median(r.walls[seed] for r in rounds if seed in r.walls)
               for seed in first.walls)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(len(r.failed) for r in rounds)
    if not steps:
        errors.append("no run completed")
        steps = [float("nan")]
    raw = {
        "iters_per_s": first.model_steps / wall,
        "step_ms_p50": percentile(steps, 50),
        "step_ms_p90": percentile(steps, 90),
    }
    slowdown = host.slowdown()
    metrics = {
        "iters_per_s": raw["iters_per_s"] * slowdown,
        "step_ms_p50": raw["step_ms_p50"] / slowdown,
        "step_ms_p90": raw["step_ms_p90"] / slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (attempted - failed) / attempted,
    }
    info = {"rounds": round(attempted / first.attempted, 2), "step_samples": len(steps),
            "host_slowdown": slowdown, "host_samples": len(host.samples), "raw": raw,
            "round_iters_per_s": [r.model_steps / sum(r.walls.values()) for r in rounds
                                  if r.model_steps]}
    return first, metrics, info, attempted, failed, errors


def measure_per_layer(inputs, work: Path, span_path: Path):
    """One untraced round, then the same round traced from outside."""
    from popbo.harness import run_experiment
    from tracer import ROOT, Tracer

    seeds = inputs.bo_seeds[:inputs.workload.trace_seeds]
    plain = run_round(inputs, seeds, work / "plain", run_experiment)
    tracer = Tracer()
    with tracer.installed():
        traced = run_round(inputs, seeds, work / "traced", tracer.wrap(ROOT, run_experiment))
    tracer.write(span_path)

    errors = check_round(plain, inputs) + check_round(traced, inputs)
    if traced.failed.keys() != plain.failed.keys():
        errors.append("traced and untraced rounds failed on different seeds")
    for seed, text in plain.texts.items():
        if seed in traced.texts and \
                checks.scientific_text(text) != checks.scientific_text(traced.texts[seed]):
            errors.append(f"seed {seed}: traced scientific columns differ from untraced")

    fit_ms = plain.steps_ms(("fit_s",)) or [0.0]
    propose_ms = plain.steps_ms(("propose_s",)) or [0.0]
    metrics = tracer.layer_metrics(traced.model_steps)
    metrics.update({
        "surrogate.fit_ms_p50": percentile(fit_ms, 50),
        "acquisition.propose_ms_p50": percentile(propose_ms, 50),
        "acquisition.propose_ms_p90": percentile(propose_ms, 90),
        # Both rounds do the same iterations, so the iters_per_s ratio is a wall ratio.
        "trace.overhead_frac": 1.0 - sum(plain.walls.values()) / sum(traced.walls.values()),
    })
    info = {"spans": len(tracer.spans), "span_file": str(span_path.relative_to(REPO)),
            "proposals": tracer.proposals, "fits": tracer.fits,
            "adam_steps": tracer.adam_steps, "fits_restored": tracer.fits_restored,
            "rectified_winners": tracer.rectified_winners}
    attempted = plain.attempted + traced.attempted
    failed = len(plain.failed) + len(traced.failed)
    return plain, metrics, info, attempted, failed, errors


def run_workload(workload, seed: int, seconds: float, trace: bool):
    """Measure one workload; returns (result, info, first round)."""
    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
    work = Path(tempfile.mkdtemp(prefix=tag + "-", dir=OUT))
    try:
        setup_s = measure_setup(workload, seed, work)
        inputs = prepare(workload, seed, work)
        warm_up(inputs, work / "warmup")
        if trace:
            first, metrics, info, attempted, failed, errors = measure_per_layer(
                inputs, work, OUT / f"spans-{tag}.csv.gz")
        else:
            with HostSpeed() as host:
                first, metrics, info, attempted, failed, errors = measure_end_to_end(
                    inputs, work, seconds, host)
            metrics["setup_s"] = statistics.median(setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in SPEC["per_layer" if trace else "end_to_end"]},
    }
    regrets = [float(checks.parse_trace(t)[1][-1][-4]) for t in first.texts.values()]
    info.update({
        "workload": workload.name,
        "seed": seed,
        "bo_seeds": list(first.walls),
        "failed_runs": first.failed,
        "setup_samples_s": setup_s,
        "fingerprint_sha256": checks.fingerprint(first.texts.values()),
        "median_final_regret": statistics.median(regrets) if regrets else None,
        "errors": errors[:20],
        "environment": environment(),
    })
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=2) + "\n", encoding="utf-8")
    return result, info, first


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    import_popbo()
    result, info, _ = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                   bool(args.trace))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
