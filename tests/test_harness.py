"""Tests for the experiment harness: baselines, trace files, summaries."""

import math
import multiprocessing
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import popbo.engine as engine
import popbo.harness as harness
from popbo.benchmarks import TabularBenchmark, get_benchmark
from popbo.engine import BoRunConfig, run
from popbo.errors import (DomainError, EvaluationFailedError, InputError, PreconditionError,
                          TrainingDivergedError)
from popbo.harness import (
    METHODS,
    ExperimentConfig,
    default_n_init,
    random_search_baseline,
    read_trace_csv,
    resolve_benchmark,
    run_experiment,
    summarize_traces,
    summary_path,
    trace_path,
    write_trace_csv,
)
from popbo.surrogate import TrainConfig

BRANIN = get_benchmark("branin")


def _branin_nan_at(point, x):
    # Module level, so a worker process can unpickle it by name under any
    # start method (fork, spawn, forkserver).
    return math.nan if np.array_equal(x, point) else BRANIN.fn(x)


class TestExperimentConfig:
    def test_methods_registry(self):
        assert METHODS == ("popbo-rlcb", "popbo-eri", "random-search")

    def test_rejects_unknown_method(self):
        with pytest.raises(DomainError):
            ExperimentConfig(benchmark="branin", method="grid-search")

    def test_rejects_empty_seeds(self):
        with pytest.raises(DomainError):
            ExperimentConfig(benchmark="branin", method="random-search", seeds=())

    def test_rejects_repeated_seeds(self):
        # Each seed writes one trace file and counts once in the summary.
        with pytest.raises(DomainError, match="distinct"):
            ExperimentConfig(benchmark="branin", method="random-search", seeds=(0, 0, 1))

    def test_seeds_coerced_to_ints(self):
        cfg = ExperimentConfig(benchmark="branin", method="random-search",
                               seeds=["3", 4])
        assert cfg.seeds == (3, 4)

    # seeds=(1.5,) once became seed 1, seeds=(-1,) failed inside numpy's
    # generator and workers=1.5 passed the check.
    @pytest.mark.parametrize("field,value", [
        ("seeds", (1.5,)), ("seeds", (-1,)), ("seeds", (0, True)), ("seeds", ("1.5",)),
        ("seeds", ("-1",)), ("workers", 1.5), ("workers", 0), ("workers", True),
    ])
    def test_rejects_settings_that_are_not_counts(self, field, value):
        with pytest.raises(DomainError, match=field):
            ExperimentConfig(benchmark="branin", method="random-search", **{field: value})

    # NaN once ran silently noiseless: it fails "< 0" and "> 0" alike.
    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -0.5])
    def test_rejects_noise_sigma_that_is_not_finite_and_nonnegative(self, sigma):
        with pytest.raises(DomainError, match="noise_sigma"):
            ExperimentConfig(benchmark="branin", method="random-search", noise_sigma=sigma)

    def test_numpy_integer_seeds_and_workers_accepted(self):
        cfg = ExperimentConfig(benchmark="branin", method="random-search",
                               seeds=(np.int64(0), np.int32(7)), workers=np.int64(2))
        assert cfg.seeds == (0, 7) and all(type(s) is int for s in cfg.seeds)


class TestResolveBenchmark:
    def test_registry_name(self):
        assert resolve_benchmark("branin").name == "branin"

    def test_csv_path(self, tmp_path):
        p = tmp_path / "grid.csv"
        p.write_text("a,value\n1,0.5\n2,0.25\n", encoding="utf-8")
        bench = resolve_benchmark(str(p))
        assert bench.name == "grid"
        assert bench.optimum == 0.25

    def test_unknown_rejected(self):
        with pytest.raises(DomainError):
            resolve_benchmark("no-such-benchmark")

    def test_noise_on_table_rejected(self, tmp_path):
        p = tmp_path / "grid.csv"
        p.write_text("a,value\n1,0.5\n2,0.25\n", encoding="utf-8")
        for sigma in (0.5, math.nan):
            with pytest.raises(DomainError, match="noise"):
                resolve_benchmark(str(p), noise_sigma=sigma)

    def test_default_init_sizes(self):
        assert default_n_init("rosenbrock6") == 30
        assert default_n_init("branin") == 12


class TestRandomSearchBaseline:
    def test_minimal_budget(self):
        trace = random_search_baseline(get_benchmark("branin"), budget=1, seed=0)
        assert len(trace) == 1
        assert trace.records[0].iteration == 0

    def test_zero_budget_rejected(self):
        with pytest.raises(PreconditionError):
            random_search_baseline(get_benchmark("branin"), budget=0, seed=0)

    @pytest.mark.parametrize("setting, value", [("budget", 5.0), ("seed", 1.5), ("seed", -1),
                                                ("n_init", 2.5), ("n_init", 0)])
    def test_bad_counts_rejected_before_any_evaluation(self, setting, value):
        calls = []

        class Counting:
            name, space, optimum, trace_point = "counting", BRANIN.space, None, BRANIN.trace_point

            def evaluate(self, x, rng=None):
                calls.append(x)
                return BRANIN.evaluate(x, rng)

        with pytest.raises(InputError):
            random_search_baseline(Counting(), **{"budget": 5, "seed": 0, setting: value})
        assert calls == []

    def test_deterministic(self):
        bench = get_benchmark("branin", noise_sigma=0.2)
        a = random_search_baseline(bench, budget=10, seed=3, n_init=4)
        b = random_search_baseline(bench, budget=10, seed=3, n_init=4)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.values, b.values)

    def test_iteration_labels(self):
        trace = random_search_baseline(get_benchmark("branin"), budget=6,
                                       seed=0, n_init=4)
        assert [r.iteration for r in trace.records] == [0, 0, 0, 0, 1, 2]

    def test_shares_initial_block_with_model_run(self):
        # Identical seed and n_init must give bitwise-identical init rows,
        # noise included, so regret comparisons are paired.
        bench = get_benchmark("branin", noise_sigma=0.4)
        rs = random_search_baseline(bench, budget=7, seed=9, n_init=4)
        bo = run(bench, BoRunConfig(n_init=4, n_iters=0, seed=9,
                                    surrogate=TrainConfig(steps=5), hidden=(8,)))
        np.testing.assert_array_equal(rs.points[:4], bo.points)
        np.testing.assert_array_equal(rs.values[:4], bo.values)

    class NanOnThird:
        """Branin that returns NaN on its third evaluation."""

        def __init__(self):
            self.base = get_benchmark("branin")
            self.name, self.space, self.optimum = "nan", self.base.space, self.base.optimum
            self.trace_point = self.base.trace_point
            self.calls = 0

        def evaluate(self, x, rng=None):
            self.calls += 1
            return math.nan if self.calls == 3 else self.base.evaluate(x, rng)

    @pytest.mark.parametrize("n_init", [4, 2])
    def test_nan_observation_raises_with_partial_trace(self, n_init):
        with pytest.raises(EvaluationFailedError) as info:
            random_search_baseline(self.NanOnThird(), budget=6, seed=0, n_init=n_init)
        assert len(info.value.trace) == 2
        assert all(math.isfinite(r.value) for r in info.value.trace.records)

    def test_evaluation_exception_is_typed(self):
        bench = get_benchmark("branin")

        class Broken:
            name, space, optimum, trace_point = "broken", bench.space, None, bench.trace_point

            def evaluate(self, x, rng=None):
                raise RuntimeError("sensor offline")

        with pytest.raises(EvaluationFailedError) as info:
            random_search_baseline(Broken(), budget=3, seed=0)
        assert len(info.value.trace) == 0
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_incumbent_monotone(self):
        trace = random_search_baseline(get_benchmark("branin"), budget=30, seed=1)
        incs = [r.incumbent for r in trace.records]
        assert all(b <= a for a, b in zip(incs, incs[1:]))


class TestTraceCsv:
    def test_schema_and_round_trip(self, tmp_path):
        trace = random_search_baseline(get_benchmark("branin"), budget=5,
                                       seed=2, n_init=3)
        path = write_trace_csv(trace, tmp_path / "t.csv")
        header, rows = read_trace_csv(path)
        assert header == ["iter", "x0", "x1", "y", "incumbent", "regret",
                          "fit_s", "propose_s", "eval_s"]
        assert len(rows) == 5
        for rec, row in zip(trace.records, rows):
            assert row[0] == rec.iteration
            assert row[1] == rec.point[0] and row[2] == rec.point[1]
            assert row[3] == rec.value
            assert row[4] == rec.incumbent
            assert row[5] == rec.regret

    def test_reread_is_lossless(self, tmp_path):
        # repr-formatted floats parse back to the identical doubles.
        trace = random_search_baseline(get_benchmark("hartmann6"), budget=4, seed=0)
        path = write_trace_csv(trace, tmp_path / "t.csv")
        _, rows = read_trace_csv(path)
        values = np.array([row[7] for row in rows])
        np.testing.assert_array_equal(values, trace.values)

    def test_ragged_file_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("iter,x0,y\n0,0.5\n", encoding="utf-8")
        with pytest.raises(InputError):
            read_trace_csv(p)

    def test_path_helpers(self, tmp_path):
        assert trace_path(tmp_path, "popbo-eri", "branin", 7).name \
            == "popbo-eri_branin_seed7.csv"
        assert summary_path(tmp_path, "popbo-eri", "branin").name \
            == "popbo-eri_branin_summary.csv"


class TestSummaries:
    def write_traces(self, tmp_path, seeds, budget=8, n_init=3):
        bench = get_benchmark("branin")
        paths = []
        for s in seeds:
            trace = random_search_baseline(bench, budget=budget, seed=s,
                                           n_init=n_init)
            paths.append(write_trace_csv(trace, tmp_path / f"seed{s}.csv"))
        return paths

    def test_header_and_seed_count(self, tmp_path):
        paths = self.write_traces(tmp_path, range(5))
        out = summarize_traces(paths, tmp_path / "summary.csv")
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == ("iter,n_seeds,median_regret,stderr_regret,"
                            "median_incumbent,stderr_incumbent")
        for line in lines[1:]:
            assert line.split(",")[1] == "5"

    def test_initial_block_collapses_to_final_state(self, tmp_path):
        paths = self.write_traces(tmp_path, [0])
        out = summarize_traces(paths, tmp_path / "summary.csv")
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        first = lines[1].split(",")
        _, rows = read_trace_csv(paths[0])
        block_rows = [r for r in rows if r[0] == 0]
        assert first[0] == "0"
        assert float(first[4]) == block_rows[-1][4]

    def test_single_seed_stderr_is_zero(self, tmp_path):
        paths = self.write_traces(tmp_path, [0])
        out = summarize_traces(paths, tmp_path / "summary.csv")
        for line in out.read_text(encoding="utf-8").strip().split("\n")[1:]:
            parts = line.split(",")
            assert parts[3] == "0.0" and parts[5] == "0.0"

    def test_median_incumbent_non_increasing(self, tmp_path):
        paths = self.write_traces(tmp_path, range(4), budget=20)
        out = summarize_traces(paths, tmp_path / "summary.csv")
        meds = [float(line.split(",")[4])
                for line in out.read_text(encoding="utf-8").strip().split("\n")[1:]]
        assert all(b <= a for a, b in zip(meds, meds[1:]))

    def test_regeneration_is_byte_identical(self, tmp_path):
        paths = self.write_traces(tmp_path, range(3))
        first = summarize_traces(paths, tmp_path / "summary.csv").read_bytes()
        second = summarize_traces(paths, tmp_path / "summary.csv").read_bytes()
        assert first == second

    def test_stderr_matches_sample_formula(self, tmp_path):
        paths = self.write_traces(tmp_path, range(4))
        out = summarize_traces(paths, tmp_path / "summary.csv")
        last = out.read_text(encoding="utf-8").strip().split("\n")[-1].split(",")
        finals = []
        for p in paths:
            _, rows = read_trace_csv(p)
            finals.append(rows[-1][5])
        expected = np.std(finals, ddof=1) / math.sqrt(len(finals))
        assert math.isclose(float(last[3]), expected, rel_tol=1e-12)


class TestRunExperiment:
    def test_random_search_writes_traces_and_summary(self, tmp_path):
        cfg = ExperimentConfig(benchmark="branin", method="random-search",
                               seeds=(0, 1), n_init=2, n_iters=3,
                               out_dir=str(tmp_path))
        written = run_experiment(cfg)
        assert [p.name for p in written] == [
            "random-search_branin_seed0.csv",
            "random-search_branin_seed1.csv",
            "random-search_branin_summary.csv",
        ]
        for p in written:
            assert p.exists()

    def test_model_method_runs(self, tmp_path):
        cfg = ExperimentConfig(benchmark="branin", method="popbo-rlcb",
                               seeds=(0,), n_init=3, n_iters=1,
                               out_dir=str(tmp_path))
        written = run_experiment(cfg)
        _, rows = read_trace_csv(written[0])
        assert len(rows) == 4

    def test_eri_k_max_above_n_init_rejected_before_any_evaluation(self, tmp_path,
                                                                    monkeypatch):
        bench = get_benchmark("branin")
        evaluated = []

        class Counting:
            name, space, optimum = bench.name, bench.space, bench.optimum
            trace_point = staticmethod(bench.trace_point)

            def evaluate(self, x, rng):
                evaluated.append(x)
                return bench.evaluate(x, rng)

        monkeypatch.setattr(harness, "resolve_benchmark",
                            lambda name, noise_sigma=0.0: Counting())
        cfg = ExperimentConfig(benchmark="branin", method="popbo-eri", seeds=(0, 1),
                               n_init=3, n_iters=2, k_max=5, out_dir=str(tmp_path))
        with pytest.raises(InputError, match="k_max=5 exceeds n_init=3"):
            run_experiment(cfg)
        assert evaluated == []
        assert list(tmp_path.iterdir()) == []
        # k_max is ERI's alone: random search runs with the same settings.
        run_experiment(replace(cfg, method="random-search"))
        assert len(evaluated) == 2 * (3 + 2)

    @pytest.mark.parametrize("method", ["popbo-rlcb", "random-search"])
    @pytest.mark.parametrize("beta", [-3.0, math.nan])
    def test_bad_beta_rejected_before_any_evaluation(self, tmp_path, monkeypatch, method,
                                                     beta):
        evaluated = []
        counting = replace(BRANIN, fn=lambda x: evaluated.append(x) or BRANIN.fn(x))
        monkeypatch.setattr(harness, "resolve_benchmark",
                            lambda name, noise_sigma=0.0: counting)
        cfg = ExperimentConfig(benchmark="branin", method=method, seeds=(0,), n_init=3,
                               n_iters=2, beta=beta, out_dir=str(tmp_path))
        with pytest.raises(DomainError, match="beta must be finite and >= 0"):
            run_experiment(cfg)
        assert evaluated == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_diverged_fit_writes_the_trace_so_far(self, tmp_path, monkeypatch, workers):
        # The patched fit reaches worker processes only when they are forked.
        if workers > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("worker processes do not inherit the patched fit")
        real_fit = engine.fit

        def fit_failing_second(model, obs, cfg, rng=None):
            if len(obs) == 4:  # the second fit of a run with n_init 3
                raise TrainingDivergedError(0)
            return real_fit(model, obs, cfg, rng=rng)

        monkeypatch.setattr(engine, "fit", fit_failing_second)
        cfg = ExperimentConfig(benchmark="branin", method="popbo-rlcb", seeds=(0, 1),
                               n_init=3, n_iters=3, out_dir=str(tmp_path), workers=workers)
        with pytest.raises(TrainingDivergedError) as info:
            run_experiment(cfg)
        assert len(info.value.trace) == 4
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"popbo-rlcb_branin_seed{s}.csv" for s in (0, 1)]
        for seed in (0, 1):
            _, rows = read_trace_csv(trace_path(tmp_path, "popbo-rlcb", "branin", seed))
            assert [row[0] for row in rows] == [0, 0, 0, 1]

    def test_table_parsed_once_per_experiment(self, tmp_path, monkeypatch):
        table = tmp_path / "grid.csv"
        table.write_text("a,value\n1,0.5\n2,0.25\n3,0.75\n", encoding="utf-8")
        calls = []
        original = TabularBenchmark.from_csv.__func__

        def counting(cls, path):
            calls.append(path)
            return original(cls, path)

        monkeypatch.setattr(TabularBenchmark, "from_csv", classmethod(counting))
        cfg = ExperimentConfig(benchmark=str(table), method="random-search",
                               seeds=(0, 1, 2), n_init=2, n_iters=1,
                               out_dir=str(tmp_path / "out"))
        assert len(run_experiment(cfg)) == 4
        assert len(calls) == 1

    def test_tabular_benchmark_end_to_end(self, tmp_path):
        table = tmp_path / "grid.csv"
        lines = ["a,b,value"]
        for i in range(4):
            for j in range(4):
                lines.append(f"{i},{j},{(i - 1.5) ** 2 + (j - 2) ** 2}")
        table.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = ExperimentConfig(benchmark=str(table), method="random-search",
                               seeds=(0,), n_init=2, n_iters=4,
                               out_dir=str(tmp_path / "out"))
        written = run_experiment(cfg)
        header, rows = read_trace_csv(written[0])
        assert header[:3] == ["iter", "x0", "x1"]
        # Every queried point is a listed configuration on the level grid.
        for row in rows:
            assert row[1] in {0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0}

    def test_parallel_workers_match_serial(self, tmp_path):
        serial = ExperimentConfig(benchmark="branin", method="random-search",
                                  seeds=(0, 1), n_init=2, n_iters=3,
                                  out_dir=str(tmp_path / "serial"), workers=1)
        parallel = ExperimentConfig(benchmark="branin", method="random-search",
                                    seeds=(0, 1), n_init=2, n_iters=3,
                                    out_dir=str(tmp_path / "par"), workers=2)
        a = run_experiment(serial)
        b = run_experiment(parallel)
        assert [p.name for p in a] == [p.name for p in b]
        for pa, pb in zip(a[:2], b[:2]):
            ha, ra = read_trace_csv(pa)
            hb, rb = read_trace_csv(pb)
            assert ha == hb
            for rowa, rowb in zip(ra, rb):
                assert rowa[:6] == rowb[:6]  # timing columns may differ

    def test_failed_seed_contract_is_the_same_for_any_worker_count(self, tmp_path,
                                                                    monkeypatch):
        # Seed 1's fourth query (iteration 2) observes NaN; seeds 0 and 2 do not.
        point = random_search_baseline(BRANIN, 5, 1, 2).records[3].point
        failing = replace(BRANIN, fn=partial(_branin_nan_at, point))
        monkeypatch.setattr(harness, "resolve_benchmark",
                            lambda name, noise_sigma=0.0: failing)
        outcomes = []
        for workers in (1, 2):
            out = tmp_path / f"workers{workers}"
            cfg = ExperimentConfig(benchmark="branin", method="random-search",
                                   seeds=(0, 1, 2), n_init=2, n_iters=3,
                                   out_dir=str(out), workers=workers)
            with pytest.raises(EvaluationFailedError, match="non-finite") as info:
                run_experiment(cfg)
            # Every seed wrote its trace, seed 1 up to the failure; no summary.
            assert sorted(p.name for p in out.iterdir()) == [
                f"random-search_branin_seed{s}.csv" for s in (0, 1, 2)]
            rows = [read_trace_csv(trace_path(out, "random-search", "branin", s))[1]
                    for s in (0, 1, 2)]
            assert [len(r) for r in rows] == [5, 3, 5]
            outcomes.append((str(info.value), len(info.value.trace),
                             [[row[:6] for row in r] for r in rows]))
        assert outcomes[0] == outcomes[1]  # timing columns may differ
