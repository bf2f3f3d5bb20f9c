"""Tests for the optimization loop: trace shape, determinism, invariances."""

import math

import numpy as np
import pytest

import popbo.engine as engine
from popbo.acquisition import AcquisitionConfig
from popbo.benchmarks import BenchmarkFunction, branin, get_benchmark
from popbo.engine import BoRunConfig, RegretTrace, TraceRecord, incumbent, run
from popbo.errors import EvaluationFailedError, InputError, PopboError, PreconditionError
from popbo.surrogate import TrainConfig

FAST_TRAIN = TrainConfig(steps=15)
SMALL_HIDDEN = (8, 8)


def small_config(**overrides):
    base = dict(n_init=4, n_iters=3, seed=0, surrogate=FAST_TRAIN,
                acquisition=AcquisitionConfig(kind="r-lcb"),
                hidden=SMALL_HIDDEN)
    base.update(overrides)
    return BoRunConfig(**base)


def record(iteration, value, incumbent_value=None):
    inc = value if incumbent_value is None else incumbent_value
    return TraceRecord(iteration=iteration, point=np.array([0.0]), value=value,
                       incumbent=inc, regret=math.nan, fit_seconds=0.0,
                       propose_seconds=0.0, eval_seconds=0.0)


class TestConfigValidation:
    def test_rejects_tiny_init(self):
        with pytest.raises(InputError):
            BoRunConfig(n_init=1)

    def test_rejects_negative_iters(self):
        with pytest.raises(InputError):
            BoRunConfig(n_iters=-1)

    def test_rejects_eri_k_max_above_n_init(self):
        # The first proposal ranks against n_init points; ERI's k_max above
        # that would fail only after the initial block was evaluated.
        with pytest.raises(InputError, match="k_max=5 exceeds n_init=3"):
            BoRunConfig(n_init=3, acquisition=AcquisitionConfig(kind="eri", k_max=5))
        BoRunConfig(n_init=5, acquisition=AcquisitionConfig(kind="eri", k_max=5))
        BoRunConfig(n_init=3, acquisition=AcquisitionConfig(kind="r-lcb", k_max=5))

    @pytest.mark.parametrize("field,value", [
        ("hidden", (0,)), ("hidden", (-1,)), ("hidden", (2.5,)), ("hidden", (8, True)),
        ("n_init", 4.0), ("n_iters", 2.5),
    ])
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(InputError, match=field):
            small_config(**{field: value})

    @pytest.mark.parametrize("seed", [-1, 2.5, True, "3"])
    def test_rejects_seed_that_is_not_a_count(self, seed):
        with pytest.raises(InputError, match="seed"):
            BoRunConfig(seed=seed)

    def test_numpy_integer_counts_accepted(self):
        cfg = small_config(n_init=np.int64(4), n_iters=np.int32(0), hidden=(np.int64(8),))
        assert len(run(get_benchmark("branin"), cfg)) == 4

    # Each of these once failed mid-run with an untyped error, after the
    # initial block's evaluations were spent; now the config rejects them.
    @pytest.mark.parametrize("overrides", [
        lambda: dict(acquisition=AcquisitionConfig(kind="eri", k_max=2.5)),
        lambda: dict(surrogate=TrainConfig(steps=2.5)),
        lambda: dict(surrogate=TrainConfig(batch_size=2.5)),
        lambda: dict(hidden=(0,)),
    ], ids=["k_max", "steps", "batch_size", "hidden"])
    def test_run_raises_before_any_evaluation(self, overrides):
        calls = []

        def counted(x):
            calls.append(x)
            return float(np.sum(x))

        objective = BenchmarkFunction("counted", 2, [[0.0, 1.0], [0.0, 1.0]], counted)
        with pytest.raises(PopboError):
            run(objective, small_config(**overrides()))
        assert calls == []


class TestIncumbent:
    def test_strict_minimum(self):
        trace = RegretTrace("t", 1, None,
                            [record(0, 3.0), record(1, 1.0), record(2, 2.0)])
        _, best = incumbent(trace)
        assert best == 1.0

    def test_tie_goes_to_earliest(self):
        trace = RegretTrace("t", 1, None, [
            TraceRecord(0, np.array([0.1]), 2.0, 2.0, math.nan, 0, 0, 0),
            TraceRecord(1, np.array([0.2]), 1.0, 1.0, math.nan, 0, 0, 0),
            TraceRecord(2, np.array([0.3]), 1.0, 1.0, math.nan, 0, 0, 0),
        ])
        point, best = incumbent(trace)
        assert best == 1.0
        np.testing.assert_array_equal(point, [0.2])

    def test_empty_trace_rejected(self):
        with pytest.raises(PreconditionError):
            incumbent(RegretTrace("t", 1, None, []))


class TestRunShape:
    def test_zero_iterations_yields_init_block_only(self):
        trace = run(get_benchmark("branin"), small_config(n_iters=0))
        assert len(trace) == 4
        assert all(r.iteration == 0 for r in trace.records)

    def test_record_count_is_init_plus_iters(self):
        trace = run(get_benchmark("branin"), small_config())
        assert len(trace) == 4 + 3
        assert [r.iteration for r in trace.records] == [0, 0, 0, 0, 1, 2, 3]

    def test_points_are_raw_coordinates(self):
        bench = get_benchmark("branin")
        trace = run(bench, small_config())
        pts = trace.points
        assert (pts[:, 0] >= -5.0).all() and (pts[:, 0] <= 10.0).all()
        assert (pts[:, 1] >= 0.0).all() and (pts[:, 1] <= 15.0).all()

    def test_incumbent_column_is_running_minimum(self):
        trace = run(get_benchmark("branin"), small_config(n_iters=4))
        running = np.minimum.accumulate(trace.values)
        np.testing.assert_array_equal([r.incumbent for r in trace.records], running)

    def test_regret_is_incumbent_minus_optimum(self):
        bench = get_benchmark("branin")
        trace = run(bench, small_config())
        for r in trace.records:
            assert r.regret == r.incumbent - bench.optimum
            assert r.regret >= 0.0

    def test_unknown_optimum_gives_nan_regret(self):
        bench = BenchmarkFunction("anon", 2, [[-5.0, 10.0], [0.0, 15.0]],
                                  branin, optimum=None)
        trace = run(bench, small_config(n_iters=1))
        assert all(math.isnan(r.regret) for r in trace.records)

    def test_final_regret_property(self):
        trace = run(get_benchmark("branin"), small_config())
        assert trace.final_regret == trace.records[-1].regret


class TestDeterminism:
    def test_rerun_is_bitwise_identical(self):
        cfg = small_config(n_iters=4, seed=11)
        a = run(get_benchmark("branin"), cfg)
        b = run(get_benchmark("branin"), cfg)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.values, b.values)

    def test_seed_changes_queries(self):
        a = run(get_benchmark("branin"), small_config(seed=0))
        b = run(get_benchmark("branin"), small_config(seed=1))
        assert not np.array_equal(a.points, b.points)

    def test_noisy_rerun_is_bitwise_identical(self):
        bench = get_benchmark("branin", noise_sigma=0.3)
        cfg = small_config(seed=5)
        a = run(bench, cfg)
        b = run(bench, cfg)
        np.testing.assert_array_equal(a.values, b.values)

    def test_query_sequence_invariant_under_increasing_transform(self):
        # The loop sees only ranks, so warping the observed values with a
        # strictly increasing map must not move a single query.
        base = get_benchmark("branin")

        def warped_fn(x_raw):
            return math.exp(branin(x_raw) / 10.0)

        warped = BenchmarkFunction("branin-warped", 2, base.bounds, warped_fn,
                                   optimum=None)
        cfg = small_config(n_init=5, n_iters=5, seed=3)
        a = run(base, cfg)
        b = run(warped, cfg)
        np.testing.assert_array_equal(a.points, b.points)

    def test_one_network_warm_started_across_iterations(self, monkeypatch):
        fitted = []
        real_fit = engine.fit

        def spy(model, obs, cfg, rng=None):
            fitted.append(model)
            return real_fit(model, obs, cfg, rng=rng)

        monkeypatch.setattr(engine, "fit", spy)
        run(get_benchmark("branin"), small_config(n_iters=4, seed=2))
        assert len(fitted) == 4
        assert all(model is fitted[0] for model in fitted)

    @pytest.mark.parametrize("steps", [100, 15])
    def test_warm_fits_run_at_most_warm_steps(self, monkeypatch, steps):
        seen = []
        real_fit = engine.fit

        def spy(model, obs, cfg, rng=None):
            seen.append((cfg.steps, model.adam_state is None))
            return real_fit(model, obs, cfg, rng=rng)

        monkeypatch.setattr(engine, "fit", spy)
        run(get_benchmark("branin"),
            small_config(n_iters=3, surrogate=TrainConfig(steps=steps)))
        warm = min(steps, engine._WARM_STEPS)
        assert [s for s, _ in seen] == [steps, warm, warm]
        assert seen[0][1]  # the first fit starts ADAM cold


class TestEvaluationFailure:
    class Flaky:
        """Objective that blows up on its sixth evaluation."""

        def __init__(self):
            self.base = get_benchmark("branin")
            self.calls = 0
            self.name = "flaky"
            self.space = self.base.space
            self.optimum = self.base.optimum
            self.trace_point = self.base.trace_point

        def evaluate(self, x, rng=None):
            self.calls += 1
            if self.calls == 6:
                raise RuntimeError("sensor offline")
            return self.base.evaluate(x, rng)

    def test_partial_trace_attached(self):
        with pytest.raises(EvaluationFailedError) as info:
            run(self.Flaky(), small_config(n_iters=5))
        assert len(info.value.trace) == 5  # 4 init + 1 completed iteration

    def test_non_finite_observation_aborts(self):
        bench = BenchmarkFunction("inf", 1, [[0.0, 1.0]],
                                  lambda x: math.inf, optimum=None)
        with pytest.raises(EvaluationFailedError):
            run(bench, small_config(n_iters=1))
