"""Tests for benchmark objectives, noise handling, tables, and the 1-d study."""

import math

import numpy as np
import pytest
from scipy.stats import spearmanr

from popbo.benchmarks import (
    BENCHMARK_NAMES,
    BRANIN_MIN,
    FORRESTER_MIN,
    HARTMANN6_MIN,
    TabularBenchmark,
    _average_ranks,
    _spearman,
    branin,
    forrester,
    forrester_ranking_study,
    get_benchmark,
    hartmann6,
    rosenbrock,
)
from popbo.errors import DomainError, InputError
from popbo.surrogate import TrainConfig


class TestClosedForms:
    @pytest.mark.parametrize("x", [(-math.pi, 12.275), (math.pi, 2.275),
                                   (9.42478, 2.475)])
    def test_branin_minima(self, x):
        assert abs(branin(x) - BRANIN_MIN) < 1e-5

    def test_hartmann6_minimum(self):
        x_star = [0.20169, 0.150011, 0.476874, 0.275332, 0.311652, 0.6573]
        assert abs(hartmann6(x_star) - HARTMANN6_MIN) < 1e-4
        assert abs(hartmann6(x_star) - (-3.32237)) < 1e-4

    def test_rosenbrock_zero_at_ones(self):
        assert rosenbrock(np.ones(6)) == 0.0
        assert rosenbrock(np.zeros(6)) > 0.0

    def test_forrester_shape(self):
        # (6x-2)^2 sin(12x-4): zero at x = 1/3, negative near the minimum.
        assert abs(forrester(1.0 / 3.0)) < 1e-12
        assert forrester(0.757249) < -6.0

    def test_forrester_frozen_minimum(self):
        xs = np.linspace(0.0, 0.8, 200001)
        best = min(forrester(float(x)) for x in xs)
        assert abs(best - FORRESTER_MIN) < 1e-7


class TestRegistry:
    def test_names_and_dims(self):
        dims = {"forrester": 1, "branin": 2, "hartmann6": 6, "rosenbrock6": 6}
        assert set(BENCHMARK_NAMES) == set(dims)
        for name, dim in dims.items():
            bench = get_benchmark(name)
            assert bench.dim == dim
            assert bench.space.dim == dim

    def test_unknown_name_rejected(self):
        with pytest.raises(DomainError):
            get_benchmark("ackley")

    def test_case_insensitive(self):
        assert get_benchmark("Branin").name == "branin"

    def test_optimum_reachable_within_box(self):
        # The registered optimum must be attained (to tolerance) on a grid.
        bench = get_benchmark("forrester")
        grid = np.linspace(0.0, 1.0, 20001)[:, None]
        best = min(bench.evaluate(g) for g in grid)
        assert abs(best - bench.optimum) < 1e-6


class TestCoordinates:
    def test_denormalize_corners(self):
        bench = get_benchmark("branin")
        np.testing.assert_allclose(bench.denormalize([0.0, 0.0]), [-5.0, 0.0])
        np.testing.assert_allclose(bench.denormalize([1.0, 1.0]), [10.0, 15.0])

    def test_round_trip(self):
        # denormalize is the affine map of the unit cube onto the bounds.
        rng = np.random.default_rng(81)
        for name in BENCHMARK_NAMES:
            bench = get_benchmark(name)
            x = rng.uniform(size=bench.dim)
            lower, upper = bench.bounds.T
            back = (bench.denormalize(x) - lower) / (upper - lower)
            np.testing.assert_allclose(back, x, atol=1e-12)

    def test_trace_point_is_raw(self):
        bench = get_benchmark("branin")
        np.testing.assert_allclose(bench.trace_point([0.5, 0.5]), [2.5, 7.5])


class TestEvaluate:
    def test_matches_closed_form(self):
        bench = get_benchmark("branin")
        x = np.array([0.3, 0.7])
        assert bench.evaluate(x) == branin(bench.denormalize(x))

    def test_outside_cube_rejected(self):
        bench = get_benchmark("branin")
        with pytest.raises(DomainError):
            bench.evaluate([1.1, 0.5])
        with pytest.raises(DomainError):
            bench.evaluate([0.5, -0.1])

    def test_wrong_dimension_rejected(self):
        with pytest.raises(DomainError):
            get_benchmark("branin").evaluate([0.5])

    def test_noiseless_consumes_no_randomness(self):
        bench = get_benchmark("branin")
        rng = np.random.default_rng(5)
        bench.evaluate([0.2, 0.2], rng)
        untouched = np.random.default_rng(5)
        assert rng.uniform() == untouched.uniform()

    def test_noise_requires_rng(self):
        noisy = get_benchmark("branin", noise_sigma=0.5)
        with pytest.raises(InputError):
            noisy.evaluate([0.2, 0.2])

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -0.5])
    def test_noise_sigma_must_be_finite_and_nonnegative(self, sigma):
        with pytest.raises(InputError, match="noise_sigma"):
            get_benchmark("branin", noise_sigma=sigma)

    def test_noise_is_seeded_and_additive(self):
        noisy = get_benchmark("branin", noise_sigma=0.5)
        x = np.array([0.2, 0.2])
        y = noisy.evaluate(x, np.random.default_rng(7))
        expected = branin(noisy.denormalize(x)) \
            + np.random.default_rng(7).normal(0.0, 0.5)
        assert y == expected


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestTabularBenchmark:
    def test_loads_and_normalizes_levels(self, tmp_path):
        p = write_csv(tmp_path / "t.csv",
                      "lr,width,value\n0.1,64,1.0\n0.01,64,2.0\n0.1,128,0.5\n")
        bench = TabularBenchmark.from_csv(p)
        assert bench.name == "t"
        assert bench.dim == 2
        assert bench.column_names == ["lr", "width"]
        # lr levels {0.01, 0.1} -> {0, 1}; width levels {64, 128} -> {0, 1}.
        got = {tuple(row): v for row, v in zip(bench.candidates.tolist(),
                                               bench.values.tolist())}
        assert got == {(1.0, 0.0): 1.0, (0.0, 0.0): 2.0, (1.0, 1.0): 0.5}

    def test_single_level_column_maps_to_zero(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "a,b,value\n3,1,5.0\n3,2,6.0\n")
        bench = TabularBenchmark.from_csv(p)
        assert (bench.candidates[:, 0] == 0.0).all()

    def test_value_column_position_is_free(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "a,value,b\n1,5.0,7\n2,6.0,8\n")
        bench = TabularBenchmark.from_csv(p)
        assert bench.column_names == ["a", "b"]
        np.testing.assert_array_equal(bench.values, [5.0, 6.0])

    def test_exact_lookup(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "a,value\n1,0.25\n2,0.125\n3,4.0\n")
        bench = TabularBenchmark.from_csv(p)
        for cand, v in zip(bench.candidates, bench.values):
            assert bench.evaluate(cand) == v

    def test_unknown_configuration_rejected(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "a,value\n1,0.25\n2,0.125\n")
        bench = TabularBenchmark.from_csv(p)
        with pytest.raises(DomainError):
            bench.evaluate([0.37])

    def test_optimum_is_table_minimum(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "a,value\n1,0.25\n2,-1.5\n3,4.0\n")
        assert TabularBenchmark.from_csv(p).optimum == -1.5

    def test_trace_point_is_identity(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "a,value\n1,0.25\n2,0.5\n")
        bench = TabularBenchmark.from_csv(p)
        np.testing.assert_array_equal(bench.trace_point([1.0]), [1.0])

    def test_space_holds_all_candidates(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "a,b,value\n1,1,1\n1,2,2\n2,1,3\n")
        assert TabularBenchmark.from_csv(p).space.n_candidates == 3

    def test_duplicate_configuration_rejected(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "a,value\n1,0.25\n1,0.5\n")
        with pytest.raises(InputError):
            TabularBenchmark.from_csv(p)

    def test_missing_value_column_rejected(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "a,b\n1,2\n")
        with pytest.raises(InputError):
            TabularBenchmark.from_csv(p)

    def test_ragged_row_rejected(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "a,value\n1,0.25\n2\n")
        with pytest.raises(InputError):
            TabularBenchmark.from_csv(p)

    def test_non_numeric_value_rejected(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "a,value\n1,high\n")
        with pytest.raises(InputError):
            TabularBenchmark.from_csv(p)

    def test_empty_table_rejected(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "a,value\n")
        with pytest.raises(InputError):
            TabularBenchmark.from_csv(p)

    def test_has_no_noise_setting(self):
        # evaluate is an exact lookup, so a noise level could only be dropped.
        with pytest.raises(TypeError):
            TabularBenchmark("t", ["a"], [[0.0], [1.0]], [0.5, 0.25], noise_sigma=0.5)


class TestSpearman:
    @pytest.mark.parametrize("ties", [False, True])
    def test_matches_scipy(self, ties):
        rng = np.random.default_rng(11 + ties)
        for _ in range(300):
            n = int(rng.integers(3, 120))
            a, b = rng.normal(size=n), rng.normal(size=n)
            if ties:
                a, b = np.round(a, 1), rng.integers(0, 4, size=n).astype(float)
                if np.ptp(b) == 0.0 or np.ptp(a) == 0.0:
                    continue
            assert abs(_spearman(a, b) - spearmanr(a, b).statistic) <= 1e-12

    def test_average_ranks_are_one_based_with_ties_averaged(self):
        np.testing.assert_array_equal(_average_ranks(np.array([3.0, 1.0, 3.0, 2.0, 3.0])),
                                      [4.0, 1.0, 4.0, 2.0, 4.0])


class TestForresterRankingStudy:
    FAST = TrainConfig(steps=40, initial_lr=0.05, decay_every=20)

    def test_deterministic_under_seed(self):
        kwargs = dict(n_train=8, n_grid=20, sigmas=(0.0, 0.3), seed=4,
                      train_cfg=self.FAST, hidden=(8, 8))
        assert forrester_ranking_study(**kwargs) == forrester_ranking_study(**kwargs)

    def test_reports_one_entry_per_sigma(self):
        out = forrester_ranking_study(n_train=8, n_grid=20, sigmas=(0.0, 0.15),
                                      seed=0, train_cfg=self.FAST, hidden=(8,))
        assert set(out) == {0.0, 0.15}
        for rho in out.values():
            assert -1.0 <= rho <= 1.0

    def test_negative_sigma_rejected(self):
        with pytest.raises(DomainError):
            forrester_ranking_study(n_train=8, n_grid=20, sigmas=(-0.1,),
                                    seed=0, train_cfg=self.FAST, hidden=(8,))
