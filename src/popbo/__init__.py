"""Ranking-surrogate Bayesian optimization with a benchmark harness."""

from .acquisition import AcquisitionConfig, eri, grad_acquisition, lcb, propose_next
from .benchmarks import (
    BenchmarkFunction,
    TabularBenchmark,
    get_benchmark,
)
from .engine import BoRunConfig, RegretTrace, TraceRecord, incumbent, run
from .errors import (
    DomainError,
    EvaluationFailedError,
    InputError,
    PopboError,
    PreconditionError,
    RectifiedRegionError,
    TrainingDivergedError,
)
from .harness import ExperimentConfig, random_search_baseline, run_experiment
from .poisson import TruncatedPoisson, correct_ranking_probability, pmf_vector, truncated_mean
from .space import ContinuousSpace, DiscreteSpace
from .surrogate import (
    IntensityModel,
    ObservationSet,
    TrainConfig,
    compute_ranks,
    fit,
    grad_log_likelihood,
    log_likelihood,
)

__version__ = "0.1.0"
