"""Tests for the package's exception types and its integer and real-number checks."""

import pickle
import re

import numpy as np
import pytest

from popbo.acquisition import AcquisitionConfig
from popbo.benchmarks import get_benchmark
from popbo.engine import RegretTrace
from popbo.errors import (
    DomainError,
    EvaluationFailedError,
    InputError,
    PopboError,
    RectifiedRegionError,
    TrainingDivergedError,
)
from popbo.poisson import TruncatedPoisson, pmf_vector
from popbo.harness import ExperimentConfig
from popbo.space import ContinuousSpace
from popbo.surrogate import IntensityModel, TrainConfig

WITH_ATTRIBUTES = {
    TrainingDivergedError: (TrainingDivergedError(7), {"step": 7}),
    RectifiedRegionError: (RectifiedRegionError(1.5, 0.6), {"rate": 1.5, "threshold": 0.6}),
    EvaluationFailedError: (EvaluationFailedError(RegretTrace("t", 2, None, []),
                                                  ValueError("boom")),
                            {"trace": RegretTrace("t", 2, None, [])}),
}


def test_every_error_with_attributes_is_covered():
    assert {cls for cls in PopboError.__subclasses__()
            if "__init__" in vars(cls)} == set(WITH_ATTRIBUTES)


@pytest.mark.parametrize("cls", list(WITH_ATTRIBUTES), ids=lambda cls: cls.__name__)
def test_pickle_round_trip_keeps_type_message_and_attributes(cls):
    # Errors raised in a worker process reach the parent by pickle.
    error, attributes = WITH_ATTRIBUTES[cls]
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error)
    assert vars(copy) == attributes


COUNT_CHECKS = {
    "max_rank": (lambda v: TruncatedPoisson(2.0, v), DomainError),
    "pmf_vector": (lambda v: pmf_vector(2.0, v), DomainError),
    "space_dim": (ContinuousSpace, InputError),
    "model_dim": (lambda v: IntensityModel.create(v, hidden=(4,)), InputError),
    "hidden_width": (lambda v: IntensityModel.create(2, hidden=(v,)), InputError),
}


@pytest.mark.parametrize("value,accepted", [
    (2, True), (np.int64(2), True), (True, False), (np.True_, False), (2.0, False),
    (2.5, False), (-1, False),
], ids=["int", "np.int64", "True", "np.True_", "2.0", "2.5", "-1"])
@pytest.mark.parametrize("name", sorted(COUNT_CHECKS))
def test_counts_are_integers_not_bools(name, value, accepted):
    # A bool once passed as a count of 1, and a float was truncated.
    make, error = COUNT_CHECKS[name]
    if accepted:
        make(value)
        return
    with pytest.raises(error):
        make(value)


REAL_CHECKS = {
    "initial_lr": (lambda v: TrainConfig(initial_lr=v), InputError),
    "q": (lambda v: AcquisitionConfig(q=v), DomainError),
    "beta": (lambda v: AcquisitionConfig(beta=v), DomainError),
    "experiment_noise_sigma": (
        lambda v: ExperimentConfig(benchmark="branin", method="random-search", noise_sigma=v),
        DomainError),
    "benchmark_noise_sigma": (lambda v: get_benchmark("branin", noise_sigma=v), InputError),
}


@pytest.mark.parametrize("value,accepted", [
    (0.5, True), (np.float32(0.5), True), (1, True), (np.int64(1), True), (True, False),
    (np.True_, False), ("0.5", False), (1j, False),
], ids=["0.5", "np.float32", "int", "np.int64", "True", "np.True_", "str", "complex"])
@pytest.mark.parametrize("name", sorted(REAL_CHECKS))
def test_float_settings_are_reals_not_bools(name, value, accepted):
    # A bool once passed as 1.0, and text raised a bare TypeError.
    make, error = REAL_CHECKS[name]
    if accepted:
        make(value)
        return
    with pytest.raises(error, match=re.escape(repr(value))):
        make(value)
