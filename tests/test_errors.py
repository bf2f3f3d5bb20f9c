"""Tests for the package's exception types and its integer check."""

import pickle

import numpy as np
import pytest

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
from popbo.space import ContinuousSpace
from popbo.surrogate import IntensityModel

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
