"""Tests for the package's exception types."""

import pickle

import pytest

from popbo.engine import RegretTrace
from popbo.errors import (
    EvaluationFailedError,
    PopboError,
    RectifiedRegionError,
    TrainingDivergedError,
)

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
