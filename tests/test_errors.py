"""Package errors cross process boundaries: pool worker processes send the
exception a task raised to the rank, pickled."""

import pickle

import pytest

from wcnsflow.errors import (DivergenceError, InvalidStateError,
                             TransportError, WcnsflowError, portable)

ERRORS = [
    (InvalidStateError("non-positive density", block_id=3, index=(1, 2, 0)),
     {"block_id": 3, "index": (1, 2, 0)}),
    (InvalidStateError("non-positive pressure"),
     {"block_id": None, "index": None}),
    (TransportError("timed out", tag=70), {"tag": 70}),
    (DivergenceError("run diverged", step=4, stage=2),
     {"step": 4, "stage": 2}),
]


@pytest.mark.parametrize("exc,fields", ERRORS,
                         ids=lambda e: type(e).__name__
                         if isinstance(e, Exception) else "")
def test_errors_survive_pickling_with_their_fields(exc, fields):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert {k: getattr(back, k) for k in fields} == fields
    assert portable(exc) is exc


class Unrebuildable(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_portable_stands_in_for_an_error_that_does_not_pickle_back():
    stand_in = portable(Unrebuildable(1, 2))
    assert type(stand_in) is WcnsflowError
    assert str(stand_in) == "Unrebuildable: 1 and 2"
    assert pickle.loads(pickle.dumps(stand_in)).args == stand_in.args
