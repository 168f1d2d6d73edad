import inspect
import pickle

import pytest

from rodwave import errors

# constructor arguments of the classes whose __init__ takes more than a message
ARGS = {errors.FixedPointDiverged: (50, 1.0, 2.0, 0.5), errors.PositivityLost: (17, 0.5, 2.25)}

RODWAVE_ERRORS = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                  if issubclass(cls, errors.RodwaveError)]


def test_the_error_classes_are_found():
    assert {errors.RodwaveError, errors.FixedPointDiverged} <= set(RODWAVE_ERRORS)


@pytest.mark.parametrize("cls", RODWAVE_ERRORS, ids=lambda cls: cls.__name__)
def test_error_survives_pickling(cls):
    # compare and converge send a job's error back from a forked process
    err = cls(*ARGS.get(cls, ("a message",)))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    assert vars(back) == vars(err)
    assert back.args == err.args
