import inspect
import pickle

import pytest

from beamstab import errors
from beamstab.errors import BeamstabError, BlowupDetected, ValidationError

# constructor arguments of the errors that take more than a message
ARGUMENTS = {
    ValidationError: (["a", "b"],),
    BlowupDetected: (0.5, 1e7),
}

ERRORS = [
    cls for cls in vars(errors).values()
    if inspect.isclass(cls) and issubclass(cls, BeamstabError)
]


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_errors_survive_pickling(cls):
    """A package error raised in reconstruct's forked simulation reaches the
    command's process pickled: its type, message and attributes survive."""
    error = cls(*ARGUMENTS.get(cls, ("a message",)))
    back = pickle.loads(pickle.dumps(error, pickle.HIGHEST_PROTOCOL))
    assert type(back) is cls
    assert str(back) == str(error)
    assert vars(back) == vars(error)

