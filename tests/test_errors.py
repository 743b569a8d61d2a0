"""Package exceptions keep their type, message and attributes through pickle,
as a sweep point's error does on its way back from a worker process."""

import pickle

import pytest

from cotrap import errors
from cotrap.errors import CotrapError

# constructor arguments and the attributes they set, one case per class
EXAMPLES = {
    errors.CotrapError: (("base",), {}),
    errors.ConfigError: (("key 'eta' in section 'trap' must be in (0, 1]",), {}),
    errors.AnalysisError: (("modes not separable",), {}),
    errors.UnstableAxisError: (("x", -0.25), {"axis": "x", "value": -0.25}),
    errors.UnstableModeError: ((-1.5, 2.5e7), {"omega_sq_plus": -1.5,
                                               "omega_sq_minus": 2.5e7}),
    errors.IntegrationFault: (("non-finite state", 0.4474),
                              {"reason": "non-finite state", "time": 0.4474}),
}


def subclasses(cls):
    return {cls}.union(*(subclasses(sub) for sub in cls.__subclasses__()))


def test_every_error_has_an_example():
    assert subclasses(CotrapError) == set(EXAMPLES)


@pytest.mark.parametrize("cls", EXAMPLES, ids=lambda cls: cls.__name__)
def test_pickle_round_trip(cls):
    args, attributes = EXAMPLES[cls]
    exc = cls(*args)
    again = pickle.loads(pickle.dumps(exc))
    assert type(again) is cls
    assert str(again) == str(exc)
    for name, value in attributes.items():
        assert getattr(again, name) == getattr(exc, name) == value
