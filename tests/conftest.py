import numpy as np
import pytest

try:
    from hypothesis import settings
except ImportError:  # the property suites skip themselves
    pass
else:
    # every run draws the same examples and writes no example database
    settings.register_profile("deterministic", derandomize=True, database=None)
    settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
