import numpy as np
import pytest
from hypothesis import settings

# Property tests draw the same examples on every run: a derandomized
# search with no example database, so two runs of one tree test the same
# inputs.  Each test keeps its own max_examples and deadline.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
