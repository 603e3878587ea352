import numpy as np
import pytest

from hyperbin.verify import random_initial  # noqa: F401  (shared test helper)


@pytest.fixture
def rng():
    return np.random.default_rng(20240611)
