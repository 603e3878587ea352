import numpy as np
import pytest

from hyperbin.verify import random_initial  # noqa: F401  (shared test helper)


def pytest_collection_modifyitems(items):
    # The acceptance suite takes minutes; running it last lets `pytest -x`
    # stop at a unit-level failure first. The sort is stable.
    items.sort(key=lambda item: item.path.name == "test_acceptance.py")


@pytest.fixture
def rng():
    return np.random.default_rng(20240611)
