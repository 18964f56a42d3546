import numpy as np
import pytest

from qybe import DeformationParameter, ToleranceConfig
from qybe.tensorrep import _spin_space


@pytest.fixture(autouse=True)
def cold_space_memo():
    """Every test starts without memoised product spaces, so a test that
    counts constructions or patches a method sees the same calls in any order."""
    _spin_space.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)


@pytest.fixture
def cfg():
    return ToleranceConfig()


@pytest.fixture
def q_generic():
    return DeformationParameter.generic(np.exp(0.17 + 0.59j))
