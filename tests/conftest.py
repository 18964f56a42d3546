import dataclasses

import numpy as np
import pytest

from qybe import DeformationParameter, ToleranceConfig, qnum
from qybe.rop import _top_sector
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


def q_inverse(q: DeformationParameter) -> DeformationParameter:
    """The parameter 1/q with the matching branch -log q."""
    return dataclasses.replace(q, value=1 / q.value, log_branch=-q.log_branch)


def product_values(ell1, ell2, u, q) -> list:
    """Reference for ``eigenvalue_sequence``: the closed product
    R_n = (-1)^n prod_{k=1}^n [L-k-u] / prod_{k=1}^n [L-k+u], L = l1+l2+1, R_0 = 1."""
    big_l = ell1 + ell2 + 1
    num_prod, den_prod = 1.0 + 0j, 1.0 + 0j
    prods = [1.0 + 0j]
    for n in range(1, _top_sector(ell1, ell2) + 1):
        num_prod *= qnum(big_l - n - u, q)
        den_prod *= qnum(big_l - n + u, q)
        prods.append((-1) ** n * num_prod / den_prod)
    return prods
