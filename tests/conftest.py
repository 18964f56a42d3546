import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from qybe import DeformationParameter, OperatorTriple, ToleranceConfig, qnum
from qybe.qcore import _nan_max
from qybe.rop import _top_sector
from qybe.tensorrep import _family_arrays, _spin_space


@pytest.fixture(autouse=True)
def cold_space_memo():
    """Every test starts without memoised product spaces, so a test that
    counts constructions or patches a method sees the same calls in any
    order."""
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


def assert_close(got, want) -> None:
    """max |got - want| <= 8 eps max(1, max |want|): the bound within which a
    stacked kernel meets a scalar reference that rounds differently."""
    got, want = np.asarray(got, complex), np.asarray(want, complex)
    assert got.shape == want.shape
    bound = 8 * np.finfo(float).eps * max(1.0, np.abs(want).max(initial=0.0))
    assert np.abs(got - want).max(initial=0.0) <= bound


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


def algebra_residual(rep: OperatorTriple) -> float:
    """The reference check of the algebra relations: the max deviation of
    ``rep`` from [S+, S-] = (q^{2S} - q^{-2S}) / (q - 1/q) and q^S S+- q^-S
    = q^{+-1} S+-, normalized by entry scale; a NaN in any relation gives
    NaN."""
    q = rep.q.value
    comm = rep.sp @ rep.sm - rep.sm @ rep.sp
    rhs = (rep.qs(2) - rep.qs(-2)) / (q - 1 / q)
    scale = max(1.0, np.abs(rep.sp).max(), np.abs(rep.sm).max(), np.abs(rhs).max())
    r = _nan_max(np.abs(comm - rhs).max(),
                 np.abs(rep.qs(1) @ rep.sp @ rep.qs(-1) - q * rep.sp).max(),
                 np.abs(rep.qs(1) @ rep.sm @ rep.qs(-1) - rep.sm / q).max())
    return float(r / scale)


def raised_chains(space, families):
    """The chains of ``families`` as :meth:`ProductSpace.chain_pass` raises
    them: its chain stage, fed the kinds, us and coproducts of the families."""
    kinds, us = _family_arrays(families)
    return space._chains(kinds, us, *space.chain_pass(form=False, read=families)[1])


def load_document(path: Path) -> dict:
    """A JSON document that ``qybe rep`` or ``qybe rmatrix`` wrote."""
    return json.loads(path.read_text(encoding="utf-8"))
