import numpy as np
import pytest

import qybe
from qybe import (RATIONAL, OperatorTriple, build_lax, build_spin_rep, casimir_matrix,
                  fundamental_r, qnum, weight_reversed)
from qybe.errors import BadSpin
from qybe.qcore import sample_generic_q, sample_u

SWAP2 = np.array([[0.0, 1.0], [1.0, 0.0]])


def _casimir_deviation(rep):
    """Max deviation of the Casimir from the scalar [l][l+1]."""
    expected = qnum(rep.ell, rep.q) * qnum(rep.ell + 1, rep.q)
    return np.abs(casimir_matrix(rep) - expected * np.eye(rep.dim)).max()


def test_public_names_resolve():
    for name in qybe.__all__:
        assert hasattr(qybe, name), name


def test_spin_half_matrices(q_generic):
    rep = build_spin_rep(0.5, q_generic)
    # printed tables use the descending-weight ordering
    assert np.allclose(weight_reversed(rep.sp), np.array([[0, 1], [0, 0]]), atol=1e-12)
    assert np.allclose(weight_reversed(rep.sm), np.array([[0, 0], [1, 0]]), atol=1e-12)
    a = 0.7 - 0.2j
    expected = np.diag([q_generic.pow(a / 2), q_generic.pow(-a / 2)])
    assert np.allclose(weight_reversed(rep.qs(a)), expected)


def test_spin_one_orthonormal_entries(q_generic):
    rep = build_spin_rep(1.0, q_generic, basis="orthonormal")
    s = np.sqrt(q_generic.value + 1 / q_generic.value)
    assert rep.sp[1, 0] == pytest.approx(s)
    assert rep.sp[2, 1] == pytest.approx(s)
    assert rep.sm[0, 1] == pytest.approx(s)
    assert rep.sm[1, 2] == pytest.approx(s)


def test_spin_zero_trivial(q_generic):
    rep = build_spin_rep(0.0, q_generic)
    assert rep.dim == 1
    assert rep.sp[0, 0] == 0 and rep.sm[0, 0] == 0
    assert rep.qs(3.7)[0, 0] == pytest.approx(1.0)


@pytest.mark.parametrize("basis", ["monomial", "orthonormal"])
@pytest.mark.parametrize("ell", [0.5, 1.0, 1.5, 2.0])
def test_algebra_relations(ell, basis, rng):
    for _ in range(10):
        q = sample_generic_q(rng)
        rep = build_spin_rep(ell, q, basis)
        assert rep.algebra_residual() < 1e-10


def test_qs_additivity(q_generic):
    rep = build_spin_rep(1.5, q_generic)
    a, b = 0.3 + 0.2j, -1.1 + 0.4j
    assert np.allclose(rep.qs(a) @ rep.qs(b), rep.qs(a + b), atol=1e-10)


def test_monomial_orthonormal_similarity(q_generic):
    mono = build_spin_rep(1.5, q_generic)
    orth = build_spin_rep(1.5, q_generic, basis="orthonormal")
    d = np.diag(orth.from_monomial)
    dinv = np.diag(1 / orth.from_monomial)
    assert np.allclose(d @ mono.sp @ dinv, orth.sp, atol=1e-10)
    assert np.allclose(d @ mono.sm @ dinv, orth.sm, atol=1e-10)
    c_mono = casimir_matrix(mono)
    c_orth = casimir_matrix(orth)
    assert np.allclose(d @ c_mono @ dinv, c_orth, atol=1e-10)
    # both Casimirs are scalar, hence equal entrywise, not just similar
    assert np.allclose(c_mono, c_orth, atol=1e-10)


@pytest.mark.parametrize("ell", [0.5, 1.0, 2.0])
def test_nilpotency_exact(ell, q_generic):
    rep = build_spin_rep(ell, q_generic)
    d = rep.dim
    assert np.count_nonzero(np.linalg.matrix_power(rep.sp, d)) == 0
    assert np.count_nonzero(np.linalg.matrix_power(rep.sm, d)) == 0


def test_casimir_spin_half(q_generic):
    rep = build_spin_rep(0.5, q_generic)
    expected = qnum(0.5, q_generic) * qnum(1.5, q_generic)
    assert np.allclose(casimir_matrix(rep), expected * np.eye(2), atol=1e-12)
    assert _casimir_deviation(rep) < 1e-12


def test_casimir_trivial_rep(q_generic):
    rep = build_spin_rep(0.0, q_generic)
    assert abs(casimir_matrix(rep)[0, 0]) < 1e-12
    assert _casimir_deviation(rep) < 1e-12


def test_casimir_scalar_random_q(rng):
    for _ in range(5):
        q = sample_generic_q(rng)
        assert _casimir_deviation(build_spin_rep(1.0, q)) < 1e-10
    # at q = 1 the same function gives the classical S^2 = l(l+1), exactly
    for ell in (0.5, 1.0, 1.5, 2.0):
        rep = build_spin_rep(ell, RATIONAL)
        assert np.array_equal(casimir_matrix(rep), ell * (ell + 1) * np.eye(rep.dim))


def test_bad_spin(q_generic):
    with pytest.raises(BadSpin):
        build_spin_rep(0.3, q_generic)
    with pytest.raises(BadSpin):
        build_spin_rep(-0.5, q_generic)


def test_lax_spin_half_is_fundamental(q_generic, rng):
    """With the quantum index flipped to descending order, the spin-1/2 Lax
    matrix is the fundamental six-vertex matrix at shifted argument."""
    rep = build_spin_rep(0.5, q_generic)
    u = sample_u(rng)
    lax = build_lax(rep, u + 0.5)
    flip = np.kron(np.eye(2), SWAP2)
    assert np.allclose(flip @ lax @ flip, fundamental_r(u, q_generic), atol=1e-12)


def test_lax_entry_pattern(q_generic, rng):
    """Diagonal blocks carry [u +- S] = (q^{u +- S} - q^{-u -+ S}) / (q - 1/q);
    off-diagonal blocks are the shift generators themselves."""
    rep = build_spin_rep(1.0, q_generic)
    u = sample_u(rng)
    lax = build_lax(rep, u)
    qu = q_generic.pow(u)
    c = q_generic.value - 1 / q_generic.value
    assert np.allclose(lax[:3, :3], (qu * rep.qs(1) - rep.qs(-1) / qu) / c, atol=1e-12)
    assert np.allclose(lax[3:, 3:], (qu * rep.qs(-1) - rep.qs(1) / qu) / c, atol=1e-12)
    assert np.array_equal(lax[:3, 3:], rep.sm)
    assert np.array_equal(lax[3:, :3], rep.sp)


def test_lax_u_zero(q_generic):
    """At u = 0 the diagonal blocks are +-[S]."""
    rep = build_spin_rep(0.5, q_generic)
    lax = build_lax(rep, 0.0)
    c = q_generic.value - 1 / q_generic.value
    assert np.allclose(lax[:2, :2], (rep.qs(1) - rep.qs(-1)) / c, atol=1e-12)
    assert np.allclose(lax[2:, 2:], (rep.qs(-1) - rep.qs(1)) / c, atol=1e-12)


def test_triples_are_frozen(q_generic):
    rep = build_spin_rep(1.0, q_generic)
    with pytest.raises(ValueError):
        rep.sp[0, 0] = 1.0


def test_generic_spin_truncation(q_generic):
    """Truncated generic-spin representations keep an exactly scalar Casimir
    while the raising relation fails only in the top corner."""
    ell = 0.37 + 0.21j
    rep = build_spin_rep(ell, q_generic, cutoff=5)
    assert rep.truncated and rep.dim == 5
    assert _casimir_deviation(rep) < 1e-10
    comm = rep.sp @ rep.sm - rep.sm @ rep.sp
    rhs = (rep.qs(2) - rep.qs(-2)) / (q_generic.value - 1 / q_generic.value)
    defect = comm - rhs
    corner = qnum(5, q_generic) * qnum(2 * ell - 4, q_generic)
    assert defect[4, 4] == pytest.approx(corner)
    defect[4, 4] = 0
    assert np.abs(defect).max() < 1e-10
    assert rep.algebra_residual() > 1e-3    # caveat is visible, not hidden


class _NanConjugation(OperatorTriple):
    """q^{S} is NaN, so only the two conjugation relations go NaN and the
    commutator relation, checked first, stays finite."""

    def qs(self, a):
        m = super().qs(a)
        return m * np.nan if a == 1 else m


def test_algebra_residual_keeps_nan_after_finite_relation(q_generic):
    rep = build_spin_rep(1.0, q_generic)
    bad = _NanConjugation(sp=rep.sp, sm=rep.sm, weights=rep.weights, q=rep.q)
    with np.errstate(invalid="ignore"):
        assert np.isnan(bad.algebra_residual())
