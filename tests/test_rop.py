import math

import numpy as np
import pytest

import qybe.rop as rop
from qybe import (RATIONAL, ProductSpace, assemble_R, assemble_R_pair, build_spin_rep,
                  closed_form_R, eigenvalue_sequence, normalize_global, qnum)
from qybe.errors import PoleAtSector, QybeError, SingularBasis, UnsupportedPair
from qybe.qcore import sample_generic_q, sample_u
from qybe.tensorrep import kron
from qybe.verify import _regular_point

PAIRS = [(0.5, 0.5), (0.5, 1.0), (1.0, 1.0)]


def test_first_ratio_spin_half_pair(q_generic, rng):
    u = sample_u(rng)
    eig = eigenvalue_sequence(0.5, 0.5, u, q_generic)
    assert eig.values[1] == pytest.approx(qnum(u - 1, q_generic) / qnum(u + 1, q_generic))


def test_first_ratio_mixed_pair(q_generic, rng):
    u = sample_u(rng)
    eig = eigenvalue_sequence(0.5, 1.0, u, q_generic)
    assert eig.values[1] == pytest.approx(qnum(u - 1.5, q_generic) / qnum(u + 1.5, q_generic))


def test_second_ratio_spin_one_pair(q_generic, rng):
    u = sample_u(rng)
    eig = eigenvalue_sequence(1.0, 1.0, u, q_generic)
    expected = (qnum(u - 2, q_generic) * qnum(u - 1, q_generic)
                / (qnum(u + 1, q_generic) * qnum(u + 2, q_generic)))
    assert eig.values[2] == pytest.approx(expected)


def test_u_zero_alternating_signs(q_generic):
    eig = eigenvalue_sequence(2.0, 2.0, 0.0, q_generic)
    for n, v in enumerate(eig.values):
        assert v == pytest.approx((-1.0) ** n)
    rational = eigenvalue_sequence(2.0, 2.0, 0.0, mode="xxx")
    for n, v in enumerate(rational.values):
        assert v == pytest.approx((-1.0) ** n)


@pytest.mark.parametrize("pair", [(0.5, 0.5), (1.5, 1.0), (3.0, 3.0), (2.5, 3.0)])
@pytest.mark.parametrize("mode", ["xxz", "xxx"])
def test_recurrence_matches_product(pair, mode, rng):
    ell1, ell2 = pair
    done = 0
    while done < 10:
        q, u = _regular_point(ell1, ell2, rng)
        eig = eigenvalue_sequence(ell1, ell2, u if mode == "xxz" else complex(u),
                                  q if mode == "xxz" else None, mode=mode)
        if max(abs(v) for v in eig.values) > 50:    # too close to a pole
            continue
        done += 1
        diff = max(abs(a - b) for a, b in zip(eig.values, eig.product_values))
        assert diff < 1e-12


def test_pole_detection(q_generic):
    # denominator [l1+l2+1-n+u] vanishes at u = n - l1 - l2 - 1
    with pytest.raises(PoleAtSector) as exc:
        eigenvalue_sequence(0.5, 0.5, -1.0, q_generic)
    assert exc.value.sector == 1
    with pytest.raises(PoleAtSector):
        eigenvalue_sequence(1.0, 1.0, -1.0, mode="xxx")


def test_q_inverse_invariance(rng):
    q = sample_generic_q(rng)
    u = sample_u(rng)
    eig = eigenvalue_sequence(1.0, 1.5, u, q)
    eig_inv = eigenvalue_sequence(1.0, 1.5, u, q.inverse())
    assert np.allclose(eig.values, eig_inv.values, atol=1e-10)


def _ratio_formula(ell1, ell2, u, q, branch_shift=0):
    """Reference: R_n / R_0 with the spectral power z = q^u frozen on the
    unshifted branch, while the spin-related powers of q use the branch
    moved by ``branch_shift``."""
    z = q.pow(u)
    lq = q.log_branch + 2j * np.pi * branch_shift
    big_l = ell1 + ell2 + 1
    out = [1.0 + 0j]
    cur = 1.0 + 0j
    for n in range(1, rop._top_sector(ell1, ell2) + 1):
        num = np.exp((big_l - n) * lq) / z - np.exp(-(big_l - n) * lq) * z
        den = np.exp((big_l - n) * lq) * z - np.exp(-(big_l - n) * lq) / z
        if abs(den) < rop.POLE_TOL:
            raise PoleAtSector(n)
        cur *= -num / den
        out.append(cur)
    return np.array(out)


def test_eigenvalue_ratios_consistent_with_sequence(rng):
    """The branch route of check_branch_independence, the sequence on the
    shifted branch at u log q / (log q + 2 pi i), matches the closed
    frozen-q^u formula on both branches."""
    for pair in [(0.5, 1.0), (1.0, 1.0), (1.5, 2.0)] * 5:
        q, u = _regular_point(*pair, rng)
        shifted = q.with_branch_shift(1)
        on_branch = eigenvalue_sequence(*pair, u * q.log_branch / shifted.log_branch, shifted)
        for got, shift in ((eigenvalue_sequence(*pair, u, q), 0), (on_branch, 1)):
            want = _ratio_formula(*pair, u, q, shift)
            assert np.abs(np.array(got.ratios) - want).max() < 1e-12 * max(1, np.abs(want).max())


@pytest.mark.parametrize("pair", PAIRS)
def test_assembled_matches_closed_form(pair, rng):
    ell1, ell2 = pair
    for _ in range(10):
        q, u = _regular_point(ell1, ell2, rng)
        built = assemble_R(ell1, ell2, u, q)
        table = closed_form_R(ell1, ell2, u, q)
        diff = np.abs(normalize_global(built.matrix) - normalize_global(table.matrix)).max()
        assert diff < 1e-9


def test_rational_mode_matches_six_vertex_pattern(rng):
    u = sample_u(rng)
    if min(abs(u + 1), abs(1 - u)) < 0.05:
        u = 0.37 - 0.21j
    built = assemble_R(0.5, 0.5, u, mode="xxx")
    expected = np.array([
        [u + 1, 0, 0, 0],
        [0, u, 1, 0],
        [0, 1, u, 0],
        [0, 0, 0, u + 1],
    ]) / (u + 1)
    assert np.allclose(built.matrix, expected, atol=1e-10)


@pytest.mark.parametrize("pair", PAIRS)
def test_skew_action_both_directions(pair, rng):
    """Assembly imposes only phi(u) -> phibar(-u); the barred direction is an
    independent consequence."""
    ell1, ell2 = pair
    q, u = _regular_point(ell1, ell2, rng)
    built = assemble_R(ell1, ell2, u, q, basis="monomial")
    eig = eigenvalue_sequence(ell1, ell2, u, q)
    space = ProductSpace.of_spins(ell1, ell2, q)
    sec_u, sec_mu = space.sectors(u), space.sectors(-u)
    for s_u, s_mu in zip(sec_u, sec_mu):
        rn = eig.values[s_u.n]
        for m, vbar in enumerate(s_u.barred_descendants):
            target = rn * s_mu.descendants[m]
            assert np.abs(built.matrix @ vbar - target).max() < 1e-9 * max(1, np.abs(target).max())
        for m, v in enumerate(s_u.descendants):
            target = rn * s_mu.barred_descendants[m]
            assert np.abs(built.matrix @ v - target).max() < 1e-9 * max(1, np.abs(target).max())


def _classical_triple(ell):
    """Reference: S+, S- and the weights of spin ell at q = 1 on the monomial basis."""
    d = int(round(2 * ell)) + 1
    sp = np.zeros((d, d), complex)
    sm = np.zeros((d, d), complex)
    for k in range(1, d):
        sm[k - 1, k] = k
    for k in range(d - 1):
        sp[k + 1, k] = 2 * ell - k
    return sp, sm, np.arange(d) - ell


def _assemble_rational(ell1, ell2, u, r0=1.0):
    """Reference: the rational R-matrix from the binomial lowest weights
    (x1 - x2)^n raised by the classical S+, solved as Phi D Phi^{-1}."""
    sp1, _, _ = _classical_triple(ell1)
    sp2, _, _ = _classical_triple(ell2)
    d1, d2 = sp1.shape[0], sp2.shape[0]
    sp = kron(sp1, np.eye(d2)) + kron(np.eye(d1), sp2)
    eig = eigenvalue_sequence(ell1, ell2, u, mode="xxx", r0=r0)
    cols, diag = [], []
    for n in range(min(d1, d2)):
        c = np.zeros((d1, d2), complex)
        for j in range(n + 1):
            c[j, n - j] = math.comb(n, j) * (-1) ** (n - j)
        v = c.ravel()
        for m in range(d1 + d2 - 2 * n - 1):
            cols.append(v)
            diag.append(eig.values[n])
            v = sp @ v
    phi = np.array(cols).T
    if np.linalg.cond(phi) > rop.COND_LIMIT:
        raise SingularBasis("eigenvector matrix is ill-conditioned at this point")
    return phi @ np.diag(diag) @ np.linalg.inv(phi)


SPINS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
RATIONAL_US = (0.37 - 0.21j, 1.3 + 0.4j, -0.8 + 0.9j, 0.0, 2.5)


@pytest.mark.parametrize("ell", SPINS)
def test_spin_rep_at_q_one_is_the_classical_triple(ell):
    rep = build_spin_rep(ell, RATIONAL)
    sp, sm, weights = _classical_triple(ell)
    assert np.array_equal(rep.sp, sp) and np.array_equal(rep.sm, sm)
    assert np.array_equal(rep.weights, weights)


@pytest.mark.parametrize("ell1", SPINS)
def test_rational_mode_matches_reference_bit_for_bit(ell1):
    for ell2 in SPINS:
        for u in RATIONAL_US:
            rm = assemble_R(ell1, ell2, u, mode="xxx")
            want = _assemble_rational(ell1, ell2, u)
            assert np.array_equal(rm.matrix, want) and rm.matrix.tobytes() == want.tobytes()
            assert (rm.q, rm.mode, rm.basis_tag, rm.u) == (None, "xxx", "monomial", complex(u))


@pytest.mark.parametrize("pair", [(3.5, 4.0), (4.0, 4.0)])
def test_rational_mode_raises_reference_singular_basis(pair):
    for u in RATIONAL_US:
        with pytest.raises(SingularBasis) as want:
            _assemble_rational(*pair, u)
        with pytest.raises(SingularBasis) as got:
            assemble_R(*pair, u, mode="xxx")
        assert str(got.value) == str(want.value)


def test_unitarity_quick(rng):
    q, u = _regular_point(1.0, 1.0, rng)
    r_u = assemble_R(1.0, 1.0, u, q).matrix
    r_mu = assemble_R(1.0, 1.0, -u, q).matrix
    assert np.abs(r_u @ r_mu - np.eye(9)).max() < 1e-9


def test_u_zero_squares_to_identity(q_generic):
    r0 = assemble_R(0.5, 1.0, 0.0, q_generic).matrix
    assert np.abs(r0 @ r0 - np.eye(6)).max() < 1e-10


def test_unsupported_pair(q_generic):
    with pytest.raises(UnsupportedPair):
        closed_form_R(1.5, 1.0, 0.3, q_generic)


def test_singular_basis_guard(monkeypatch, q_generic):
    monkeypatch.setattr(rop, "COND_LIMIT", 1.0)
    with pytest.raises(SingularBasis):
        assemble_R(0.5, 0.5, 0.4 + 0.2j, q_generic)


def test_normalize_global():
    m = np.array([[1.0, 2.0], [0.5, -4.0]])
    out = normalize_global(m)
    assert out[1, 1] == pytest.approx(1.0)
    assert np.abs(out).max() == pytest.approx(1.0)


def _assembled_or_error(build):
    try:
        return build()
    except QybeError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("ell1", SPINS)
def test_pair_matches_two_assemblies(ell1):
    """One sector build per +-u pair gives what two assemble_R calls give,
    including the first error raised."""
    rng = np.random.default_rng(int(4 * ell1))
    for ell2 in SPINS:
        if ell2 < ell1:
            continue
        for _ in range(2):
            q, u = _regular_point(ell1, ell2, rng)
            want = _assembled_or_error(lambda: (assemble_R(ell1, ell2, u, q),
                                                assemble_R(ell1, ell2, -u, q)))
            got = _assembled_or_error(lambda: assemble_R_pair(ell1, ell2, u, q))
            if isinstance(want, str):
                assert got == want
            else:
                for g, w in zip(got, want):
                    assert np.array_equal(g.matrix, w.matrix)
                    assert (g.u, g.ell1, g.ell2, g.basis_tag, g.normalization) \
                        == (w.u, w.ell1, w.ell2, w.basis_tag, w.normalization)


def test_pair_rational_mode():
    got = assemble_R_pair(0.5, 1.0, 0.37 - 0.21j, mode="xxx")
    want = (assemble_R(0.5, 1.0, 0.37 - 0.21j, mode="xxx"),
            assemble_R(0.5, 1.0, -(0.37 - 0.21j), mode="xxx"))
    for g, w in zip(got, want):
        assert np.array_equal(g.matrix, w.matrix) and g.u == w.u and g.mode == "xxx"


@pytest.mark.parametrize("u", [-1.0, 1.0])
def test_pair_raises_the_first_error_of_two_assemblies(u, q_generic):
    # u = -1 puts R(u) on the sector-1 pole of the (1/2, 1/2) pair, u = 1 puts R(-u) there
    want = _assembled_or_error(lambda: (assemble_R(0.5, 0.5, u, q_generic),
                                        assemble_R(0.5, 0.5, -u, q_generic)))
    assert isinstance(want, str)
    assert _assembled_or_error(lambda: assemble_R_pair(0.5, 0.5, u, q_generic)) == want
