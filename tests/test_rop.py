import numpy as np
import pytest

import qybe.rop as rop
from qybe import (assemble_R, assemble_R_pair, closed_form_R, eigenvalue_ratios,
                  eigenvalue_sequence, lowest_weight_vectors, normalize_global, qnum)
from qybe.errors import PoleAtSector, QybeError, SingularBasis, UnsupportedPair
from qybe.qcore import sample_generic_q, sample_u
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


def test_eigenvalue_ratios_consistent_with_sequence(rng):
    q, u = _regular_point(1.0, 1.0, rng)
    seq = eigenvalue_sequence(1.0, 1.0, u, q)
    ratios = eigenvalue_ratios(1.0, 1.0, u, q)
    assert np.allclose(ratios, seq.ratios, atol=1e-12)


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
    sec_u = lowest_weight_vectors(ell1, ell2, u, q)
    sec_mu = lowest_weight_vectors(ell1, ell2, -u, q)
    for s_u, s_mu in zip(sec_u, sec_mu):
        rn = eig.values[s_u.n]
        for m, vbar in enumerate(s_u.barred_descendants):
            target = rn * s_mu.descendants[m]
            assert np.abs(built.matrix @ vbar - target).max() < 1e-9 * max(1, np.abs(target).max())
        for m, v in enumerate(s_u.descendants):
            target = rn * s_mu.barred_descendants[m]
            assert np.abs(built.matrix @ v - target).max() < 1e-9 * max(1, np.abs(target).max())


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


SPINS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


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
