import math
import re
import warnings

import numpy as np
import pytest

import qybe.rop as rop
import qybe.tensorrep as tensorrep
from conftest import product_values, q_inverse
from qybe import (RATIONAL, DeformationParameter, ProductSpace, assemble_R, build_spin_rep,
                  closed_form_R, eigenvalue_sequence, normalize_global, qnum)
from qybe.errors import (BadSpin, CompletenessFailure, ParameterDomainError, PoleAtSector,
                         QybeError, SingularBasis, UnsupportedPair)
from qybe.qcore import residual, sample_generic_q, sample_u
from qybe.tensorrep import _SPACE_MEMO_SIZE, _spin_space
from qybe.verify import _regular_point, decomposed_residuals

PAIRS = [(0.5, 0.5), (0.5, 1.0), (1.0, 1.0)]


def test_first_ratio_spin_half_pair(q_generic, rng):
    u = sample_u(rng)
    eig = eigenvalue_sequence(0.5, 0.5, u, q_generic)
    assert eig[1] == pytest.approx(qnum(u - 1, q_generic) / qnum(u + 1, q_generic))


def test_first_ratio_mixed_pair(q_generic, rng):
    u = sample_u(rng)
    eig = eigenvalue_sequence(0.5, 1.0, u, q_generic)
    assert eig[1] == pytest.approx(qnum(u - 1.5, q_generic) / qnum(u + 1.5, q_generic))


def test_second_ratio_spin_one_pair(q_generic, rng):
    u = sample_u(rng)
    eig = eigenvalue_sequence(1.0, 1.0, u, q_generic)
    expected = (qnum(u - 2, q_generic) * qnum(u - 1, q_generic)
                / (qnum(u + 1, q_generic) * qnum(u + 2, q_generic)))
    assert eig[2] == pytest.approx(expected)


@pytest.mark.parametrize("ell", [0.5, 1.5])
def test_a_spin_zero_factor_has_one_sector_and_R_is_the_identity(ell, q_generic, rng):
    u = sample_u(rng)
    for q in (q_generic, RATIONAL):
        for pair in ((0, ell), (ell, 0)):
            assert eigenvalue_sequence(*pair, u, q) == (1,)
            m = assemble_R(*pair, u, q, basis="monomial").matrix
            assert np.abs(m - np.eye(int(2 * ell + 1))).max() < 1e-15


def test_u_zero_alternating_signs(q_generic):
    eig = eigenvalue_sequence(2.0, 2.0, 0.0, q_generic)
    for n, v in enumerate(eig):
        assert v == pytest.approx((-1.0) ** n)
    rational = eigenvalue_sequence(2.0, 2.0, 0.0, RATIONAL)
    for n, v in enumerate(rational):
        assert v == pytest.approx((-1.0) ** n)


@pytest.mark.parametrize("pair", [(0.5, 0.5), (1.5, 1.0), (3.0, 3.0), (2.5, 3.0)])
@pytest.mark.parametrize("mode", ["xxz", "xxx"])
def test_recurrence_matches_product(pair, mode, rng):
    ell1, ell2 = pair
    done = 0
    while done < 10:
        q, u = _regular_point(ell1, ell2, rng)
        eig = eigenvalue_sequence(ell1, ell2, u, q if mode == "xxz" else RATIONAL)
        if max(abs(v) for v in eig) > 50:    # too close to a pole
            continue
        done += 1
        product = product_values(ell1, ell2, u, q if mode == "xxz" else RATIONAL)
        diff = max(abs(a - b) for a, b in zip(eig, product))
        assert diff < 1e-12


def test_pole_detection(q_generic):
    # denominator [l1+l2+1-n+u] vanishes at u = n - l1 - l2 - 1
    with pytest.raises(PoleAtSector) as exc:
        eigenvalue_sequence(0.5, 0.5, -1.0, q_generic)
    assert exc.value.sector == 1
    with pytest.raises(PoleAtSector):
        eigenvalue_sequence(1.0, 1.0, -1.0, RATIONAL)


def test_q_inverse_invariance(rng):
    q = sample_generic_q(rng)
    u = sample_u(rng)
    eig = eigenvalue_sequence(1.0, 1.5, u, q)
    eig_inv = eigenvalue_sequence(1.0, 1.5, u, q_inverse(q))
    assert np.allclose(eig, eig_inv, atol=1e-10)


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
            assert np.abs(np.array(got) - want).max() < 1e-12 * max(1, np.abs(want).max())


@pytest.mark.parametrize("pair", PAIRS)
def test_assembled_matches_closed_form(pair, rng):
    ell1, ell2 = pair
    for _ in range(10):
        q, u = _regular_point(ell1, ell2, rng)
        built = assemble_R(ell1, ell2, u, q)
        table = closed_form_R(ell1, ell2, u, q)
        diff = np.abs(normalize_global(built.matrix) - normalize_global(table.matrix)).max()
        assert diff < 1e-9


@pytest.mark.parametrize("pair", PAIRS)
def test_closed_form_at_the_rational_point(pair, rng):
    """The tables hold at q = 1 too: they match the spectral solve there, and
    (1/2,1/2) matches the rational mode."""
    for _ in range(5):
        u = sample_u(rng)
        table = closed_form_R(*pair, u, RATIONAL)
        built = [assemble_R(*pair, u, RATIONAL, basis=table.basis_tag)]
        if pair == (0.5, 0.5):
            built.append(assemble_R(*pair, u, mode="xxx"))
        for rm in built:
            assert np.abs(table.matrix - rm.matrix).max() <= 1e-13 * np.abs(rm.matrix).max()


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
    bar_u, bar_mu = space.sectors(u, "deltabar"), space.sectors(-u, "deltabar")
    for n, (s_u, s_mu, b_u, b_mu) in enumerate(zip(sec_u, sec_mu, bar_u, bar_mu)):
        rn = eig[n]
        for m, vbar in enumerate(b_u):
            target = rn * s_mu[m]
            assert np.abs(built.matrix @ vbar - target).max() < 1e-9 * max(1, np.abs(target).max())
        for m, v in enumerate(s_u):
            target = rn * b_mu[m]
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


def _assemble_rational(ell1, ell2, u):
    """Reference: the rational R-matrix from the binomial lowest weights
    (x1 - x2)^n raised by the classical S+, solved as Phi D Phi^{-1}."""
    sp1, _, _ = _classical_triple(ell1)
    sp2, _, _ = _classical_triple(ell2)
    d1, d2 = sp1.shape[0], sp2.shape[0]
    sp = np.kron(sp1, np.eye(d2)) + np.kron(np.eye(d1), sp2)
    eig = eigenvalue_sequence(ell1, ell2, u, RATIONAL)
    cols, diag = [], []
    for n in range(min(d1, d2)):
        c = np.zeros((d1, d2), complex)
        for j in range(n + 1):
            c[j, n - j] = math.comb(n, j) * (-1) ** (n - j)
        v = c.ravel()
        for m in range(d1 + d2 - 2 * n - 1):
            cols.append(v)
            diag.append(eig[n])
            v = sp @ v
    phi = np.array(cols).T
    if np.linalg.cond(phi) > tensorrep.COND_LIMIT:
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
    """The block solve sums in another order than the full reference
    solve, so the two agree to rounding, not bit for bit."""
    for ell2 in SPINS:
        for u in RATIONAL_US:
            rm = assemble_R(ell1, ell2, u, mode="xxx")
            want = _assemble_rational(ell1, ell2, u)
            assert np.abs(rm.matrix - want).max() <= 1e-13 * np.abs(want).max()
            assert rm.q is RATIONAL
            assert (rm.mode, rm.basis_tag, rm.u) == ("xxx", "monomial", complex(u))


@pytest.mark.parametrize("pair", [(3.5, 4.0), (4.0, 4.0)])
def test_rational_mode_raises_reference_singular_basis(pair):
    """The full 72x72 or 81x81 reference basis fails COND_LIMIT; its weight
    blocks pass it, and R is unitary wherever R(u) and R(-u) have no pole."""
    for u in RATIONAL_US:
        with pytest.raises(SingularBasis):
            _assemble_rational(*pair, u)
        try:
            r_u, r_mu = _on_one_space(*pair, u, RATIONAL, "monomial")
        except PoleAtSector:
            continue
        prod = r_u.matrix @ r_mu.matrix
        assert residual(prod, np.eye(prod.shape[0]), prod) < 1e-9


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


def _bad_spin_message(ell):
    return re.escape(f"2*ell must be a nonnegative integer (got ell={ell})")


def test_closed_form_rejects_a_spin_that_is_not_half_an_integer(q_generic):
    """Rounding 2l would serve the spin-1/2 table for (0.7, 0.6)."""
    with pytest.raises(BadSpin, match=_bad_spin_message(0.7)):
        closed_form_R(0.7, 0.6, 0.3, q_generic)
    with pytest.raises(BadSpin, match=_bad_spin_message(0.6)):
        closed_form_R(0.5, 0.6, 0.3, RATIONAL)


@pytest.mark.parametrize("ell1,ell2,bad", [(0.7, 1.3, 0.7), (-0.5, 1, -0.5), (1, 0.3, 0.3)])
def test_eigenvalue_sequence_rejects_a_bad_spin(ell1, ell2, bad, q_generic):
    for q in (q_generic, RATIONAL):
        with pytest.raises(BadSpin, match=_bad_spin_message(bad)):
            eigenvalue_sequence(ell1, ell2, 0.3, q)


@pytest.mark.parametrize("mode", ["xxz", "xxx"])
@pytest.mark.parametrize("ell1,ell2,bad", [(0.7, 1.0, 0.7), (1.0, 0.3, 0.3), (-0.5, 1.0, -0.5)])
def test_assemble_R_rejects_a_bad_spin(ell1, ell2, bad, mode, q_generic):
    with pytest.raises(BadSpin) as exc:
        assemble_R(ell1, ell2, 0.3, q_generic, mode=mode)
    assert str(exc.value) == f"2*ell must be a nonnegative integer (got ell={bad})"


def test_singular_basis_guard(monkeypatch, q_generic):
    monkeypatch.setattr(tensorrep, "COND_LIMIT", 1.0)
    _spin_space.cache_clear()  # a form built at the default limit would serve the call
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


def _on_one_space(ell1, ell2, u, q, basis="orthonormal"):
    """(R(u), R(-u)) solved on one shared space, as check_unitarity solves
    them: R(-u) on the space and form that R(u) left in the memo."""
    _spin_space.cache_clear()
    return tuple(assemble_R(ell1, ell2, x, q, basis=basis) for x in (u, -u))


def _cold(ell1, ell2, u, q=None, **kwargs):
    """assemble_R on a space and form built for this call alone."""
    _spin_space.cache_clear()
    return assemble_R(ell1, ell2, u, q, **kwargs)


@pytest.mark.parametrize("ell1", SPINS)
def test_pair_matches_two_assemblies(ell1):
    """R(u) and R(-u) on one shared space are what two assemble_R calls on
    spaces of their own give, including the first error raised."""
    rng = np.random.default_rng(int(4 * ell1))
    for ell2 in SPINS:
        if ell2 < ell1:
            continue
        for _ in range(2):
            q, u = _regular_point(ell1, ell2, rng)
            want = _assembled_or_error(lambda: (_cold(ell1, ell2, u, q),
                                                _cold(ell1, ell2, -u, q)))
            got = _assembled_or_error(lambda: _on_one_space(ell1, ell2, u, q))
            if isinstance(want, str):
                assert got == want
            else:
                for g, w in zip(got, want):
                    assert np.array_equal(g.matrix, w.matrix)
                    assert (g.u, g.ell1, g.ell2, g.basis_tag, g.normalization) \
                        == (w.u, w.ell1, w.ell2, w.basis_tag, w.normalization)


def test_pair_rational_mode():
    got = _on_one_space(0.5, 1.0, 0.37 - 0.21j, RATIONAL, "monomial")
    want = (_cold(0.5, 1.0, 0.37 - 0.21j, mode="xxx"),
            _cold(0.5, 1.0, -(0.37 - 0.21j), mode="xxx"))
    for g, w in zip(got, want):
        assert np.array_equal(g.matrix, w.matrix) and g.u == w.u and g.mode == "xxx"


@pytest.mark.parametrize("u", [-1.0, 1.0])
def test_pair_raises_the_first_error_of_two_assemblies(u, q_generic):
    # u = -1 puts R(u) on the sector-1 pole of the (1/2, 1/2) pair, u = 1 puts R(-u) there
    want = _assembled_or_error(lambda: (_cold(0.5, 0.5, u, q_generic),
                                        _cold(0.5, 0.5, -u, q_generic)))
    assert isinstance(want, str)
    assert _assembled_or_error(lambda: _on_one_space(0.5, 0.5, u, q_generic)) == want


def _full_solve(ell1, ell2, u, q, basis):
    """Reference: R Phi(u) = PhiBar(-u) D solved on the whole space, from the
    sectors built at u and at -u, with one cond and one inv."""
    eig = eigenvalue_sequence(ell1, ell2, u, q)
    space = ProductSpace.of_spins(ell1, ell2, q, basis)
    cols_u, cols_mu, diag = [], [], []
    for n, (s_u, s_mu) in enumerate(zip(space.sectors(u), space.sectors(-u, "deltabar"))):
        cols_u.extend(s_u)
        cols_mu.extend(s_mu)
        diag.extend([eig[n]] * len(s_u))
    phi = np.array(cols_u).T
    if np.linalg.cond(phi) > tensorrep.COND_LIMIT:
        raise SingularBasis("eigenvector matrix is ill-conditioned at this point")
    return np.array(cols_mu).T @ np.diag(diag) @ np.linalg.inv(phi)


@pytest.mark.parametrize("basis", ["monomial", "orthonormal"])
@pytest.mark.parametrize("ell1", SPINS)
def test_spectral_form_matches_full_solve(ell1, basis):
    """The twisted block sum equals the full solve to 1e-10 relative.

    Both routes sum sector terms whose cancellation the twist
    q^{u(j'-j)} then magnifies, up to max(|q^u|, |q^-u|)^(k-1) for
    k = min(d1, d2); beyond a magnification of 1e3 the bound grows with it.
    """
    rng = np.random.default_rng(int(4 * ell1))
    compared = 0
    for ell2 in SPINS:
        k = int(round(2 * min(ell1, ell2))) + 1
        for _ in range(5):
            q, u = _regular_point(ell1, ell2, rng)
            try:
                want = _full_solve(ell1, ell2, u, q, basis)
            except QybeError:
                continue
            got = assemble_R(ell1, ell2, u, q, basis=basis).matrix
            spread = max(abs(q.pow(u)), abs(q.pow(-u))) ** (k - 1)
            bound = 1e-10 * max(1.0, spread / 1e3)
            assert np.abs(got - want).max() <= bound * np.abs(want).max()
            compared += 1
    assert compared >= 25


def test_spin_three_envelope():
    """Every regular (3, 3) point of seed 7 assembles, and R(u) R(-u) = 1."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        q, u = _regular_point(3.0, 3.0, rng)
        r_u, r_mu = _on_one_space(3.0, 3.0, u, q)
        prod = r_u.matrix @ r_mu.matrix
        assert residual(prod, np.eye(49), prod) < 1e-9


def test_assembly_reuses_the_space_form(q_generic, monkeypatch):
    space = ProductSpace.of_spins(1.0, 1.5, q_generic, "orthonormal")
    form = space.spectral_form()

    def no_chains(self, kinds, us, sp, sm):
        raise AssertionError(f"assemble_R built {kinds} chains of its own")

    monkeypatch.setattr(ProductSpace, "_chains", no_chains)
    for u in (0.3 - 0.2j, -0.3 + 0.2j):
        assemble_R(1.0, 1.5, u, q_generic)
    assert ProductSpace.of_spins(1.0, 1.5, q_generic, "orthonormal") is space
    assert space.spectral_form() is form


@pytest.mark.parametrize("ell", [1.0, 3.0])
def test_a_failed_form_is_built_again_on_each_call(ell, monkeypatch):
    """The memoised space does not keep a form that failed, nor its error:
    three failing calls raise the same type and message, and each makes
    its own chain pass."""
    passes = []
    chain_pass = ProductSpace.chain_pass

    def counting_pass(self, *args, **kwargs):
        passes.append(args)
        return chain_pass(self, *args, **kwargs)

    monkeypatch.setattr(ProductSpace, "chain_pass", counting_pass)
    raised = []
    for _ in range(3):
        with pytest.raises(CompletenessFailure) as exc:
            assemble_R(ell, ell, 0.3 - 0.1j, DeformationParameter.root_of_unity(3))
        raised.append((type(exc.value), str(exc.value)))
    assert passes == [()] * 3
    assert raised[1:] == raised[:1] * 2


def test_rational_assembly_solves_on_the_given_space(monkeypatch):
    us = (0.3 - 0.2j, -0.3 + 0.2j)
    want = [_cold(1.0, 1.5, u, mode="xxx").matrix for u in us]
    space = ProductSpace.of_spins(1.0, 1.5, RATIONAL, "monomial")
    form = space.spectral_form()

    def no_new_space(*args):
        raise AssertionError("assemble_R built a space of its own")

    monkeypatch.setattr(ProductSpace, "__init__", no_new_space)
    for u, m in zip(us, want):
        assert np.array_equal(assemble_R(1.0, 1.5, u, mode="xxx").matrix, m)
    assert space.spectral_form() is form


def test_warm_memo_assembles_what_a_cold_build_does(rng):
    """Six u at one q: R from the memoised form equals R from a form built
    for that call alone, bit for bit."""
    q = sample_generic_q(rng)
    us = [sample_u(rng) for _ in range(6)]
    warm = [assemble_R(1.5, 2.0, u, q).matrix for u in us]
    assert _spin_space.cache_info().hits == 5
    for u, m in zip(us, warm):
        assert np.array_equal(_cold(1.5, 2.0, u, q).matrix, m)


def test_memo_holds_at_most_its_bound(rng):
    for _ in range(20):
        q, u = _regular_point(0.5, 1.0, rng)
        assemble_R(0.5, 1.0, u, q)
    info = _spin_space.cache_info()
    assert info.misses == 20
    assert info.currsize <= _SPACE_MEMO_SIZE


@pytest.mark.parametrize("pair", PAIRS)
def test_the_rational_point_has_one_spelling(pair, q_generic):
    """q = RATIONAL and mode="xxx" are one R, reported alike; every other q is xxz."""
    u = 0.37 - 0.21j
    by_q = assemble_R(*pair, u, RATIONAL, basis="monomial")
    by_mode = assemble_R(*pair, u, mode="xxx")
    assert np.array_equal(by_q.matrix, by_mode.matrix)
    for rm in (by_q, by_mode, closed_form_R(*pair, u, RATIONAL)):
        assert rm.q is RATIONAL and rm.mode == "xxx"
    for rm in (assemble_R(*pair, u, q_generic), closed_form_R(*pair, u, q_generic)):
        assert rm.q is q_generic and rm.mode == "xxz"


def test_a_missing_q_or_an_unknown_mode_is_rejected():
    with pytest.raises(ParameterDomainError):
        assemble_R(0.5, 0.5, 0.3)
    with pytest.raises(ParameterDomainError):
        assemble_R(0.5, 0.5, 0.3, RATIONAL, mode="xyz")
    with pytest.raises(ParameterDomainError):
        eigenvalue_sequence(0.5, 0.5, 0.3, None)


def test_singular_basis_names_its_block(monkeypatch, q_generic):
    # the sectors at u = 0, taken at the default limit, which they pass
    sectors = ProductSpace.of_spins(1.0, 1.0, q_generic, "orthonormal").sectors(0.0)
    monkeypatch.setattr(tensorrep, "COND_LIMIT", 1.0)
    _spin_space.cache_clear()  # a form built at the default limit would serve the call
    with pytest.raises(SingularBasis) as exc:
        assemble_R(1.0, 1.0, 0.4 + 0.2j, q_generic)
    err = exc.value
    # the condition number of each weight block from those sectors, one
    # block per total degree b, columns scaled to unit length
    degree = np.add.outer(np.arange(3), np.arange(3)).ravel()
    conds = []
    for b in range(5):
        cols = np.array([s[b - n][degree == b] for n, s in enumerate(sectors)
                         if 0 <= b - n < len(s)]).T
        conds.append(np.linalg.cond(cols / np.linalg.norm(cols, axis=0)))
    worst = int(np.argmax(conds))
    assert err.weight == worst - 2
    assert err.size == min(worst, 4 - worst) + 1
    assert err.cond == pytest.approx(conds[worst], rel=1e-10) and err.cond > 1
    assert f"weight {worst - 2:g} (size {err.size})" in str(err)
    assert f"{err.cond:.3e}" in str(err)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_closed_form_spin_half_one_at_root_of_unity(n):
    """The orthonormal entry sqrt([1][2]) takes the branch build_spin_rep takes:
    at N = 3, sqrt(q + 1/q) took the other one."""
    q = DeformationParameter.root_of_unity(n)
    for u in (0.3 + 0.2j, -0.7 + 0.4j):
        rm = closed_form_R(0.5, 1.0, u, q)
        assert max(decomposed_residuals(rm).values()) <= 1e-12


@pytest.mark.parametrize("spin,u", [(1.0, 1000), (3.0, 200)])
def test_assemble_R_rejects_an_overflowing_u(spin, u):
    """At |q| = 1/2 these u overflow a power of q: assemble_R raises instead of
    returning a matrix with a NaN entry, and warns of nothing on the way."""
    q = DeformationParameter.generic(0.3 + 0.4j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterDomainError,
                           match=re.escape(f"spins ({spin}, {spin}), u = ({u}+0j)")):
            assemble_R(spin, spin, u, q)


@pytest.mark.parametrize("build,u", [(eigenvalue_sequence, 2000), (closed_form_R, 1000)])
def test_eigenvalues_and_table_reject_an_overflowing_u(build, u):
    """At |q| = 1/2 these u overflow a power of q: the eigenvalues and the
    tabulated R raise, naming the spins and u, and warn of nothing."""
    q = DeformationParameter.generic(0.3 + 0.4j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterDomainError,
                           match=re.escape(f"not finite at spins (1, 1), u = ({u}+0j)")):
            build(1, 1, u, q)
