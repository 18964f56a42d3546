import numpy as np
import pytest

from conftest import q_inverse
from qybe import (RATIONAL, CyclicRepSpec, DeformationParameter, build_cyclic_rep,
                  build_spin_rep, casimir_matrix, qnum, tensor_casimir, weight_reversed)
from qybe import tensorrep
from qybe.errors import (BadSpin, CompletenessFailure, DimensionMismatch, ParameterDomainError,
                         _raise_first)
from qybe.qcore import residual, sample_generic_q, sample_params, sample_u
from qybe.tensorrep import (CasimirSpectrumReport, ProductSpace, SectorEigenvalue,
                            _lowest_weights, kron)


def _pair(ell1, ell2, q, basis="monomial"):
    return build_spin_rep(ell1, q, basis), build_spin_rep(ell2, q, basis)


def test_twisted_raising_matches_printed_table(q_generic, rng):
    u = sample_u(rng)
    r1, r2 = _pair(0.5, 0.5, q_generic)
    cop = ProductSpace(r1, r2).coproduct("delta", u)
    p = q_generic.pow
    expected = np.array([
        [0, p((u - 1) / 2), p((1 - u) / 2), 0],
        [0, 0, 0, p(-(u + 1) / 2)],
        [0, 0, 0, p((u + 1) / 2)],
        [0, 0, 0, 0],
    ])
    assert np.allclose(weight_reversed(cop.sp), expected, atol=1e-12)
    lowered = np.array([
        [0, 0, 0, 0],
        [p(-(u + 1) / 2), 0, 0, 0],
        [p((u + 1) / 2), 0, 0, 0],
        [0, p((u - 1) / 2), p((1 - u) / 2), 0],
    ])
    assert np.allclose(weight_reversed(cop.sm), lowered, atol=1e-12)
    a = 1.3 - 0.4j
    assert np.allclose(weight_reversed(cop.qs(a)),
                       np.diag([p(a), 1, 1, p(-a)]), atol=1e-12)


def test_twisted_generators_match_printed_6x6(q_generic, rng):
    """Mixed pair (1/2, 1) in orthonormal bases against the tabulated 6x6
    twisted shift operators (descending-weight ordering)."""
    u = sample_u(rng)
    qv = q_generic.value
    p = q_generic.pow
    r1 = _pair(0.5, 1.0, q_generic, "orthonormal")
    cop = ProductSpace(*r1).coproduct("delta", u)
    s_up = np.zeros((6, 6), complex)
    s_up[0, 1] = s_up[1, 2] = p(u / 2) * np.sqrt(1 + qv**-2)
    s_up[0, 3] = p(1 - u / 2)
    s_up[1, 4] = p(-u / 2)
    s_up[2, 5] = p(-1 - u / 2)
    s_up[3, 4] = s_up[4, 5] = p(u / 2) * np.sqrt(1 + qv**2)
    s_dn = np.zeros((6, 6), complex)
    s_dn[1, 0] = s_dn[2, 1] = p(-u / 2) * np.sqrt(1 + qv**-2)
    s_dn[3, 0] = p(1 + u / 2)
    s_dn[4, 1] = p(u / 2)
    s_dn[5, 2] = p(-1 + u / 2)
    s_dn[4, 3] = s_dn[5, 4] = p(-u / 2) * np.sqrt(1 + qv**2)
    assert np.allclose(weight_reversed(cop.sp), s_up, atol=1e-12)
    assert np.allclose(weight_reversed(cop.sm), s_dn, atol=1e-12)
    # the lowest-weight direction in the degree-1 slice is pinned by the
    # null space of the printed lowering matrix
    chain = ProductSpace.of_spins(0.5, 1.0, q_generic, "orthonormal").sectors(u)[1]
    v = weight_reversed(chain[0])
    assert v[2] / v[4] == pytest.approx(-p(1 - u) * np.sqrt(1 + qv**2))


def test_untwisted_limit(q_generic):
    r1, r2 = _pair(1.0, 0.5, q_generic)
    cop = ProductSpace(r1, r2).coproduct("delta", 0.0)
    sm = np.kron(r1.sm, r2.qs(1)) + np.kron(r1.qs(-1), r2.sm)
    sp = np.kron(r1.sp, r2.qs(1)) + np.kron(r1.qs(-1), r2.sp)
    assert np.allclose(cop.sm, sm, atol=1e-12)
    assert np.allclose(cop.sp, sp, atol=1e-12)
    bar = ProductSpace(r1, r2).coproduct("deltabar", 0.0)
    sm_bar = np.kron(r1.sm, r2.qs(-1)) + np.kron(r1.qs(1), r2.sm)
    assert np.allclose(bar.sm, sm_bar, atol=1e-12)


@pytest.mark.parametrize("kind", ["delta", "deltabar"])
def test_twisted_coproduct_algebra(kind, rng):
    for _ in range(10):
        q = sample_generic_q(rng)
        u = sample_u(rng)
        r1, r2 = _pair(0.5, 1.0, q)
        cop = ProductSpace(r1, r2).coproduct(kind, u)
        assert cop.algebra_residual() < 1e-10


def test_mismatched_parameters_rejected(rng):
    q1 = sample_generic_q(rng)
    q2 = sample_generic_q(rng)
    with pytest.raises(DimensionMismatch):
        ProductSpace(build_spin_rep(0.5, q1), build_spin_rep(0.5, q2))


def test_sector_zero_vector(q_generic, rng):
    u = sample_u(rng)
    space = ProductSpace.of_spins(0.5, 0.5, q_generic)
    v0 = space.sectors(u)[0][0]
    assert v0[0] == pytest.approx(1.0)
    assert np.abs(v0[1:]).max() < 1e-14
    assert np.allclose(space.sectors(u, "deltabar")[0][0], v0)


def test_sector_one_spin_half_pair(q_generic, rng):
    u = sample_u(rng)
    sectors = ProductSpace.of_spins(0.5, 0.5, q_generic).sectors(u)
    v = sectors[1][0].reshape(2, 2)
    assert v[1, 0] == pytest.approx(q_generic.pow((1 - u) / 2))
    assert v[0, 1] == pytest.approx(-q_generic.pow((u - 1) / 2))
    assert abs(v[0, 0]) < 1e-14 and abs(v[1, 1]) < 1e-14


def test_degree_two_vector_matches_printed_9dim(q_generic, rng):
    """Spin pair (1,1), orthonormal bases: the degree-2 lowest-weight vector
    is exactly (q^{1-u}, -1, q^{u-1}) on (x1^2, x1 x2, x2^2)."""
    u = sample_u(rng)
    chain = ProductSpace.of_spins(1.0, 1.0, q_generic, "orthonormal").sectors(u)[2]
    v = weight_reversed(chain[0])
    expected = np.zeros(9, complex)
    expected[2] = q_generic.pow(1 - u)
    expected[4] = -1.0
    expected[6] = q_generic.pow(u - 1)
    assert np.allclose(v, expected, atol=1e-12)


def _homogeneous_null_vector(sm, d1, d2, degree):
    """SVD null-space oracle on the total-degree slice, independent of the
    closed product formula."""
    cols = [j * d2 + k for j in range(d1) for k in range(d2) if j + k == degree]
    rows = [j * d2 + k for j in range(d1) for k in range(d2) if j + k == degree - 1]
    block = sm[np.ix_(rows, cols)] if rows else np.zeros((1, len(cols)))
    _, s, vh = np.linalg.svd(block)
    null = vh[-1].conj()
    out = np.zeros(d1 * d2, complex)
    for c, idx in zip(null, cols):
        out[idx] = c
    return out


@pytest.mark.parametrize("pair", [(0.5, 0.5), (0.5, 1.0), (1.0, 1.0)])
def test_product_formula_matches_null_space_oracle(pair, rng):
    ell1, ell2 = pair
    for _ in range(3):
        q = sample_generic_q(rng)
        u = sample_u(rng)
        r1, r2 = _pair(ell1, ell2, q)
        space = ProductSpace(r1, r2)
        cop = space.coproduct("delta", u)
        for n, chain in enumerate(space.sectors(u)):
            oracle = _homogeneous_null_vector(cop.sm, r1.dim, r2.dim, n)
            v = chain[0]
            cos = abs(np.vdot(oracle, v)) / (np.linalg.norm(oracle) * np.linalg.norm(v))
            assert cos > 1 - 1e-10


@pytest.mark.parametrize("pair", [(0.5, 0.5), (0.5, 1.0), (1.0, 1.0), (1.5, 1.0)])
def test_sector_completeness(pair, q_generic, rng):
    ell1, ell2 = pair
    u = sample_u(rng)
    space = ProductSpace.of_spins(ell1, ell2, q_generic)
    sectors = space.sectors(u)
    d1, d2 = int(2 * ell1 + 1), int(2 * ell2 + 1)
    assert sum(len(s) for s in sectors) == d1 * d2
    for n, (s, bar) in enumerate(zip(sectors, space.sectors(u, "deltabar"), strict=True)):
        assert s.shape == bar.shape == (d1 + d2 - 2 * n - 1, d1 * d2)


def _rescale_arguments(vec, d1, d2, power, q):
    """Coefficients of f(q^{-power} x1, q^{power} x2)."""
    c = vec.reshape(d1, d2).copy()
    for j in range(d1):
        c[j, :] *= q.pow(power * (np.arange(d2) - j))
    return c.ravel()


@pytest.mark.parametrize("pair", [(1.0, 1.0), (1.5, 1.0)])
def test_descent_laws(pair, rng):
    """Action of the twisted lowering operator on the four vector families.

    With L = l1 + l2 + 1:
      S-_u phi_n(u)      = 0
      S-_u phibar_n(u)   = -(q-1/q) [n][L-n-u]                  phibar_{n-1}(u)
      S-_u phi_n(-u)     =  (q-1/q) [u][n] q^{l1-l2} * (arg-rescaled phi_{n-1}(-u))
      S-_u phibar_n(-u)  =  (q-1/q) [n][n-1-l1-l2]              phibar_{n-1}(-u)
    """
    ell1, ell2 = pair
    d1, d2 = int(2 * ell1 + 1), int(2 * ell2 + 1)
    for _ in range(3):
        q = sample_generic_q(rng)
        u = sample_u(rng)
        r1, r2 = _pair(ell1, ell2, q)
        sm_u = ProductSpace(r1, r2).coproduct("delta", u).sm
        cq = q.value - 1 / q.value
        big_l = ell1 + ell2 + 1
        def phi(n, spec, barred):
            return _lowest_weights(ell1, ell2, [spec], [q], d1, d2, barred, n + 1)[0, n]
        sm_bar_u = ProductSpace(r1, r2).coproduct("deltabar", u).sm
        for n in range(1, min(d1, d2)):
            assert np.abs(sm_u @ phi(n, u, False)).max() < 1e-10
            lhs = sm_u @ phi(n, u, True)
            rhs = -cq * qnum(n, q) * qnum(big_l - n - u, q) * phi(n - 1, u, True)
            assert np.allclose(lhs, rhs, atol=1e-9)
            lhs = sm_u @ phi(n, -u, False)
            rhs = cq * qnum(u, q) * qnum(n, q) * q.pow(ell1 - ell2) \
                * _rescale_arguments(phi(n - 1, -u, False), d1, d2, 1.0, q)
            assert np.allclose(lhs, rhs, atol=1e-9)
            lhs = sm_u @ phi(n, -u, True)
            rhs = cq * qnum(n, q) * qnum(n - 1 - ell1 - ell2, q) * phi(n - 1, -u, True)
            assert np.allclose(lhs, rhs, atol=1e-9)
            # q <-> 1/q images: the barred lowering operator acting on the
            # unbarred family (the bracket is even, q - 1/q flips sign)
            assert np.abs(sm_bar_u @ phi(n, u, True)).max() < 1e-10
            lhs = sm_bar_u @ phi(n, u, False)
            rhs = cq * qnum(n, q) * qnum(big_l - n - u, q) * phi(n - 1, u, False)
            assert np.allclose(lhs, rhs, atol=1e-9)


def test_barred_vectors_are_inverse_parameter_twins(rng):
    q = sample_generic_q(rng)
    u = sample_u(rng)
    qi = q_inverse(q)
    for n in range(3):
        direct = _lowest_weights(1.0, 1.0, [u], [q], 3, 3, True, n + 1)[0, n]
        via_inverse = _lowest_weights(1.0, 1.0, [u], [qi], 3, 3, False, n + 1)[0, n]
        assert np.allclose(direct, via_inverse, atol=1e-12)


def test_barred_vectors_swap_factors(rng):
    """Swapping (x1, l1) <-> (x2, l2) in phi_n gives (-1)^n phibar_n."""
    q = sample_generic_q(rng)
    u = sample_u(rng)
    ell1, ell2 = 0.5, 1.0
    d1, d2 = 2, 3
    for n in range(1, 3):
        barred = _lowest_weights(ell1, ell2, [u], [q], d1, d2, True, n + 1)[0, n]
        swapped = _lowest_weights(ell2, ell1, [u], [q], d2, d1, False, n + 1)[0, n]
        swapped = swapped.reshape(d2, d1).T.ravel()
        assert np.allclose(barred, (-1) ** n * swapped, atol=1e-12)


def test_tensor_casimir_printed_4x4(q_generic, rng):
    u = sample_u(rng)
    r1, r2 = _pair(0.5, 0.5, q_generic)
    c = casimir_matrix(ProductSpace(r1, r2).coproduct("delta", u))
    qv = q_generic.value
    p = q_generic.pow
    expected = np.array([
        [qv + 1 / qv, 0, 0, 0],
        [0, 1 / qv, p(-u), 0],
        [0, p(u), qv, 0],
        [0, 0, 0, qv + 1 / qv],
    ])
    assert np.allclose(weight_reversed(c), expected, atol=1e-12)
    c_bar = casimir_matrix(ProductSpace(r1, r2).coproduct("deltabar", u))
    expected_bar = np.array([
        [qv + 1 / qv, 0, 0, 0],
        [0, qv, p(u), 0],
        [0, p(-u), 1 / qv, 0],
        [0, 0, 0, qv + 1 / qv],
    ])
    assert np.allclose(weight_reversed(c_bar), expected_bar, atol=1e-12)


@pytest.mark.parametrize("kind", ["delta", "deltabar"])
@pytest.mark.parametrize("pair", [(0.5, 0.5), (0.5, 1.0), (1.0, 1.0)])
def test_tensor_casimir_sector_spectrum(pair, kind, rng):
    ell1, ell2 = pair
    for _ in range(3):
        q = sample_generic_q(rng)
        u = sample_u(rng)
        space = ProductSpace(*_pair(ell1, ell2, q))
        report = tensor_casimir(space, u, kind)
        assert report.max_residual < 1e-10
        assert report.max_m_spread < 1e-10
        for sec in report.sectors:
            expected = qnum(sec.n - ell1 - ell2, q) * qnum(sec.n - ell1 - ell2 - 1, q)
            assert sec.expected == pytest.approx(expected)


def test_sector_zero_eigenvalue_is_symmetric_bracket(q_generic, rng):
    u = sample_u(rng)
    space = ProductSpace(*_pair(0.5, 1.0, q_generic))
    report = tensor_casimir(space, u)
    lam0 = report.sectors[0].expected
    q = q_generic
    assert lam0 == pytest.approx(qnum(1.5, q) * qnum(2.5, q))


def test_casimir_full_spectrum_oracle(rng):
    """Eigendecomposition oracle: the multiset of eigenvalues of the Casimir
    matches the sector formula with chain multiplicities."""
    q = sample_generic_q(rng)
    u = sample_u(rng)
    r1, r2 = _pair(0.5, 1.0, q)
    c = casimir_matrix(ProductSpace(r1, r2).coproduct("delta", u))
    eigs = np.linalg.eigvals(c)
    lam = [qnum(n - 1.5, q) * qnum(n - 2.5, q) for n in (0, 1)]
    expected = np.array([lam[0]] * 4 + [lam[1]] * 2)
    assert np.allclose(np.sort_complex(eigs), np.sort_complex(expected), atol=1e-8)


def _cplx(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b) \
        and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d", range(1, 8))
def test_kron_matches_numpy_bit_for_bit(d, rng):
    """np.kron stays the reference for the broadcast kernel."""
    for e in range(1, 8):
        v, w = _cplx(rng, d), _cplx(rng, e)
        assert _same_bits(kron(v, w), np.kron(v, w))
        a = _cplx(rng, d, d)
        diag = np.diag(_cplx(rng, e))
        for a_, b_ in ((a, np.eye(e)), (np.eye(e), a), (a, diag), (diag, a)):
            assert _same_bits(kron(a_, b_), np.kron(a_, b_))


def _four_kron_coproduct(rep1, rep2, kind, u):
    """Reference: the twisted generators as four Kronecker products per call."""
    qu = rep1.q.pow(u / 2)
    if kind == "delta":
        sm = qu * kron(rep1.sm, rep2.qs(1)) + kron(rep1.qs(-1), rep2.sm) / qu
        sp = kron(rep1.sp, rep2.qs(1)) / qu + qu * kron(rep1.qs(-1), rep2.sp)
    else:
        sm = kron(rep1.sm, rep2.qs(-1)) / qu + qu * kron(rep1.qs(1), rep2.sm)
        sp = qu * kron(rep1.sp, rep2.qs(-1)) + kron(rep1.qs(1), rep2.sp) / qu
    return sm, sp


def _assert_space_matches_reference(space, rep1, rep2, us):
    weights = np.add.outer(rep1.weights, rep2.weights).ravel()
    # both kinds interleaved over several u, so cached pieces of one kind
    # or one u can never leak into another
    for u in us:
        for kind in ("deltabar", "delta"):
            cop = space.coproduct(kind, u)
            sm, sp = _four_kron_coproduct(rep1, rep2, kind, u)
            assert np.array_equal(cop.sm, sm)
            assert np.array_equal(cop.sp, sp)
            assert np.array_equal(cop.weights, weights)
            assert cop.q == rep1.q and cop.ell is None
            assert cop.basis_tag == f"{rep1.basis_tag}*{rep2.basis_tag}"


SPINS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


@pytest.mark.parametrize("basis", ["monomial", "orthonormal"])
def test_product_space_coproduct_matches_four_kron_reference(basis, rng):
    for ell1 in SPINS:
        for ell2 in SPINS:
            q = sample_generic_q(rng)
            u = sample_u(rng)
            r1, r2 = _pair(ell1, ell2, q, basis)
            space = ProductSpace(r1, r2)
            _assert_space_matches_reference(space, r1, r2, (u, -u, 0.0))
            if basis == "orthonormal":
                assert np.array_equal(space.from_monomial,
                                      kron(r1.from_monomial, r2.from_monomial))
            else:
                assert space.from_monomial is None


@pytest.mark.parametrize("n", [3, 5])
def test_product_space_coproduct_matches_reference_on_cyclic_reps(n, rng):
    for _ in range(3):
        r1 = build_cyclic_rep(CyclicRepSpec(*sample_params(rng, 3), n))
        r2 = build_cyclic_rep(CyclicRepSpec(*sample_params(rng, 3), n))
        u = sample_u(rng)
        _assert_space_matches_reference(ProductSpace(r1, r2), r1, r2, (u, -u))


def test_product_space_sectors_match_fresh_spaces(rng):
    """One space shared across u, -u and both kinds gives the sectors that a
    new space gives for each of them."""
    for ell1, ell2 in ((0.5, 1.0), (1.0, 1.5), (2.0, 2.0)):
        q = sample_generic_q(rng)
        u = sample_u(rng)
        space = ProductSpace.of_spins(ell1, ell2, q, "orthonormal")
        for uu in (u, -u):
            for kind in ("delta", "deltabar"):
                ref = ProductSpace(*_pair(ell1, ell2, q, "orthonormal")).sectors(uu, kind)
                got = space.sectors(uu, kind)
                assert len(got) == len(ref)
                for a, b in zip(got, ref):
                    assert np.array_equal(a, b)


def test_product_space_rejects_bad_kind_and_cyclic_sectors(q_generic, rng):
    space = ProductSpace.of_spins(0.5, 0.5, q_generic)
    with pytest.raises(ParameterDomainError):
        space.coproduct("twisted", 0.3)
    # an unknown kind used to be served as "delta"
    with pytest.raises(ParameterDomainError):
        space.sectors(0.3, "twisted")
    r = build_cyclic_rep(CyclicRepSpec(*sample_params(rng, 3), 3))
    with pytest.raises(ParameterDomainError):
        ProductSpace(r, r).sectors(0.3)


def test_lowest_weight_condition_fails_on_nan(q_generic):
    # a NaN residual used to pass the r > tol guard
    with pytest.raises(CompletenessFailure, match="sector 0"), np.errstate(invalid="ignore"):
        ProductSpace.of_spins(0.5, 0.5, q_generic).sectors(complex("nan"))


def test_casimir_report_folds_keep_nan():
    nan = float("nan")
    report = CasimirSpectrumReport([SectorEigenvalue(0, 0j, 0.0, 0.0),
                                    SectorEigenvalue(1, 0j, nan, nan)])
    assert np.isnan(report.max_residual)
    assert np.isnan(report.max_m_spread)


def test_tensor_casimir_keeps_nan_after_finite_vector(q_generic, rng, monkeypatch):
    u = sample_u(rng)
    # a space of its own: of_spins would hand out the shared, memoised one
    space = ProductSpace(*_pair(0.5, 0.5, q_generic))
    v = space.sectors(u)[0][0]
    monkeypatch.setattr(space, "sectors",
                        lambda u, kind="delta": [np.array([v, np.full_like(v, np.nan)])])
    with np.errstate(invalid="ignore"):
        report = tensor_casimir(space, u)
    assert np.isnan(report.max_residual)
    assert np.isnan(report.max_m_spread)


@pytest.mark.parametrize("kind", ["delta", "deltabar"])
def test_twist_is_a_diagonal_similarity(kind, rng):
    """Delta_u = T_u Delta_0 T_u^-1 with T_u = q^{-u(S1-S2)/2}; the barred
    coproduct at u carries T_{-u}."""
    for basis in ("monomial", "orthonormal"):
        for ell1, ell2 in ((0.5, 1.0), (1.5, 1.0), (2.0, 2.5)):
            q = sample_generic_q(rng)
            u = sample_u(rng)
            r1, r2 = _pair(ell1, ell2, q, basis)
            space = ProductSpace(r1, r2)
            s = u if kind == "delta" else -u
            t = q.pow(-s * np.subtract.outer(r1.weights, r2.weights).ravel() / 2)
            at_zero, at_u = space.coproduct(kind, 0.0), space.coproduct(kind, u)
            for got, base in ((at_u.sp, at_zero.sp), (at_u.sm, at_zero.sm)):
                want = t[:, None] * base / t[None, :]
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("kind,family", [("delta", "unbarred"), ("deltabar", "barred")])
def test_completeness_failure_names_sector_family_and_residual(kind, family):
    # at q = exp(2 pi i / 3) the chain of sector 0 of the (1, 1) pair, five
    # vectors long, hits [3] = 0 at its third raising step
    space = ProductSpace.of_spins(1.0, 1.0, DeformationParameter.root_of_unity(3))
    with pytest.raises(CompletenessFailure) as exc:
        space.sectors(0.3 + 0.2j, kind)
    err = exc.value
    assert (err.sector, err.family) == (0, family)
    assert 0 <= err.residual < 1e-10
    assert f"sector 0 of the {family} family breaks at step 3 of 5" in str(err)


@pytest.mark.parametrize("order,corrupt,message", [
    (None, (False, True), "lowest-weight condition fails at sector 0 of the unbarred family"),
    (None, (True,), "lowest-weight condition fails at sector 0 of the barred family"),
    (3, (True,), "raising chain of sector 0 of the unbarred family breaks at step 3"),
])
def test_one_chain_pass_raises_in_family_order(order, corrupt, message, monkeypatch):
    """Both families share one chains pass, which still raises in the order
    unbarred lowest weight, unbarred chain, barred lowest weight, barred chain."""
    lowest = tensorrep._lowest_weights

    def shifted(ell1, ell2, u, q, d1, d2, barred, count):
        c = lowest(ell1, ell2, u, q, d1, d2, barred, count)
        return c + 1.0 if barred in corrupt else c

    monkeypatch.setattr(tensorrep, "_lowest_weights", shifted)
    q = DeformationParameter.generic(np.exp(0.17 + 0.59j)) if order is None \
        else DeformationParameter.root_of_unity(order)
    with pytest.raises(CompletenessFailure, match=message):
        _raise_first(ProductSpace.of_spins(1.0, 1.0, q)._stack.spectral_form()[1])


@pytest.mark.parametrize("pair", [(2.0, 4.0), (3.0, 3.0), (2.5, 4.0), (4.0, 4.0)])
def test_sectors_at_the_rational_point(pair):
    """The block test accepts the q = 1 chains, whose exact integer entries
    differ widely in size; a rank test scaled by the largest entry rejected
    every pair whose spins sum to 6 or more."""
    ell1, ell2 = pair
    d1, d2 = int(2 * ell1 + 1), int(2 * ell2 + 1)
    space = ProductSpace.of_spins(ell1, ell2, RATIONAL)
    sp = space.coproduct().sp
    for u in (0.0, 0.3 + 0.2j):
        sectors = space.sectors(u)
        assert [len(s) for s in sectors] == [d1 + d2 - 1 - 2 * n for n in range(min(d1, d2))]
        for s, bar in zip(sectors, space.sectors(u, "deltabar"), strict=True):
            assert np.array_equal(s, bar)
            for v, w in zip(s, s[1:]):
                assert np.array_equal(sp @ v, w)


def _space_arrays(space):
    form = space._stack.spectral_form()[0]
    return [*(a for rep in space.parents for a in (rep.sp, rep.sm, rep.weights)),
            space.weights, form.left, form.right, form.cond]


def test_every_spelling_of_a_spin_shares_one_space(q_generic):
    """0.5, 0.5 + 0j and 0.5 + 1e-13 (within the half-integer tolerance) are
    one memo entry, and the space is the same whichever spelling built it."""
    spellings = [(0.5, 1.0), (0.5 + 0j, 1 + 0j), (0.5 + 1e-13, 1.0)]
    built = []
    for k in range(len(spellings)):
        first, *others = spellings[k:] + spellings[:k]
        tensorrep._spin_space.cache_clear()
        space = ProductSpace.of_spins(*first, q_generic, "orthonormal")
        for other in others:
            assert ProductSpace.of_spins(*other, q_generic, "orthonormal") is space
        assert tensorrep._spin_space.cache_info().currsize == 1
        built.append(_space_arrays(space))
    for arrays in built[1:]:
        for a, b in zip(arrays, built[0]):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_of_spins_rejects_a_spin_that_is_not_half_an_integer(q_generic):
    with pytest.raises(BadSpin, match="nonnegative integer"):
        ProductSpace.of_spins(0.3, 0.5, q_generic)


@pytest.mark.parametrize("basis", ["monomial", "orthonormal"])
def test_shared_arrays_are_read_only(basis, q_generic):
    space = ProductSpace.of_spins(1.0, 1.5, q_generic, basis)
    space.coproduct("delta", 0.3)
    space.coproduct("deltabar", 0.3)
    shared = _space_arrays(space) + [p for pieces in space._stack._pieces.values() for p in pieces]
    if basis == "orthonormal":
        shared += [rep.from_monomial for rep in space.parents] + [space.from_monomial]
    assert len(shared) == (18 if basis == "monomial" else 21)
    for arr in shared:
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 7


# ---------------------------------------------------------------------------
# the stacked paths against their per-item references

STACK_PAIRS = [(0.5, 0.5), (0.5, 1.0), (1.0, 1.0), (1.5, 1.0), (2.0, 2.5)]


def _reference_chains(space, u, kind):
    """The chains of one kind, raised one 2-D product at a time."""
    rep1, rep2 = space.parents
    d1, d2 = rep1.dim, rep2.dim
    lw = np.array([_lowest_weights(rep1.ell, rep2.ell, [u], [space.q], d1, d2,
                                   kind == "deltabar", n + 1)[0, n]
                   for n in range(min(d1, d2))]).T
    if space.from_monomial is not None:
        lw = space.from_monomial[:, None] * lw
    sp = space.coproduct(kind, u).sp
    chains = [lw]
    for _ in range(d1 + d2 - 2):
        chains.append(sp @ chains[-1])
    return np.array(chains)


@pytest.mark.parametrize("basis", ["monomial", "orthonormal"])
def test_stacked_chains_equal_the_per_kind_chains(basis, rng):
    for ell1, ell2 in STACK_PAIRS:
        q, u = sample_generic_q(rng), sample_u(rng)
        space = ProductSpace(*_pair(ell1, ell2, q, basis))
        both, errors = space._stack.chains([u], ("delta", "deltabar"))
        assert errors == [None]
        for f, kind in enumerate(("delta", "deltabar")):
            want = _reference_chains(space, u, kind)
            assert np.array_equal(both[0, f], want)
            one, errors = space._stack.chains([u], (kind,))
            assert errors == [None]
            assert np.array_equal(one[0, 0], want)


def test_stacked_pieces_equal_the_kron_of_each_pair(rng):
    for ell1, ell2 in STACK_PAIRS:
        r1, r2 = _pair(ell1, ell2, sample_generic_q(rng), "orthonormal")
        space = ProductSpace(r1, r2)
        for kind, s in (("delta", 1), ("deltabar", -1)):
            want = (kron(r1.sm, r2.qs(s)), kron(r1.qs(-s), r2.sm),
                    kron(r1.sp, r2.qs(s)), kron(r1.qs(-s), r2.sp))
            for got, ref in zip(space._stack.kind_pieces(kind), want, strict=True):
                assert np.array_equal(got[0], ref)


def _reference_casimir(space, u, kind):
    """The sector entries of tensor_casimir, one vector at a time."""
    c = casimir_matrix(space.coproduct(kind, u))
    ell = space.parents[0].ell + space.parents[1].ell
    out = []
    for n, chain in enumerate(space.sectors(u, kind)):
        lam = qnum(n - ell, space.q) * qnum(n - ell - 1, space.q)
        resid, rayleigh = 0.0, []
        for v in chain:
            cv = c @ v
            resid = max(resid, residual(cv, lam * v, v))
            rayleigh.append(np.vdot(v, cv) / np.vdot(v, v).real)
        out.append((complex(lam), float(resid),
                    float(max(abs(r - rayleigh[0]) for r in rayleigh))))
    return out


@pytest.mark.parametrize("kind", ["delta", "deltabar"])
def test_tensor_casimir_equals_the_per_vector_reference(kind, rng):
    for ell1, ell2 in STACK_PAIRS:
        for q in (sample_generic_q(rng), RATIONAL):
            u = sample_u(rng)
            space = ProductSpace.of_spins(ell1, ell2, q, "orthonormal")
            got = [(s.expected, s.max_residual, s.m_spread)
                   for s in tensor_casimir(space, u, kind).sectors]
            assert got == _reference_casimir(space, u, kind)


def test_block_layout_is_memoised_and_read_only():
    layout = tensorrep._BlockLayout.of_dims(3, 4)
    assert tensorrep._BlockLayout.of_dims(3, 4) is layout
    fresh = tensorrep._BlockLayout.of_dims.__wrapped__(tensorrep._BlockLayout, 3, 4)
    arrays = [layout.sizes, layout.live, layout.inside, *layout.take, layout.dst, layout.twist]
    for arr, ref in zip(arrays, [fresh.sizes, fresh.live, fresh.inside, *fresh.take,
                                 fresh.dst, fresh.twist], strict=True):
        assert np.array_equal(arr, ref)
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 1
