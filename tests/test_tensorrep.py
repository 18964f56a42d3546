import dataclasses

import numpy as np
import pytest

from conftest import algebra_residual, assert_close, q_inverse, raised_chains
from qybe import (RATIONAL, CyclicRepSpec, DeformationParameter, build_cyclic_rep,
                  build_spin_rep, casimir_matrix, qnum, tensor_casimir, weight_reversed)
from qybe import cyclic, tensorrep
from qybe.errors import BadSpin, CompletenessFailure, DimensionMismatch, ParameterDomainError
from qybe.qcore import (_QStack, _qnums, _relative, residual, sample_generic_q,
                        sample_params, sample_u)
from qybe.tensorrep import (CasimirSpectrumReport, ProductSpace, SectorEigenvalue,
                            _family_arrays, _lowest_weights, _twisted_terms)


def _pair(ell1, ell2, q, basis="monomial"):
    return build_spin_rep(ell1, q, basis), build_spin_rep(ell2, q, basis)


def _lowest(ell1, ell2, u, q, d1, d2, barred, count):
    """The lowest-weight rows of one family at one sample (u, q)."""
    return _lowest_weights(ell1, ell2, [[u]], [-1.0 if barred else 1.0], _QStack.of([q]), d1, d2,
                           count)[0, 0]


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
        assert algebra_residual(cop) < 1e-10


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
            return _lowest(ell1, ell2, spec, q, d1, d2, barred, n + 1)[n]
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
        direct = _lowest(1.0, 1.0, u, q, 3, 3, True, n + 1)[n]
        via_inverse = _lowest(1.0, 1.0, u, qi, 3, 3, False, n + 1)[n]
        assert np.allclose(direct, via_inverse, atol=1e-12)


def test_barred_vectors_swap_factors(rng):
    """Swapping (x1, l1) <-> (x2, l2) in phi_n gives (-1)^n phibar_n."""
    q = sample_generic_q(rng)
    u = sample_u(rng)
    ell1, ell2 = 0.5, 1.0
    d1, d2 = 2, 3
    for n in range(1, 3):
        barred = _lowest(ell1, ell2, u, q, d1, d2, True, n + 1)[n]
        swapped = _lowest(ell2, ell1, u, q, d2, d1, False, n + 1)[n]
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


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b) \
        and a.tobytes() == b.tobytes()


def _kron_pieces(rep1, rep2, kind, gen):
    """The two u-independent Kronecker pieces of generator ``gen`` (0 for
    S-, 1 for S+) of ``kind``: the S1 piece S1 x q^{+-S2} and the S2 piece
    q^{-+S1} x S2, with np.kron."""
    s = 1 if kind == "delta" else -1
    a, b = (rep1.sm, rep2.sm) if gen == 0 else (rep1.sp, rep2.sp)
    return np.kron(a, rep2.qs(s)), np.kron(rep1.qs(-s), b)


def _assert_terms_are_the_kron_pieces(rep1, rep2):
    """At u = 0, where q^{u/2} = 1, the coproduct kernel's terms are the
    entries of the Kronecker pieces at the targets the layout sends them
    to, bit for bit up to the sign of a zero, which the two routes may give
    apart, and the pieces vanish everywhere else."""
    space = ProductSpace(rep1, rep2)
    kinds = ("delta", "deltabar")
    terms = _twisted_terms(*space.factors, *_family_arrays([(k, [0.0]) for k in kinds]))[:, 0]
    for f, kind in enumerate(kinds):
        for gen in (0, 1):
            for t, piece in enumerate(_kron_pieces(rep1, rep2, kind, gen)):
                at = _reference_moves(*space.dims)[gen, t]
                # adding 0.0 clears the sign of a zero
                assert _same_bits(terms[t, f, gen ^ f].ravel() + 0.0, piece.ravel()[at] + 0.0)
                assert not np.delete(piece.ravel(), at).any()


@pytest.mark.parametrize("d", range(1, 8))
def test_kron_matches_numpy_bit_for_bit(d, rng):
    """np.kron stays the reference for the product space's broadcast
    products: for a factor of dimension d against every dimension up to 7,
    the change of coordinates from monomials is np.kron of the factors'
    bit for bit, and so are the coproduct kernel's terms, the entries of
    the Kronecker pieces; a factor of dimension 1 sends its S1 terms to
    their own column."""
    for e in range(1, 8):
        q = sample_generic_q(rng)
        r1, r2 = (build_spin_rep((n - 1) / 2, q, "orthonormal") for n in (d, e))
        space = ProductSpace(r1, r2)
        assert _same_bits(space.from_monomial[0], np.kron(r1.from_monomial, r2.from_monomial))
        _assert_terms_are_the_kron_pieces(r1, r2)


def _four_kron_coproduct(rep1, rep2, kind, u):
    """Reference: the twisted generators as four Kronecker products per call."""
    qu = rep1.q.pow(u / 2)
    if kind == "delta":
        sm = qu * np.kron(rep1.sm, rep2.qs(1)) + np.kron(rep1.qs(-1), rep2.sm) / qu
        sp = np.kron(rep1.sp, rep2.qs(1)) / qu + qu * np.kron(rep1.qs(-1), rep2.sp)
    else:
        sm = np.kron(rep1.sm, rep2.qs(-1)) / qu + qu * np.kron(rep1.qs(1), rep2.sm)
        sp = qu * np.kron(rep1.sp, rep2.qs(-1)) + np.kron(rep1.qs(1), rep2.sp) / qu
    return sm, sp


def _assert_space_matches_reference(space, rep1, rep2, us):
    weights = np.add.outer(rep1.weights, rep2.weights).ravel()
    # both kinds interleaved over several u, so cached pieces of one kind
    # or one u can never leak into another
    for u in us:
        for kind in ("deltabar", "delta"):
            cop = space.coproduct(kind, u)
            sm, sp = _four_kron_coproduct(rep1, rep2, kind, u)
            assert_close(cop.sm, sm)
            assert_close(cop.sp, sp)
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
                assert _same_bits(space.from_monomial[0],
                                  np.kron(r1.from_monomial, r2.from_monomial))
            else:
                assert space.from_monomial is None


@pytest.mark.parametrize("n", [3, 5])
def test_product_space_coproduct_matches_reference_on_cyclic_reps(n, rng):
    for _ in range(3):
        r1 = build_cyclic_rep(CyclicRepSpec(*sample_params(rng, 3), n))
        r2 = build_cyclic_rep(CyclicRepSpec(*sample_params(rng, 3), n))
        u = sample_u(rng)
        _assert_space_matches_reference(ProductSpace(r1, r2), r1, r2, (u, -u))


def test_product_space_rejects_a_factor_off_its_bands(q_generic):
    """A factor's S+ and S- must sit on their bands, [(k+1) mod d, k] and
    [(k-1) mod d, k]: a coproduct's generators do not, so a space of a
    coproduct and a representation is refused, not built without the
    entries off the bands."""
    rep = build_spin_rep(0.5, q_generic)
    space = ProductSpace(rep, rep)
    with pytest.raises(ParameterDomainError, match="band"):
        ProductSpace(space.coproduct("delta", 0.3), rep)
    with pytest.raises(ParameterDomainError, match="band"):
        ProductSpace(rep, space.coproduct("deltabar", 0.3))
    diagonal = dataclasses.replace(rep, sp=rep.sp + np.eye(2))
    with pytest.raises(ParameterDomainError, match="band"):
        ProductSpace(diagonal, rep)


def test_product_space_rejects_a_nonzero_generator_of_dimension_1():
    """At d = 1 the band is the diagonal, so the band test alone let a
    nonzero 1 x 1 S+ or S- through into the coproduct; spin 0, whose
    generators are 0, gives the coproducts of the zero map either way."""
    q = DeformationParameter.generic(0.3 + 0.4j)
    zero = build_spin_rep(0, q)
    for generator in ("sp", "sm"):
        bad = dataclasses.replace(zero, **{generator: np.ones((1, 1), complex)})
        for pair in ((bad, zero), (zero, bad)):
            with pytest.raises(ParameterDomainError, match="dimension 1"):
                ProductSpace(*pair)
    for space in (ProductSpace(zero, zero), ProductSpace.of_spins(0, 0, q)):
        for kind in ("delta", "deltabar"):
            for u in (0.3, 0.0, -0.0, 1.3j):
                c = space.coproduct(kind, u)
                for got, want in ((c.sp, [[0j]]), (c.sm, [[0j]]), (c.weights, [0j])):
                    assert _same_bits(got, np.array(want))


def test_product_space_of_cyclic_band_stacks(rng):
    """Band stacks of one cyclic sample each give the dimensions of their
    bands and the coproducts of the built representations; the halves of a
    stack of four specs carry weights per sample, which a product space
    refuses, instead of reading 2N labels per factor from them."""
    specs = [CyclicRepSpec(*sample_params(rng, 3), 3) for _ in range(4)]
    space = ProductSpace(cyclic._rep_bands(specs[:1]), cyclic._rep_bands(specs[1:2]))
    built = ProductSpace(*(build_cyclic_rep(spec) for spec in specs[:2]))
    assert space.dims == built.dims == (3, 3)
    assert np.array_equal(space.weights, built.weights)
    families = [("delta", [0.3 - 0.1j]), ("deltabar", [0.2j])]
    for got, want in zip(space.chain_pass(form=False, read=families)[1],
                         built.chain_pass(form=False, read=families)[1], strict=True):
        assert got.tobytes() == want.tobytes()
    with pytest.raises(ParameterDomainError, match="weight"):
        ProductSpace(*cyclic._Pairs.of(specs[:2], specs[2:], [0.3, 0.2]).halves)


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
    # a space of two q values has no one-q coproduct or sectors
    stack = ProductSpace.stack_of_spins(1.0, 1.0, _QStack.of((q_generic, sample_generic_q(rng))),
                                        "monomial")
    with pytest.raises(DimensionMismatch, match="one q"):
        stack.coproduct("delta", 0.3)
    with pytest.raises(DimensionMismatch, match="one q"):
        stack.sectors(0.3)


def test_lowest_weight_condition_fails_on_nan(q_generic):
    # a NaN residual used to pass the r > tol guard; sectors() now rejects a
    # NaN u at its boundary, so the guard is reached through chain_pass
    with np.errstate(invalid="ignore"), pytest.raises(CompletenessFailure, match="sector 0"):
        ProductSpace.of_spins(0.5, 0.5, q_generic).chain_pass(("delta", [complex("nan")]),
                                                              form=False)


@pytest.mark.parametrize("u", [float("nan"), float("inf"), complex(0.3, float("-inf"))])
def test_coproduct_and_sectors_reject_a_non_finite_u(u, q_generic):
    space = ProductSpace.of_spins(0.5, 1.0, q_generic)
    for call in (lambda: space.coproduct("delta", u), lambda: space.coproduct("deltabar", u),
                 lambda: space.sectors(u), lambda: space.sectors(u, "deltabar")):
        with pytest.raises(ParameterDomainError, match="u must be finite"):
            call()


@pytest.mark.parametrize("pair", [(0.0, 1.0), (0.5, 0.5), (1.0, 1.0), (1.5, 2.0), (3.0, 3.0)])
def test_a_size_one_block_has_its_closed_form_condition_number(pair):
    """The end blocks, every block where one factor has dimension 1, have
    size 1: each is diag(x, 1, ..., 1) with unit columns, whose condition
    number max(|x|, 1) / min(|x|, 1) is within 4 ulps of the SVD's, as is
    every block's on seeded chains; a NaN or zero x fails the limit."""
    rng = np.random.default_rng(int(4 * sum(pair)))
    qs = _QStack.of([sample_generic_q(rng, on_circle=(s % 2 == 0)) for s in range(6)])
    space = ProductSpace.stack_of_spins(*pair, qs, "orthonormal")
    us = [[sample_u(rng) for _ in range(6)] for _ in range(2)]
    blocks = space.layout.cut(raised_chains(space, [("delta", us[0]), ("deltabar", us[1])]))
    size_one = space.layout.sizes == 1
    assert size_one[[0, -1]].all() and size_one.all() == (min(space.dims) == 1)
    unit, _, cond = tensorrep._unit_blocks(blocks)
    s = np.linalg.svd(unit, compute_uv=False)
    ref = s[..., 0] / s[..., -1]
    assert (np.abs(cond - ref) <= 4 * np.spacing(ref)).all()
    for x in (complex("nan"), 0j):
        broken = blocks.copy()
        broken[2, 1, -1, 0, 0] = x
        # chain_pass, which calls it, runs with numpy's warnings off
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = tensorrep._unit_blocks(broken)[2]
        assert not cond[2, 1, -1] <= tensorrep.COND_LIMIT
        assert (cond[[0, 1, 3, 4, 5]] <= tensorrep.COND_LIMIT).all()


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
    chains = space.chain_pass(("delta", [u]), form=False)[0].copy()
    chains[0, 1, :, 0] = np.nan  # sector 0, after its finite lowest-weight vector
    real = space.chain_pass
    # the pass gives the doctored chains and the real coproduct it reads
    monkeypatch.setattr(space, "chain_pass", lambda sector=None, form=True, read=():
                        (chains, real(form=form, read=read)[1]))
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

    def shifted(ell1, ell2, us, signs, qs, d1, d2, count):
        c = lowest(ell1, ell2, us, signs, qs, d1, d2, count)
        return c + np.isin(np.less(signs, 0), corrupt)[:, None, None]

    monkeypatch.setattr(tensorrep, "_lowest_weights", shifted)
    q = DeformationParameter.generic(np.exp(0.17 + 0.59j)) if order is None \
        else DeformationParameter.root_of_unity(order)
    with pytest.raises(CompletenessFailure, match=message):
        ProductSpace.of_spins(1.0, 1.0, q).spectral_form()


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
    form = space.spectral_form()
    return [*(a for f in space.factors for a in (f.lift, f.lower, f.weights)),
            space.weights, form.left, form.right]


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


@pytest.mark.parametrize("basis", ["monomial", "orthonormal"])
@pytest.mark.parametrize("pair", [(0.5, 0.5), (1.0, 1.5), (1.5, 1.0)])
def test_of_spins_is_the_space_of_two_built_reps(pair, basis, q_generic):
    """The memoised space, built from stacked factors, is bit for bit the
    space of two built representations, at a generic q and at q = 1: its
    factor bands, its coproducts at +-u and its spectral form.  Equal spins
    share one factor."""
    u = 0.37 - 0.21j
    for q in (q_generic, RATIONAL):
        memo = ProductSpace.of_spins(*pair, q, basis)
        assert (memo.factors[0] is memo.factors[1]) == (pair[0] == pair[1])
        arrays = []
        for space in (memo, ProductSpace(*_pair(*pair, q, basis))):
            form = space.spectral_form()
            kinds = ("delta", "deltabar")
            arrays.append([*(a for f in space.factors for a in (f.lift, f.lower)),
                           *(m[:, 0] for kind in kinds for x in (u, -u)
                             for m in space.chain_pass(form=False, read=[(kind, [x])])[1]),
                           form.left, form.right])
        got, want = arrays
        assert len(got) == len(want) == 14
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_of_spins_rejects_a_spin_that_is_not_half_an_integer(q_generic):
    with pytest.raises(BadSpin, match="nonnegative integer"):
        ProductSpace.of_spins(0.3, 0.5, q_generic)


@pytest.mark.parametrize("basis", ["monomial", "orthonormal"])
def test_shared_arrays_are_read_only(basis, q_generic):
    space = ProductSpace.of_spins(1.0, 1.5, q_generic, basis)
    space.coproduct("delta", 0.3)
    space.coproduct("deltabar", 0.3)
    shared = _space_arrays(space) + [space.layout.scatter]
    if basis == "orthonormal":
        shared += [f.from_monomial for f in space.factors] + [space.from_monomial]
    assert len(shared) == (10 if basis == "monomial" else 13)
    for arr in shared:
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 7


# ---------------------------------------------------------------------------
# the stacked paths against their per-item references

STACK_PAIRS = [(0.5, 0.5), (0.5, 1.0), (1.0, 1.0), (1.5, 1.0), (2.0, 2.5)]


def _reference_chains(space, u, kind):
    """The chains of one kind, raised one 2-D product at a time."""
    f1, f2 = space.factors
    d1, d2 = space.dims
    lw = np.array([_lowest(f1.ell, f2.ell, u, space.qs[0], d1, d2, kind == "deltabar", n + 1)[n]
                   for n in range(min(d1, d2))]).T
    if space.from_monomial is not None:
        lw = space.from_monomial[0][:, None] * lw
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
        both = raised_chains(space, [("delta", [u]), ("deltabar", [u])])
        for f, kind in enumerate(("delta", "deltabar")):
            want = _reference_chains(space, u, kind)
            assert np.array_equal(both[0, f], want)
            one = raised_chains(space, [(kind, [u])])
            assert np.array_equal(one[0, 0], want)


def test_stacked_pieces_equal_the_kron_of_each_pair(rng):
    for ell1, ell2 in STACK_PAIRS:
        for basis in ("monomial", "orthonormal"):
            _assert_terms_are_the_kron_pieces(*_pair(ell1, ell2, sample_generic_q(rng), basis))


def _reference_casimir(space, u, kind):
    """The sector entries of tensor_casimir, one vector at a time."""
    c = casimir_matrix(space.coproduct(kind, u))
    ell = space.factors[0].ell + space.factors[1].ell
    (q,) = space.qs
    out = []
    for n, chain in enumerate(space.sectors(u, kind)):
        lam = qnum(n - ell, q) * qnum(n - ell - 1, q)
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
            assert_close(got, _reference_casimir(space, u, kind))


def _two_pass_casimir(space, u, kind):
    """tensor_casimir as two passes: C from casimir_matrix of the coproduct's
    read-only pass, the chains from a sector pass, then the sector
    residuals and spreads from C, in the stacked arithmetic of the kernel."""
    with np.errstate(over="ignore", invalid="ignore"):
        c = casimir_matrix(space.coproduct(kind, u))[None]
    chains = space.chain_pass((kind, [u]), form=False)[0]
    live = space.layout.live
    x = np.arange(chains.shape[-1]) - space.factors[0].ell - space.factors[1].ell
    qn = _qnums(np.array([[x, x - 1]]), space.qs)
    lam = qn[:, 0] * qn[:, 1]
    v = chains.swapaxes(-1, -2)
    with np.errstate(divide="ignore", invalid="ignore"):
        cv = np.matmul(c[:, None, None], v[..., None])[..., 0]
        gap = np.abs(cv - lam[:, None, :, None] * v).max(axis=3)
        resid = np.where(live, _relative(gap, np.abs(v).max(axis=3)), 0.0).max(axis=1)
        rayleigh = np.vecdot(v, cv) / np.vecdot(v, v).real
        spread = np.where(live, np.abs(rayleigh - rayleigh[:, :1]), 0.0).max(axis=1)
    return [np.array(row[0]).tobytes() for row in (lam, resid, spread)]


def _report_bits(report):
    return [np.array([getattr(s, name) for s in report.sectors]).tobytes()
            for name in ("expected", "max_residual", "m_spread")]


@pytest.mark.parametrize("basis", ["monomial", "orthonormal"])
@pytest.mark.parametrize("kind", ["delta", "deltabar"])
def test_tensor_casimir_is_one_pass_with_the_bits_of_two(kind, basis, rng, monkeypatch):
    """tensor_casimir makes one chain_pass, which raises the sectors and
    reads the coproduct, and its report has, bit for bit, the numbers of a
    coproduct pass and a sector pass, at a drawn q and at q = 1, at a drawn
    u and at u = +-0.0, for spins 0 to 2."""
    spins = (0, 0.5, 1, 1.5, 2)
    for q in (sample_generic_q(rng), RATIONAL):
        for u in (sample_u(rng), 0.0, -0.0):
            for ell1 in spins:
                for ell2 in spins:
                    space = ProductSpace.stack_of_spins(ell1, ell2, _QStack.of((q,)), basis)
                    passes = []
                    real = space.chain_pass
                    with monkeypatch.context() as patched:
                        patched.setattr(space, "chain_pass",
                                        lambda *args, **kwargs: passes.append(args) or real(
                                            *args, **kwargs))
                        report = tensor_casimir(space, u, kind)
                    assert len(passes) == 1
                    assert _report_bits(report) == _two_pass_casimir(space, u, kind), (
                        ell1, ell2, q, u)


def test_block_layout_is_memoised_and_read_only():
    layout = tensorrep._BlockLayout.of_dims(3, 4)
    assert tensorrep._BlockLayout.of_dims(3, 4) is layout
    fresh = tensorrep._BlockLayout.of_dims.__wrapped__(tensorrep._BlockLayout, 3, 4)
    names = ["sizes", "live", "outside", "padding", "gather", "dst", "twist", "inside_flat",
             "scatter", "exchanges", "identity"]
    for arr, ref in zip(*([getattr(lay, name) for name in names] for lay in (layout, fresh)),
                        strict=True):
        assert np.array_equal(arr, ref)
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 1


# ---------------------------------------------------------------------------
# the layout-held scatter and cut against the four-way scatter-add and the
# take-and-where that they replace

def _reference_moves(d1, d2):
    """Where term t of generator g (0 for S-, 1 for S+) lands for each
    column in the flat d x d matrix, [g, t]: k1 (t = 0) or k2 (t = 1)
    moved by -1 for S-, 1 for S+."""
    return np.array([[tensorrep._targets(d1, d2, step, 0), tensorrep._targets(d1, d2, 0, step)]
                     for step in (-1, 1)])


def _reference_generators(terms, kinds, d1, d2):
    """S+ and S- from the terms [t, s, f, a] of :func:`_twisted_terms`, one
    scatter-add per generator and term onto zeros."""
    count, size = terms.shape[1:3]
    dim = d1 * d2
    terms = terms.reshape(2, count, size, 2, dim)
    moves = _reference_moves(d1, d2)
    gens = [np.zeros((count, size, dim * dim), complex) for _ in range(2)]
    for g, t in np.ndindex(2, 2):
        gens[g][..., moves[g, t]] += terms[t, :, np.arange(size), g ^ kinds].swapaxes(0, 1)
    return tuple(gen.reshape(count, size, dim, dim) for gen in gens[::-1])


def _reference_cut(chains, d1, d2):
    """The padded weight blocks of the chains, by one take of three index
    arrays (m, row, n) and a where against the identity."""
    k, nb = min(d1, d2), d1 + d2 - 1
    b = np.arange(nb)[:, None]
    n = np.arange(k)
    j = np.maximum(0, b - d2 + 1) + n
    sizes = np.minimum(b, d1 - 1)[:, 0] - j[:, 0] + 1
    row_ok = n < sizes[:, None]
    rows = np.where(row_ok, j * d2 + b - j, 0)
    inside = row_ok[:, :, None] & row_ok[:, None, :]
    return np.where(inside, chains[..., b[:, :, None] - n, rows[:, :, None], n], np.eye(k))


def _signed(rng, shape):
    """Complex entries whose real and imaginary parts are normal draws, a
    third of them replaced by +0.0 or -0.0 and a few by inf or NaN."""
    parts = rng.normal(size=(*shape, 2))
    pick = rng.random(parts.shape)
    parts[pick < 0.3] = rng.choice([0.0, -0.0], size=parts.shape)[pick < 0.3]
    parts[pick > 0.98] = rng.choice([np.inf, -np.inf, np.nan], size=parts.shape)[pick > 0.98]
    return parts.view(complex)[..., 0]


def _same_bits_array(got, want):
    return got.shape == want.shape and np.ascontiguousarray(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("d1", range(1, 8))
def test_layout_scatter_and_cut_equal_the_four_way_references(d1):
    rng = np.random.default_rng(d1)
    for d2 in range(1, 8):
        layout = tensorrep._BlockLayout.of_dims(d1, d2)
        k, steps, dim = min(d1, d2), d1 + d2 - 1, d1 * d2
        for count in (1, 3):
            for kinds in (np.array([0]), np.array([1]), np.array([0, 1, 1, 0, 1])):
                terms = _signed(rng, (2, count, kinds.size, 2, d1, d2))
                want = _reference_generators(terms, kinds, d1, d2)
                got = layout.generators(terms.copy(), kinds)
                assert all(_same_bits_array(g, w) for g, w in zip(got, want, strict=True))
            chains = _signed(rng, (count, 3, steps, dim, k))
            assert _same_bits_array(layout.cut(chains), _reference_cut(chains, d1, d2))
        # the terms of a family of either kind land on distinct entries, but at (1, 1)
        distinct = [np.unique(targets).size == targets.size
                    for targets in layout.scatter.swapaxes(0, 1)]
        assert distinct == [(d1, d2) != (1, 1)] * 2
