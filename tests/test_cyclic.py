import cmath
import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import algebra_residual
from qybe import (CyclicRepSpec, ProductSpace, build_cyclic_rep, build_lax, build_spin_rep,
                  central_elements, cyclic_R_eigenvalues, eigenstate_family,
                  family_closure_defect, family_ratio, fundamental_r, partial_R, phi_product,
                  qnum, sample_compatible_params, shift_prefactor, tensor_casimir,
                  tensor_power_scalars)
from qybe import ToleranceConfig, cyclic, tensorrep, verify
from qybe.cyclic import TensorPowerReport
from qybe.errors import (DimensionMismatch, InconsistentConstraints, NotScalar,
                         OrderMismatch, ParameterDomainError, QybeError, SamplerExhausted,
                         ShiftLawViolation)
from qybe.qcore import MAX_DRAWS, DeformationParameter, sample_params, sample_u


def _random_spec(n, rng):
    return CyclicRepSpec(*sample_params(rng, 3), n)


def cyclic_space(spec1, spec2):
    """The dense reference: the product space of two cyclic representations,
    on the N^2 basis theta_{k1, k2}, whose coproducts the sector bands slice."""
    cyclic._Pairs.one(spec1, spec2, 0)
    return ProductSpace(build_cyclic_rep(spec1), build_cyclic_rep(spec2))


@pytest.mark.parametrize("n", [3, 5])
def test_weyl_pair(n, rng):
    """The Weyl pair X theta_k = theta_{k+1}, Z theta_k = q^k theta_k, and the
    cyclic generators written in it: S+ = X D+, S- = X^-1 D- with D+- diagonal,
    and q^S = q^-l Z."""
    q = DeformationParameter.root_of_unity(n)
    x = np.roll(np.eye(n), 1, axis=0)
    z = np.diag(q.value ** np.arange(n))
    assert np.abs(z @ x - q.value * x @ z).max() < 1e-12
    assert np.allclose(np.linalg.matrix_power(x, n), np.eye(n), atol=1e-12)
    assert np.allclose(np.linalg.matrix_power(z, n), np.eye(n), atol=1e-12)
    spec = _random_spec(n, rng)
    rep = build_cyclic_rep(spec)
    for shift, gen in ((x, rep.sp), (x.T, rep.sm)):
        diag = shift.T @ gen
        assert np.count_nonzero(diag - np.diag(np.diagonal(diag))) == 0
    assert np.allclose(rep.qs(1), spec.q.pow(-spec.ell) * z, atol=1e-12)


def test_weyl_wrong_mode(q_generic):
    with pytest.raises(ParameterDomainError, match="order 3"):
        CyclicRepSpec(0.1, 0.2, 0.3, 3, q=q_generic)


def test_even_order_rejected():
    with pytest.raises(ParameterDomainError):
        CyclicRepSpec(0.1, 0.2, 0.3, 4)


def test_order_one_rejected_at_construction():
    """N = 1 is q = 1, where every q-number divides by zero."""
    with pytest.raises(ParameterDomainError, match="at least 3"):
        CyclicRepSpec(0.1, 0.2, 0.3, 1)


def test_spec_q_must_have_order_n(q_generic):
    for q in (q_generic, DeformationParameter.root_of_unity(5)):
        with pytest.raises(ParameterDomainError, match="order 3"):
            CyclicRepSpec(0.1, 0.2, 0.3, 3, q=q)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_cyclic_rep_algebra(n, rng):
    for _ in range(5):
        rep = build_cyclic_rep(_random_spec(n, rng))
        assert algebra_residual(rep) < 1e-10


def test_generator_action_entries(rng):
    n = 5
    spec = _random_spec(n, rng)
    rep = build_cyclic_rep(spec)
    q = spec.q
    for k in range(n):
        assert rep.sm[(k - 1) % n, k] == pytest.approx(
            q.pow(-spec.lam / 2) * qnum(k - spec.beta, q))
        assert rep.sp[(k + 1) % n, k] == pytest.approx(
            q.pow(spec.lam / 2) * qnum(spec.alpha - k, q))


def test_integral_beta_gives_lowest_weight(rng):
    n = 5
    spec = CyclicRepSpec(complex(rng.normal(), rng.normal()), 0.0,
                         complex(rng.normal(), rng.normal()), n)
    rep = build_cyclic_rep(spec)
    k = np.arange(n)
    lowering = np.abs(rep.sm[(k - 1) % n, k])
    raising = np.abs(rep.sp[(k + 1) % n, k])
    assert lowering[0] < 1e-12 and lowering[1:].min() > 1e-9    # S- kills theta_0 only
    assert raising.min() > 1e-9                                 # no highest weight


def test_qs_power_is_scalar(rng):
    n = 7
    spec = _random_spec(n, rng)
    rep = build_cyclic_rep(spec)
    scalar = spec.q.pow(-n * (spec.alpha + spec.beta) / 2)
    assert np.allclose(rep.qs(n), scalar * np.eye(n), atol=1e-9 * max(1, abs(scalar)))


@pytest.mark.parametrize("n", [3, 5, 7])
def test_central_elements(n, rng):
    q = DeformationParameter.root_of_unity(n)
    for _ in range(4):
        spec = _random_spec(n, rng)
        ce = central_elements(spec)
        assert ce.max_offscalar_residual < 1e-10
        # matrix-power route against the q-number-product route
        assert ce.alpha_minus == pytest.approx(ce.alpha_minus_product_route,
                                               abs=1e-9 * max(1, abs(ce.alpha_minus)))
        # raising scalar against its two-term form
        expected_plus = (q.pow(n * spec.lam / 2) * (q.value - 1 / q.value) ** (-n)
                         * (q.pow(n * spec.alpha) - q.pow(-n * spec.alpha)))
        assert ce.alpha_plus == pytest.approx(expected_plus,
                                              abs=1e-9 * max(1, abs(expected_plus)))
        assert ce.qns_scalar == pytest.approx(q.pow(-n * spec.ell))


def test_nilpotent_case_kills_lowering_scalar(rng):
    spec = CyclicRepSpec(complex(rng.normal(), rng.normal()), 2.0, 0.1j, 5)
    ce = central_elements(spec)
    assert abs(ce.alpha_minus) < 1e-10


def test_cyclic_tensor_lowering_action(rng):
    n = 3
    s1, s2 = _random_spec(n, rng), _random_spec(n, rng)
    u = sample_u(rng, scale=0.6)
    cop = cyclic_space(s1, s2).coproduct("delta", u)
    q = s1.q
    for k1 in range(n):
        for k2 in range(n):
            col = k1 * n + k2
            expect = q.pow((u - s1.lam - s2.alpha - s2.beta) / 2 + k2) * qnum(k1 - s1.beta, q)
            assert cop.sm[((k1 - 1) % n) * n + k2, col] == pytest.approx(expect)
            expect2 = q.pow((s1.alpha + s1.beta - u - s2.lam) / 2 - k1) * qnum(k2 - s2.beta, q)
            assert cop.sm[k1 * n + ((k2 - 1) % n), col] == pytest.approx(expect2)


def test_cyclic_tensor_untwisted_limit(rng):
    n = 3
    s1, s2 = _random_spec(n, rng), _random_spec(n, rng)
    r1, r2 = build_cyclic_rep(s1), build_cyclic_rep(s2)
    cop = cyclic_space(s1, s2).coproduct("delta", 0.0)
    sm = np.kron(r1.sm, r2.qs(1)) + np.kron(r1.qs(-1), r2.sm)
    assert np.allclose(cop.sm, sm, atol=1e-12)


def test_order_mismatch(rng):
    with pytest.raises(OrderMismatch):
        tensor_power_scalars(_random_spec(3, rng), _random_spec(5, rng), 0.1)


@pytest.mark.parametrize("n", [3, 5])
def test_tensor_power_scalars(n, rng):
    for _ in range(5):
        s1, s2 = _random_spec(n, rng), _random_spec(n, rng)
        u = sample_u(rng, scale=0.6)
        rep = tensor_power_scalars(s1, s2, u)
        assert rep.max_offscalar_residual < 1e-9
        assert max(rep.closed_form_errors.values()) < 1e-9
        assert set(rep.scalars) == {"sm_u", "sp_u", "sm_bar_u", "sp_bar_u"}


@pytest.mark.parametrize("n", [3, 5])
def test_shift_laws_on_admissible_draws(n, rng):
    for _ in range(4):
        s1, s2, u = sample_compatible_params(n, rng)
        dm, db = family_closure_defect(s1, s2, u)
        assert dm < 1e-9 and db < 1e-9
        fam = eigenstate_family(s1, s2, u)
        assert max(fam.shift_residuals.values()) < 1e-9
        assert partial_R(s1, s2, u).span_rank == 2 * n
        assert fam.ratio == pytest.approx(family_ratio(s1, s2, u))
        assert fam.barred_ratio == pytest.approx(family_ratio(s1, s2, u, barred=True))


def test_family_coefficients_are_geometric(rng):
    n = 5
    s1, s2, u = sample_compatible_params(n, rng)
    fam = eigenstate_family(s1, s2, u)
    v = fam.phi[2].reshape(n, n)
    coeffs = np.array([v[(2 - k) % n, k] for k in range(n)])
    assert np.allclose(coeffs[1:] / coeffs[:-1], fam.ratio, atol=1e-12)


def test_lowering_n_times_returns_multiple(rng):
    n = 3
    s1, s2, u = sample_compatible_params(n, rng)
    fam = eigenstate_family(s1, s2, u)
    cop = cyclic_space(s1, s2).coproduct("delta", u)
    v = fam.phi[1]
    w = v.copy()
    for _ in range(n):
        w = cop.sm @ w
    factor = np.prod([shift_prefactor("lower", s1, s2, u, (1 - j) % n) for j in range(n)])
    assert np.allclose(w, factor * v, atol=1e-9 * max(1, abs(factor)))


def test_shift_law_violation_off_the_admissible_set(rng):
    n = 3
    s1, s2 = _random_spec(n, rng), _random_spec(n, rng)
    u = sample_u(rng)
    assert max(family_closure_defect(s1, s2, u)) > 1e-3
    with pytest.raises(ShiftLawViolation) as exc:
        eigenstate_family(s1, s2, u)
    # the first (relation, m) in the order lower, raise, lower_bar, raise_bar
    # with m ascending; both families fail here, so it is the very first law
    assert (exc.value.relation, exc.value.m) == ("lower", 0)
    assert exc.value.residual == pytest.approx(0.49214585706302055, rel=1e-12)


def test_family_closure_defect_is_one_pair_and_one_ratios_call(rng, monkeypatch):
    """family_closure_defect builds one _Pairs and evaluates its ratios once,
    and its defects are, bit for bit, |r^N - 1| of the two family ratios."""
    one, ratios = cyclic._Pairs.one.__func__, cyclic._Pairs.ratios
    calls = []
    monkeypatch.setattr(cyclic._Pairs, "one", classmethod(
        lambda cls, *args: calls.append("one") or one(cls, *args)))
    monkeypatch.setattr(cyclic._Pairs, "ratios",
                        lambda self, *args: calls.append("ratios") or ratios(self, *args))
    for n in (3, 5, 7, 19):
        spec1, spec2, u = sample_compatible_params(n, rng)
        spec2 = dataclasses.replace(spec2, beta=spec2.beta - 0.3)  # an open barred family too
        calls.clear()
        got = family_closure_defect(spec1, spec2, u)
        assert calls == ["one", "ratios"]
        want = [abs(family_ratio(spec1, spec2, u, barred) ** n - 1) for barred in (False, True)]
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_first_failing_shift_law_after_the_closed_family(rng):
    """Moving beta2 down and lam2 up by the same amount keeps the unbarred
    family closed and breaks the barred one, so the first failure is a
    barred law; a tolerance between its residuals moves it to m = 1."""
    s1, s2, u = sample_compatible_params(3, rng)
    s2 = CyclicRepSpec(s2.alpha, s2.beta - 0.7, s2.lam + 0.7, 3)
    dm, db = family_closure_defect(s1, s2, u)
    assert dm < 1e-12 and db > 1.0
    fam = eigenstate_family(s1, s2, u, enforce=False)
    lower_bar = [fam.shift_residuals[("lower_bar", m)] for m in range(3)]
    assert lower_bar == pytest.approx([1.380, 1.989, 1.073], abs=1e-3)
    for tol, m in ((1e-9, 0), (1.5, 1)):
        with pytest.raises(ShiftLawViolation) as exc:
            eigenstate_family(s1, s2, u, tol=tol)
        assert (exc.value.relation, exc.value.m) == ("lower_bar", m)
        assert exc.value.residual == fam.shift_residuals[("lower_bar", m)]


def test_an_overflowing_shift_residual_is_a_domain_error():
    """Far outside the numerical envelope the q-powers overflow and every
    shift residual of the stacked kernel is NaN; eigenstate_family raises
    the ParameterDomainError of the overflow, with or without enforce,
    rather than pass or report them, and names alpha, beta and lam of both
    specs, whose powers overflow, as well as u."""
    s1 = CyclicRepSpec(0.1 + 400j, 0.2, 0.3, 3)
    s2 = CyclicRepSpec(0.1, 0.2 + 400j, 0.3, 3)
    assert np.isnan(cyclic._shift_residuals(cyclic._Pairs.of([s1], [s2], [0.5]))[1]).all()
    for enforce in (False, True):
        with pytest.raises(ParameterDomainError, match=re.escape(
                "not finite at (alpha, beta, lam) = ((0.1+400j), (0.2+0j), (0.3+0j)), "
                "((0.1+0j), (0.2+400j), (0.3+0j)), u = (0.5+0j): a power of q overflows")):
            eigenstate_family(s1, s2, 0.5, enforce=enforce)


def test_shift_prefactor_scalar_and_array(rng):
    """A complex for an int m; for an array of m, the per-m values, bit for
    bit: an int m is the stack of one of an array."""
    for n in (3, 5, 7):
        s1, s2, u = sample_compatible_params(n, rng)
        for relation in ("lower", "raise", "lower_bar", "raise_bar"):
            per_m = [shift_prefactor(relation, s1, s2, u, m) for m in range(n)]
            assert all(type(c) is complex for c in per_m)
            whole = shift_prefactor(relation, s1, s2, u, np.arange(n))
            assert isinstance(whole, np.ndarray) and whole.shape == (n,)
            assert whole.tobytes() == np.array(per_m).tobytes()


def _sector_of_index(n):
    """Sector (k1 + k2) mod N of every basis index k1 * N + k2."""
    k = np.arange(n * n)
    return (k // n + k % n) % n


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_twisted_generators_move_the_sector_by_one(n, rng):
    s1, s2 = _random_spec(n, rng), _random_spec(n, rng)
    space = cyclic_space(s1, s2)
    sec = _sector_of_index(n)
    for kind in ("delta", "deltabar"):
        gens = space.coproduct(kind, sample_u(rng, scale=0.6))
        for mat, step in ((gens.sm, -1), (gens.sp, 1)):
            outside = sec[:, None] != (sec[None, :] + step) % n
            assert np.count_nonzero(mat[outside]) == 0
            assert np.count_nonzero(mat[~outside]) > 0


def _dense_generators(s1, s2, u):
    """sm_u, sp_u, sm_bar_u and sp_bar_u of the dense product space, with
    their sector steps."""
    space = cyclic_space(s1, s2)
    cop, cop_bar = space.coproduct("delta", u), space.coproduct("deltabar", u)
    return ((cop.sm, -1), (cop.sp, 1), (cop_bar.sm, -1), (cop_bar.sp, 1))


def _sector_indices(n, c):
    """Basis indices of sector c, theta_{k1, c - k1} ordered by k1."""
    return [k1 * n + (c - k1) % n for k1 in range(n)]


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_sector_bands_are_the_slices_of_the_dense_coproduct(n, rng):
    """Bit for bit, for both kinds and both generators."""
    for _ in range(3):
        s1, s2 = _random_spec(n, rng), _random_spec(n, rng)
        u = sample_u(rng, scale=0.6)
        bands = cyclic._sector_bands(cyclic._rep_bands([s1]), cyclic._rep_bands([s2]), [u])[0]
        assert bands.shape == (4, n, n, n)
        for (mat, step), blocks in zip(_dense_generators(s1, s2, u), bands):
            for i in range(n):
                rows = _sector_indices(n, (i + 1) * step)
                cols = _sector_indices(n, i * step)
                assert np.array_equal(blocks[i], mat[np.ix_(rows, cols)])


def _gathered_diagonals(reps1, reps2, us):
    """The sector diagonals gathered from the coproduct kernel's dense grid
    of terms [t, s, f, a, k1, k2]: sm_u, sp_u, sm_bar_u and sp_bar_u are
    slots (0, 0), (0, 1), (1, 1) and (1, 0)."""
    n = reps1.lift.shape[1]
    terms = tensorrep._twisted_terms(
        reps1, reps2, *tensorrep._family_arrays([("delta", us), ("deltabar", us)]))
    r = np.arange(n)
    steps = cyclic._STEPS[:, None, None]
    k2 = (steps * r[:, None] - r) % n
    f, a = np.array([0, 0, 1, 1])[:, None, None], np.array([0, 1, 1, 0])[:, None, None]
    return terms[1][:, f, a, r, k2], terms[0][:, f, a, (r - steps) % n, (k2 + steps) % n]


@pytest.mark.parametrize("n", [3, 7, 19])
def test_sector_diagonals_are_the_dense_terms_gathered_by_sector(n, rng):
    """Gathering the bands and q-powers by sector before they multiply gives
    the terms of the dense grid, bit for bit, at stacks of 1 and 3."""
    for count in (1, 3):
        specs = [_random_spec(n, rng) for _ in range(2 * count)]
        us = [sample_u(rng, scale=0.6) for _ in range(count)]
        reps = cyclic._Pairs.of(specs[:count], specs[count:], us).halves
        for got, want in zip(cyclic._sector_diagonals(*reps, us), _gathered_diagonals(*reps, us),
                             strict=True):
            assert got.shape == want.shape == (count, 4, n, n)
            assert np.ascontiguousarray(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_sector_powers_are_the_diagonal_blocks_of_the_dense_power(n, rng, monkeypatch):
    """The N-th powers tensor_power_scalars reads its scalars from are the
    sector blocks of the dense matrix power."""
    s1, s2 = _random_spec(n, rng), _random_spec(n, rng)
    u = sample_u(rng, scale=0.6)
    powers = []
    real = cyclic._scalar_part
    monkeypatch.setattr(cyclic, "_scalar_part", lambda m: powers.extend(m[0]) or real(m))
    tensor_power_scalars(s1, s2, u)
    assert len(powers) == 4
    for (mat, step), blocks in zip(_dense_generators(s1, s2, u), powers):
        assert blocks.shape == (n, n, n)
        dense = np.linalg.matrix_power(mat, n)
        scale = np.abs(dense).max()
        for i in range(n):
            idx = _sector_indices(n, i * step)
            assert np.abs(blocks[i] - dense[np.ix_(idx, idx)]).max() <= 1e-13 * scale


@pytest.mark.parametrize("n", [3, 5, 7])
def test_shift_residuals_match_the_dense_evaluation(n, rng):
    """The residuals of every law, evaluated on the sector bands, agree with
    the dense fam @ op.T route to 1e-15, on and off the admissible set."""
    draws = [sample_compatible_params(n, rng) for _ in range(3)]
    draws += [(_random_spec(n, rng), _random_spec(n, rng), sample_u(rng)) for _ in range(2)]
    for s1, s2, u in draws:
        fam = eigenstate_family(s1, s2, u, enforce=False)
        m = np.arange(n)
        laws = zip(("lower", "raise", "lower_bar", "raise_bar"), _dense_generators(s1, s2, u),
                   (fam.phi, fam.phi, fam.phibar, fam.phibar))
        for name, (op, step), vectors in laws:
            vectors = np.array(vectors)
            c = shift_prefactor(name, s1, s2, u, m)
            r = np.abs(vectors @ op.T - c[:, None] * vectors[(m + step) % n]).max(axis=1)
            r /= np.maximum(np.maximum(1.0, np.abs(vectors).max(axis=1)), np.abs(c))
            for j in range(n):
                assert abs(fam.shift_residuals[(name, j)] - r[j]) <= 1e-15


def _draws(n, seed, count=16):
    """Samples as the centrality suite draws them."""
    rng = np.random.default_rng(seed)
    return [(_random_spec(n, rng), _random_spec(n, rng), sample_u(rng, scale=0.6))
            for _ in range(count)]


def _bands_of(points):
    specs1, specs2, us = zip(*points)
    return cyclic._sector_bands(cyclic._rep_bands(specs1), cyclic._rep_bands(specs2), us)


def _sequential_chain(bands, offsets=None):
    """Reference for the products around the cycle: block c is
    B_{c+N-1} ... B_{c+1} B_c, one left product per step of the chain,
    with the blocks at ``offsets`` from c after B_c (1 .. N-1 by default)."""
    n = bands.shape[2]
    powers = bands
    for j in range(1, n) if offsets is None else offsets:
        powers = np.stack([bands[:, :, (c + j) % n] @ powers[:, :, c] for c in range(n)], axis=2)
    return powers


def _blocks_agree(got, want, tol) -> bool:
    """Every block of ``got`` within ``tol`` of ``want``, relative to the
    block's largest entry."""
    gaps = np.abs(got - want).max(axis=(-2, -1))
    return bool((gaps <= tol * np.abs(want).max(axis=(-2, -1))).all())


def _geometric_mean_ratio(got, want) -> float:
    return float(np.exp(np.mean(np.log(got / want))))


# at N = 19 any two orders of the products differ by the chain's own
# rounding, which the off-scalar residual measures: up to 1.2e-11 relative
# over 192 draws, so there the bound is the centrality gate
_CHAIN_TOL = {3: 1e-12, 5: 1e-12, 7: 1e-12, 19: 1e-10}


@pytest.mark.parametrize("n", [3, 5, 7, 19])
def test_products_around_the_cycle_match_the_sequential_chain(n):
    """The shared-window products equal the sequential chain in every block,
    their off-scalar residuals do not widen against the chain's (paired
    geometric-mean ratio at most 1.05), and the same comparison rejects a
    chain with a wrong block at one place or one block skipped.  (The
    blocks of one generator commute to rounding, so a chain with two of
    its blocks swapped gives the same product.)"""
    bands = _bands_of(_draws(n, 40 + n))
    got, want = cyclic._around_the_cycle(bands), _sequential_chain(bands)
    assert _blocks_agree(got, want, _CHAIN_TOL[n])
    resids = [cyclic._scalar_part(p)[1] for p in (got, want)]
    assert _geometric_mean_ratio(*resids) <= 1.05
    repeated = [1, 1, *range(3, n)]
    skipped = list(range(1, n - 1))
    for offsets in (repeated, skipped):
        assert not _blocks_agree(got, _sequential_chain(bands, offsets), _CHAIN_TOL[n])


def _dense_shift_residuals(points, roll=0):
    """Reference for the shift residuals: each sector block applied as a
    dense N x N matrix, bands @ vec; ``roll`` moves every block to the
    sector of another."""
    specs1, specs2, us = zip(*points)
    n, q = specs1[0].n, specs1[0].q
    ratios = np.array([[family_ratio(s1, s2, u, barred) for barred in (False, True)]
                       for s1, s2, u in points])
    bands = np.roll(_bands_of(points), roll, axis=2)
    m = np.arange(n)
    g = np.arange(4)[:, None]
    steps = np.array([-1, 1, -1, 1])[:, None]
    vec = np.power(ratios[..., None], m)[..., (m[:, None] - m) % n][:, [0, 0, 1, 1]]
    c = np.array([[shift_prefactor(name, s1, s2, u, m)
                   for name in ("lower", "raise", "lower_bar", "raise_bar")]
                  for s1, s2, u in points])
    turn = m * steps % n
    image = (bands @ vec[:, g, turn][..., None])[..., 0][:, g, turn]
    r = np.abs(image - c[..., None] * vec[:, g, (m + steps) % n]).max(axis=-1)
    return r / np.maximum(np.maximum(1.0, np.abs(vec).max(axis=-1)), np.abs(c))


def _residuals_agree(got, want) -> bool:
    return bool((np.abs(got - want) <= 1e-15 + 1e-12 * want).all())


@pytest.mark.parametrize("n", [3, 5, 7, 19])
def test_banded_shift_laws_match_the_dense_blocks(n, monkeypatch):
    """The laws applied by the two diagonals of each block equal the dense
    bands @ vec route on and off the admissible set, do not widen on it
    (paired geometric-mean ratio at most 1.05), and the same comparison
    rejects the dense route with its blocks out of order or one block
    skipped."""
    rng = np.random.default_rng(60 + n)
    points = [sample_compatible_params(n, rng) for _ in range(12)] + _draws(n, 80 + n, 4)
    got = cyclic._shift_residuals(cyclic._Pairs.of(*zip(*points)))[1]
    want = _dense_shift_residuals(points)
    assert _residuals_agree(got, want)
    assert _geometric_mean_ratio(got[:12], want[:12]) <= 1.05
    assert not _residuals_agree(got, _dense_shift_residuals(points, roll=1))
    real = cyclic._sector_bands
    skipped = lambda *args: real(*args) * (np.arange(n) != n // 2)[:, None, None]
    monkeypatch.setattr(cyclic, "_sector_bands", skipped)
    assert not _residuals_agree(got, _dense_shift_residuals(points))


@pytest.mark.parametrize("kernel,bound_mb", [("tensor powers", 20), ("shift laws", 2)])
def test_cyclic_tensor_passes_stay_within_their_memory(kernel, bound_mb):
    """At N = 19 (cli.MAX_ORDER) and 16 samples (verify._STACK_SIZE) the
    tensor-power pass holds the sector bands, the powers and the (N + 1)/2
    windows of length N - 1, about 17 MB, and the shift laws only the two
    diagonals of each block and the families on two sectors, about 1.6 MB."""
    points = _draws(19, 3)
    specs1, specs2, us = zip(*points)
    if kernel == "tensor powers":
        run = lambda: cyclic._tensor_power_reports(cyclic._Pairs.of(specs1, specs2, us))
    else:
        rng = np.random.default_rng(3)
        run = lambda: cyclic._shift_residuals(cyclic._Pairs.of(
            *zip(*[sample_compatible_params(19, rng) for _ in range(16)])))
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 2**20


def test_cyclic_eigenvalue_geometry(rng):
    n = 5
    q = DeformationParameter.root_of_unity(n)
    s1 = CyclicRepSpec(*sample_params(rng, 3), n)
    s2 = CyclicRepSpec(*sample_params(rng, 3), n)
    u = sample_u(rng)
    vals = cyclic_R_eigenvalues(s1, s2, u)
    assert vals[0] == 1.0
    step = q.pow(2 - u + s2.alpha - s2.beta - s1.lam)
    for m in range(1, n):
        assert vals[m] / vals[m - 1] == pytest.approx(step)


def test_cyclic_eigenvalues_unit_modulus_for_real_data(rng):
    n = 3
    # only u, alpha2, beta2, lam1 need to be real
    s1 = CyclicRepSpec(complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()),
                       rng.normal(), n)
    s2 = CyclicRepSpec(rng.normal(), rng.normal(), complex(rng.normal(), rng.normal()), n)
    vals = cyclic_R_eigenvalues(s1, s2, rng.normal())
    assert np.allclose(np.abs(vals), 1.0, atol=1e-12)


def test_log_ratio_constant_across_m(rng):
    n = 7
    s1, s2 = _random_spec(n, rng), _random_spec(n, rng)
    vals = cyclic_R_eigenvalues(s1, s2, sample_u(rng))
    ratios = vals[1:] / vals[:-1]
    assert np.abs(ratios - ratios[0]).max() < 1e-10


@pytest.mark.parametrize("n", [3, 5])
def test_partial_r_defining_action(n, rng):
    s1, s2, u = sample_compatible_params(n, rng)
    pr = partial_R(s1, s2, u)
    assert pr.span_rank == 2 * n
    assert pr.max_residual < 1e-9
    fam_u = eigenstate_family(s1, s2, u, enforce=False)
    fam_mu = eigenstate_family(s1, s2, -u, enforce=False)
    for m in range(n):
        lhs = pr.matrix @ fam_u.phi[m]
        rhs = pr.eigenvalues[m] * fam_mu.phibar[m]
        assert np.abs(lhs - rhs).max() < 1e-9 * max(1, np.abs(rhs).max())
        lhs = pr.matrix @ fam_u.phibar[m]
        rhs = pr.eigenvalues[m] * fam_mu.phi[m]
        assert np.abs(lhs - rhs).max() < 1e-9 * max(1, np.abs(rhs).max())


def test_partial_r_round_trip(rng):
    n = 3
    s1, s2, u = sample_compatible_params(n, rng)
    fwd = partial_R(s1, s2, u)
    back = partial_R(s1, s2, -u)
    fam_u = eigenstate_family(s1, s2, u, enforce=False)
    for m in range(n):
        v = fam_u.phi[m]
        lhs = back.matrix @ (fwd.matrix @ v)
        rhs = fwd.eigenvalues[m] * back.eigenvalues[m] * v
        assert np.abs(lhs - rhs).max() < 1e-8 * max(1, np.abs(rhs).max())


def test_partial_r_inconsistent_constraints(rng):
    """Parameters with coinciding families at u but distinct images at -u
    prescribe two different targets for the same input vector."""
    n = 3
    a1 = complex(rng.normal(0, 0.4), rng.normal(0, 0.4))
    a2 = complex(rng.normal(0, 0.4), rng.normal(0, 0.4))
    u = 2.0
    s1 = CyclicRepSpec(a1, a1, 0.3j, n)
    s2 = CyclicRepSpec(a2, a2, 0.3j, n)
    assert abs(family_ratio(s1, s2, u) - family_ratio(s1, s2, u, barred=True)) < 1e-12
    with pytest.raises(InconsistentConstraints) as info:
        partial_R(s1, s2, u)
    # the two coinciding families span N dimensions, and the conflict is O(1)
    assert info.value.span_rank == n
    assert info.value.residual > 0.5
    assert f"{info.value.residual:.3e}" in str(info.value)


def test_sample_compatible_params_gives_up_at_order_one(rng):
    # at N = 1 every integer choice makes the two families coincide
    with pytest.raises(SamplerExhausted, match=f"{MAX_DRAWS} draws") as info:
        sample_compatible_params(1, rng)
    assert info.value.draws == MAX_DRAWS


def test_partial_r_shares_one_space_across_u(rng, monkeypatch):
    """partial_R solves from the closed-form family vectors at u and -u
    alone, so it builds no cyclic representation at all."""
    s1, s2, u = sample_compatible_params(5, rng)
    ref = partial_R(s1, s2, u)
    built = []
    real = cyclic.build_cyclic_rep
    monkeypatch.setattr(cyclic, "build_cyclic_rep", lambda spec: built.append(spec) or real(spec))
    assert np.array_equal(partial_R(s1, s2, u).matrix, ref.matrix)
    assert built == []


@pytest.mark.parametrize("orders", [(5, 3), (3, 5)])
def test_partial_r_rejects_factors_of_different_order(orders, rng):
    s1, s2 = (_random_spec(n, rng) for n in orders)
    with pytest.raises(OrderMismatch):
        partial_R(s1, s2, 0.5)


def _q_4pi_over_5():
    """q = e^{4 pi i/5}, an order-5 root other than the default e^{2 pi i/5}."""
    branch = 4j * cmath.pi / 5
    return DeformationParameter(value=cmath.exp(branch), order=5, log_branch=branch)


def test_partial_r_rejects_factors_on_different_roots(rng):
    """Two order-5 factors, on q = e^{2 pi i/5} and q = e^{4 pi i/5}."""
    s1 = _random_spec(5, rng)
    s2 = CyclicRepSpec(*sample_params(rng, 3), 5, q=_q_4pi_over_5())
    for pair in ((s1, s2), (s2, s1)):
        with pytest.raises(DimensionMismatch):
            partial_R(*pair, 0.5)


@pytest.mark.parametrize("n", [3, 7])
def test_partial_r_names_a_u_whose_family_ratios_overflow(n):
    """At u = 500j a power of a family ratio is not finite, which once gave
    a NaN residual at N = 3 and a raw LinAlgError from the SVD at N = 7;
    the error names the sample, alpha, beta and lam of both specs and u."""
    with pytest.raises(ParameterDomainError, match=re.escape(
            "not finite at (alpha, beta, lam) = (0j, 0j, 0j), ((0.1+0j), 0j, (0.2+0j)), "
            "u = 500j: a power of q")):
        partial_R(CyclicRepSpec(0, 0, 0, n), CyclicRepSpec(0.1, 0, 0.2, n), 500j)


def test_a_partial_r_stack_raises_at_its_lowest_overflowing_sample(rng, monkeypatch):
    """A stack with two such samples names the u of the lower one, and so
    does the partial-R suite over the same samples."""
    points = [sample_compatible_params(7, rng) for _ in range(4)]
    for s, u in ((1, 500j), (2, 600j)):
        points[s] = (*points[s][:2], u)
    with pytest.raises(ParameterDomainError, match="u = 500j"):
        cyclic._partial_rs(cyclic._Pairs.of(*zip(*points)))
    drawn = iter(points)
    monkeypatch.setattr(verify, "_compatible", lambda rng, i, q: next(drawn))
    with pytest.raises(ParameterDomainError, match="u = 500j"):
        verify.check_partial_r(7, ToleranceConfig(sample_count=4, rng_seed=1))


def test_cyclic_suites_over_overflowing_draws_warn_of_nothing(monkeypatch):
    """Where alpha1 and beta2 are 400i the family ratios stay finite and
    R_m overflows: the partial-R suite raises the overflow error, as
    partial_R does, where it once reported a NaN residual and let five numpy
    warnings out; the shift-law, R-ratio and centrality suites over the same
    draws give failing reports, and no suite lets a numpy warning out."""
    pair = (CyclicRepSpec(0.1 + 400j, 0.2, 0.3, 3), CyclicRepSpec(0.1, 0.2 + 400j, 0.3, 3), 0.5)
    for draw in ("_compatible", "_cyclic_params"):
        monkeypatch.setattr(verify, draw, lambda rng, i, q: pair)
    cfg = ToleranceConfig(sample_count=2, rng_seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterDomainError, match=re.escape(
                "the eigenvalues are not finite at (alpha, beta, lam) = ((0.1+400j), (0.2+0j), "
                "(0.3+0j)), ((0.1+0j), (0.2+400j), (0.3+0j)), u = (0.5+0j): "
                "a power of q overflows")):
            verify.check_partial_r(3, cfg)
        for suite in (verify.check_shift_laws, verify.check_cyclic_r_ratio,
                      verify.check_cyclic_centrality):
            report = suite(3, cfg)
            assert not report.passed and np.isnan(report.max_residual)


def shift_prefactor_lower(spec1, spec2, u):
    return shift_prefactor("lower", spec1, spec2, u, 1)


@pytest.mark.parametrize("func", [cyclic_R_eigenvalues, family_closure_defect, family_ratio,
                                  shift_prefactor_lower])
def test_family_functions_reject_mismatched_factors(func, rng):
    """N = 5 against 3, and order 5 on q = e^{2 pi i/5} against e^{4 pi i/5}."""
    s5, s3 = _random_spec(5, rng), _random_spec(3, rng)
    s5_q2 = CyclicRepSpec(*sample_params(rng, 3), 5, q=_q_4pi_over_5())
    for pair, error in (((s5, s3), OrderMismatch), ((s3, s5), OrderMismatch),
                        ((s5, s5_q2), DimensionMismatch), ((s5_q2, s5), DimensionMismatch)):
        with pytest.raises(error):
            func(*pair, 0.5)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_partial_r_is_the_solve_on_the_eigenstate_families(n, rng):
    """The dense pseudo-inverse solve on the vectors of eigenstate_family at
    u and -u, an oracle that knows nothing of the sectors, within 1e-13
    relative; the sector-wise solve rounds differently."""
    for _ in range(3):
        s1, s2, u = sample_compatible_params(n, rng)
        fam_u = eigenstate_family(s1, s2, u, enforce=False)
        fam_mu = eigenstate_family(s1, s2, -u, enforce=False)
        r_m = cyclic_R_eigenvalues(s1, s2, u)
        v = np.array(fam_u.phi + fam_u.phibar).T
        w = np.array([r_m[m] * fam_mu.phibar[m] for m in range(n)]
                     + [r_m[m] * fam_mu.phi[m] for m in range(n)]).T
        pr = partial_R(s1, s2, u)
        dense = w @ np.linalg.pinv(v)
        assert np.abs(pr.matrix - dense).max() <= 1e-13 * np.abs(dense).max()
        assert np.array_equal(pr.eigenvalues, r_m)
        assert pr.span_rank == 2 * n


@pytest.mark.parametrize("n", [3, 5, 7])
def test_partial_r_is_block_diagonal_over_the_weight_sectors(n, rng):
    """Every entry between two weight sectors k1 + k2 mod N is exactly 0,
    and block m is R_m times the pseudo-inverse solve M0 = W0 V0^+ on the
    sector, V0 = [rho^k, sigma^k] and W0 = [sigma'^k, rho'^k] over the
    basis vectors theta_{(m-k) mod N, k}."""
    sector = np.add.outer(np.arange(n), np.arange(n)).ravel() % n
    for _ in range(3):
        s1, s2, u = sample_compatible_params(n, rng)
        pr = partial_R(s1, s2, u)
        assert not pr.matrix[sector[:, None] != sector].any()
        rho, sigma, rho_mu, sigma_mu = (family_ratio(s1, s2, x, barred)
                                        for x in (u, -u) for barred in (False, True))
        k = np.arange(n)
        local = (np.stack([sigma_mu**k, rho_mu**k], axis=1)
                 @ np.linalg.pinv(np.stack([rho**k, sigma**k], axis=1)))
        for m, r in enumerate(cyclic_R_eigenvalues(s1, s2, u)):
            idx = ((m - k) % n) * n + k
            block = pr.matrix[np.ix_(idx, idx)]
            assert np.abs(block - r * local).max() <= 1e-13 * max(1.0, np.abs(r * local).max())


def test_stacked_partial_r_forms_no_dense_array():
    """At N = 19 (cli.MAX_ORDER) and 16 samples (verify._STACK_SIZE) the
    sector-wise pass stays below 2 MB; the dense N^2 x 2N solve it replaces
    peaked at about 50 MB."""
    rng = np.random.default_rng(3)
    points = [sample_compatible_params(19, rng) for _ in range(16)]
    tracemalloc.start()
    try:
        solves = cyclic._partial_rs(cyclic._Pairs.of(*zip(*points)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solves.span_ranks == [38] * 16
    assert peak < 2 * 2**20


def test_tensor_power_report_fold_keeps_nan():
    report = TensorPowerReport(scalars={}, offscalar_residuals={"a": 0.0, "b": float("nan")},
                               closed_form_errors={})
    assert np.isnan(report.max_offscalar_residual)


def _nan_second_scalar_part(monkeypatch):
    """Make the second off-scalar residual of a sample NaN; the others stay 0."""

    def fake(m):
        resids = np.zeros(m.shape[:-3])
        resids[..., 1] = np.nan
        return np.zeros(m.shape[:-3], complex), resids

    monkeypatch.setattr(cyclic, "_scalar_part", fake)


def test_central_elements_fails_on_nan_residual(rng, monkeypatch):
    _nan_second_scalar_part(monkeypatch)
    with pytest.raises(NotScalar) as info:
        central_elements(_random_spec(3, rng), tol=1.0)
    assert np.isnan(info.value.residual)


def test_tensor_power_scalars_fails_on_nan_residual(rng, monkeypatch):
    s1, s2 = _random_spec(3, rng), _random_spec(3, rng)
    _nan_second_scalar_part(monkeypatch)
    with pytest.raises(NotScalar, match="sp_u"):
        tensor_power_scalars(s1, s2, 0.3, tol=1.0)


def _all_finite(value) -> bool:
    """Whether every number in a result, its dataclass fields, dicts, lists
    and arrays included, is finite."""
    if dataclasses.is_dataclass(value):
        return all(_all_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return all(map(_all_finite, value.values()))
    if isinstance(value, (list, tuple)):
        return all(map(_all_finite, value))
    return value is None or isinstance(value, str) or bool(np.isfinite(value).all())


def _words_of_sample(specs, u) -> str:
    """The words by which a cyclic pair call's overflow error names its
    sample, " at (alpha, beta, lam) = (a1, b1, l1), (a2, b2, l2), u = <u>",
    every number a Python complex."""
    params = ", ".join(str((complex(s.alpha), complex(s.beta), complex(s.lam))) for s in specs)
    return f" at (alpha, beta, lam) = {params}, u = {complex(u)}"


def test_a_large_u_gives_a_finite_result_or_a_typed_error():
    """At a u far outside the numerical envelope every call of the product
    space of spins (1, 1) and of the cyclic pair below returns a finite
    result or raises a QybeError, and numpy warns of nothing; so does every
    cyclic pair call at u = 0.5 where alpha, beta or lam of either spec is
    +-400j, and a q of 1e300 with a log branch of 800.  Where a power of q
    overflows, ParameterDomainError names u on the product space, and the
    cyclic pair calls name alpha, beta and lam of both specs as well as u;
    tensor_casimir raises what sectors raises at the same u.  build_lax,
    fundamental_r and phi_product are in the sweep below, and qnum, which
    returns what overflows, is left out."""
    q = DeformationParameter.generic(cmath.exp(0.2 + 0.7j))
    space = ProductSpace.of_spins(1, 1, q, "orthonormal")
    s1 = CyclicRepSpec(0.3 + 0.1j, -0.2, 0.1j, 3)
    s2 = CyclicRepSpec(0.1, 0.4j, -0.3, 3)
    space_calls = {
        "coproduct": lambda u: space.coproduct("delta", u),
        "coproduct_bar": lambda u: space.coproduct("deltabar", u),
        "sectors": lambda u: space.sectors(u),
        "sectors_bar": lambda u: space.sectors(u, "deltabar"),
        "tensor_casimir": lambda u: tensor_casimir(space, u),
    }
    pair_calls = {
        "family_closure_defect": family_closure_defect,
        "family_ratio": family_ratio,
        "family_ratio_bar": lambda a, b, u: family_ratio(a, b, u, barred=True),
        "cyclic_R_eigenvalues": cyclic_R_eigenvalues,
        **{f"shift_prefactor_{relation}": lambda a, b, u, relation=relation:
           shift_prefactor(relation, a, b, u, 1) for relation in cyclic._RELATIONS},
        "eigenstate_family": lambda a, b, u: eigenstate_family(a, b, u, enforce=False),
        "eigenstate_family_enforced": eigenstate_family,
        "tensor_power_scalars": tensor_power_scalars,
        "partial_R": partial_R,
    }
    # (name, key) -> (call, " at <sample>": the words that its overflow error names it by)
    sweep = {}
    for u in (1000j, -1000j, -300j, 5000, 1e6):
        for name, call in space_calls.items():
            sweep[name, u] = (lambda call=call, u=u: call(u)), f" at u = {complex(u)}"
        for name, call in pair_calls.items():
            sweep[name, u] = ((lambda call=call, u=u: call(s1, s2, u)),
                              _words_of_sample((s1, s2), u))
    # alpha1 and beta2 cancel in the family ratios, and only the R_m overflow
    large = {"alpha1+beta2": [dataclasses.replace(s1, alpha=s1.alpha + 400j),
                              dataclasses.replace(s2, beta=s2.beta + 400j)]}
    for slot in (0, 1):
        for param in ("alpha", "beta", "lam"):
            for z in (400j, -400j):
                specs = [s1, s2]
                specs[slot] = dataclasses.replace(specs[slot], **{param: z})
                large[slot, param, z] = specs
    for key, specs in large.items():
        for name, call in pair_calls.items():
            sweep[name, key] = ((lambda call=call, specs=specs: call(*specs, 0.5)),
                                _words_of_sample(specs, 0.5))
    overflows, raised = set(), {}
    for key, (call, sample) in sweep.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                assert _all_finite(call()), key
            except QybeError as exc:
                raised[key] = type(exc), str(exc)
                if (isinstance(exc, ParameterDomainError)
                        and str(exc).endswith(f"{sample}: a power of q overflows")):
                    overflows.add(key)
    for u in (1000j, -1000j, -300j, 5000, 1e6):
        assert raised.get(("tensor_casimir", u)) == raised.get(("sectors", u)), u
    assert raised["tensor_casimir", 1e6] == (
        ParameterDomainError,
        "the unbarred family is not finite at u = (1000000+0j): a power of q overflows")
    assert {("coproduct", 1e6), ("family_ratio", -1000j), ("cyclic_R_eigenvalues", 1000j),
            ("shift_prefactor_lower", -1000j), ("eigenstate_family", -1000j)} <= overflows
    for u in (1000j, -1000j, -300j):
        for name in ("family_closure_defect", "tensor_power_scalars", "partial_R"):
            assert (name, u) in overflows
    assert ("cyclic_R_eigenvalues", "alpha1+beta2") in overflows
    for key, specs in large.items():
        assert ("tensor_power_scalars", key) in overflows
        # a lam of one spec moves the family ratios by half as much as alpha or beta
        if specs[0].lam == s1.lam and specs[1].lam == s2.lam:
            assert {("eigenstate_family", key), ("partial_R", key)} <= overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterDomainError, match="log_branch is not a logarithm of q"):
            DeformationParameter(value=1e300 + 0j, log_branch=800 + 0j)


_Q_FAR = DeformationParameter.generic(cmath.exp(0.2 + 0.7j))
_SPACE_FAR = ProductSpace.of_spins(1, 1, _Q_FAR, "orthonormal")
_HUGE_ALPHA = CyclicRepSpec(1000j, -0.2, 0.1j, 3)
OVERFLOWING_CALLS = {
    "sectors_5000": lambda: _SPACE_FAR.sectors(5000),
    "sectors_1e6": lambda: _SPACE_FAR.sectors(1e6),
    "sectors_spin_0_1e6": lambda: ProductSpace.of_spins(0, 0, _Q_FAR).sectors(1e6),
    # at a real q one term of each generator overflows to NaN and the other to 0, on one entry
    "sectors_spin_0_real_q": lambda: ProductSpace.of_spins(
        0, 0, DeformationParameter.generic(2.0)).sectors(3000),
    "tensor_casimir_5000": lambda: tensor_casimir(_SPACE_FAR, 5000),
    "tensor_casimir_1e6": lambda: tensor_casimir(_SPACE_FAR, 1e6),
    "family_closure_defect": lambda: family_closure_defect(
        CyclicRepSpec(0.3 + 0.1j, -0.2, 0.1j, 3), CyclicRepSpec(0.1, 0.4j, -0.3, 3), -165j),
    "family_closure_defect_7": lambda: family_closure_defect(
        CyclicRepSpec(0, 0, 0, 7), CyclicRepSpec(0.1, 0, 0.2, 7), -165j),
    "central_elements": lambda: central_elements(_HUGE_ALPHA),
    "build_cyclic_rep": lambda: build_cyclic_rep(_HUGE_ALPHA),
    "build_lax": lambda: build_lax(build_spin_rep(1, _Q_FAR), 5000),
    "fundamental_r": lambda: fundamental_r(1e6, _Q_FAR),
    "phi_product": lambda: phi_product(1000j, DeformationParameter.root_of_unity(3)),
    "build_spin_rep": lambda: build_spin_rep(6, DeformationParameter.generic(1e-100)),
}


@pytest.mark.parametrize("call", OVERFLOWING_CALLS.values(), ids=OVERFLOWING_CALLS)
def test_an_overflow_is_a_domain_error_and_no_warning(call):
    """Where a power of q overflows, each public call raises the
    ParameterDomainError of the one overflow check, with no numpy warning:
    not a CompletenessFailure or a NotScalar of a NaN residual, and not a
    non-finite result."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterDomainError, match=r"a power of q overflows\Z"):
            call()
