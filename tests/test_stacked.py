"""The stacked numerics against per-sample references, bit for bit.

Each stacked pass must give slice s exactly as the same numerics on sample
s alone: the scalar loops below for the factor generators, the eigenvalue
recurrence, the lowest-weight recurrence, the six-vertex and Lax matrices,
the phi products and the partial R, and the public stacks of one
(``assemble_R``, ``decomposed_residuals``, ``tensor_casimir``,
``fundamental_r``, ``build_lax``, ``phi_product``, and at a root of unity
``build_cyclic_rep``, ``central_elements``, ``tensor_power_scalars``,
``eigenstate_family``, ``cyclic_R_eigenvalues`` and ``partial_R``) for the
rest.  Arrays are compared byte for byte, so a zero's sign counts.
"""
import dataclasses
import gc
import itertools
import json
import weakref

import numpy as np
import pytest

from qybe import (RATIONAL, CyclicRepSpec, DeformationParameter, PhiProduct, ProductSpace,
                  ToleranceConfig, assemble_R, build_cyclic_rep, build_lax, build_spin_rep,
                  central_elements, cyclic_R_eigenvalues, eigenstate_family,
                  eigenvalue_sequence, family_ratio, fundamental_r, partial_R, phi_product,
                  qnum, tensor_casimir, tensor_power_scalars)
from qybe import cli, cyclic, rop, verify
from qybe.errors import InconsistentConstraints, PoleAtSector, QybeError, SamplerExhausted
from qybe.qcore import _phi_products, residual, sample_generic_q, sample_params, sample_u
from qybe.rep import _casimir_diagonals, _fundamental_rs, _laxes, _spin_factors
from qybe.rop import _top_sector
from qybe.tensorrep import _lowest_weights, _spin_space, _SpaceStack
from qybe.verify import (_casimir_reports, _decomposed, _on_slots, _PairRun, _regular_point,
                         _residuals, _run, _stacked_R, _Suite, check_casimir_spectrum,
                         check_cyclic_centrality, check_cyclic_r_ratio, check_decomposed_ybe,
                         check_fundamental_ybe, check_partial_r, check_phi_identity, check_rll,
                         check_shift_laws, check_unitarity, decomposed_residuals)

PAIRS = [(0.5, 0.5), (0.5, 1.0), (1.0, 1.0), (1.5, 1.0)]
COUNT = 5


def _same(got, want) -> None:
    got, want = np.asarray(got, complex), np.asarray(want, complex)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _points(pair, seed, mode="xxz"):
    rng = np.random.default_rng(seed)
    return [_regular_point(*pair, rng, mode=mode) for _ in range(COUNT)]


# ---------------------------------------------------------------------------
# scalar references: one sample at a time, with complex scalars

def _scalar_spin_rep(ell, q, basis):
    d = int(round(2 * ell)) + 1
    sp = np.zeros((d, d), complex)
    sm = np.zeros((d, d), complex)
    dm = None
    if basis == "monomial":
        for k in range(1, d):
            sm[k - 1, k] = qnum(k, q)
        for k in range(d - 1):
            sp[k + 1, k] = qnum(2 * ell - k, q)
    else:
        dm = np.ones(d, complex)
        for k in range(d - 1):
            a = qnum(k + 1, q)
            s = np.sqrt(a * qnum(2 * ell - k, q))
            sp[k + 1, k] = s
            sm[k, k + 1] = s
            dm[k + 1] = dm[k] * a / s
    return sp, sm, dm


def _scalar_eigenvalues(ell1, ell2, u, q):
    big_l = ell1 + ell2 + 1
    vals = [1.0 + 0j]
    for n in range(1, _top_sector(ell1, ell2) + 1):
        den = qnum(big_l - n + u, q)
        vals.append(-vals[-1] * qnum(big_l - n - u, q) / den)
    return vals


def _scalar_lowest_weights(ell1, ell2, u, q, d1, d2, barred, count):
    s = -1.0 if barred else 1.0
    c = np.zeros((count, d1, d2), complex)
    c[0, 0, 0] = 1.0
    for i in range(1, count):
        a = q.pow(s * (ell1 + 1 - i - u / 2))
        b = q.pow(s * (u / 2 + i - 1 - ell2))
        c[i, 1:, :] += a * c[i - 1, :-1, :]
        c[i, :, 1:] -= b * c[i - 1, :, :-1]
    return c.reshape(count, d1 * d2)


def _scalar_fundamental_r(u, q):
    a, b = qnum(u + 1, q), qnum(u, q)
    return np.array([[a, 0, 0, 0], [0, b, 1, 0], [0, 1, b, 0], [0, 0, 0, a]], dtype=complex)


def _scalar_lax(rep, u):
    return np.block([[np.diag(qnum(u + rep.weights, rep.q)), rep.sm],
                     [rep.sp, np.diag(qnum(u - rep.weights, rep.q))]])


def _scalar_phi_product(alpha, q):
    n = q.order
    prod = complex(np.prod(qnum(alpha + np.arange(n), q)))
    closed = (q.value - 1 / q.value) ** (-n) * (q.pow(alpha * n) - q.pow(-alpha * n))
    return PhiProduct(prod, complex(closed), residual(prod, closed, closed))


def _scalar_partial_r(s1, s2, u):
    """The partial R of one sample, unguarded: matrix, rank, residual and
    eigenvalues, from 2-d arrays."""
    n = s1.n
    phi_u, phibar_u, phi_mu, phibar_mu = cyclic._family_vectors(
        n, [family_ratio(s1, s2, x, barred) for x in (u, -u) for barred in (False, True)])
    step = s1.q.pow(2 - u + s2.alpha - s2.beta - s1.lam)
    r_m = np.array([step**m for m in range(n)])
    v = np.concatenate([phi_u, phibar_u]).T
    w = np.concatenate([r_m[:, None] * phibar_mu, r_m[:, None] * phi_mu]).T
    left, s, right = np.linalg.svd(v.conj(), full_matrices=False)
    rank = int(np.count_nonzero(s > 1e-8 * max(1.0, np.abs(v).max())))
    inv = 1 / np.where(s > 1e-15 * s.max(), s, np.inf)
    mat = w @ (right.T @ (inv[:, None] * left.T))
    return mat, rank, residual(mat @ v, w, w), r_m


@pytest.mark.parametrize("basis", ["monomial", "orthonormal"])
def test_stacked_factors_equal_the_scalar_loop(basis, rng):
    stacks = ([sample_generic_q(rng) for _ in range(COUNT)], [RATIONAL] * 2)
    for qs, ell in itertools.product(stacks, (0.0, 0.5, 1.0, 1.5, 3.0)):
        f = _spin_factors(ell, qs, basis)
        for s, q in enumerate(qs):
            sp, sm, dm = _scalar_spin_rep(ell, q, basis)
            _same(f.sp[s], sp)
            _same(f.sm[s], sm)
            assert (f.from_monomial is None) == (dm is None)
            if dm is not None:
                _same(f.from_monomial[s], dm)
            rep = build_spin_rep(ell, q, basis)
            _same(rep.sp, sp)
            _same(rep.sm, sm)


@pytest.mark.parametrize("pair", PAIRS + [(3.0, 3.0)])
def test_stacked_eigenvalues_equal_the_scalar_recurrence(pair):
    for mode in ("xxz", "xxx"):
        points = _points(pair, 3, mode)
        qs, us = zip(*points)
        vals, poles = verify._eigenvalues(*pair, us, qs)
        assert poles == [None] * COUNT
        for s, (q, u) in enumerate(points):
            _same(vals[s], _scalar_eigenvalues(*pair, u, q))
            _same(eigenvalue_sequence(*pair, u, q), _scalar_eigenvalues(*pair, u, q))
    # at the rational point a float u keeps Python's quotient too
    _same(eigenvalue_sequence(2.0, 2.0, 0.0, RATIONAL), _scalar_eigenvalues(2.0, 2.0, 0.0, RATIONAL))


@pytest.mark.parametrize("pair", PAIRS)
def test_stacked_lowest_weights_equal_the_scalar_recurrence(pair):
    points = _points(pair, 5)
    qs, us = zip(*points)
    d1, d2 = (int(round(2 * ell)) + 1 for ell in pair)
    k = min(d1, d2)
    for barred in (False, True):
        got = _lowest_weights(*pair, us, qs, d1, d2, barred, k)
        for s, (q, u) in enumerate(points):
            _same(got[s], _scalar_lowest_weights(*pair, u, q, d1, d2, barred, k))


# ---------------------------------------------------------------------------
# stacked passes against their stacks of one

@pytest.mark.parametrize("basis", ["orthonormal", "monomial"])
@pytest.mark.parametrize("pair", PAIRS)
def test_stacked_R_and_its_relations_equal_each_sample_alone(pair, basis):
    """R at u and -u, R(u) R(-u) and the eight decomposed residuals."""
    points = _points(pair, 7)
    qs, us = zip(*points)
    space = _SpaceStack.of_spins(*pair, qs, basis)
    form = space.spectral_form()
    r_u, errors_u = _stacked_R(*pair, us, qs, *form)
    r_mu, errors_mu = _stacked_R(*pair, [-u for u in us], qs, *form)
    assert errors_u == errors_mu == [None] * COUNT
    relations = _decomposed(space, us, r_u, space.coproduct("delta", us),
                            _casimir_diagonals(space.weights, qs))
    prod = r_u @ r_mu
    for s, (q, u) in enumerate(points):
        alone_u = assemble_R(*pair, u, q, basis=basis)
        alone_mu = assemble_R(*pair, -u, q, basis=basis)
        _same(r_u[s], alone_u.matrix)
        _same(r_mu[s], alone_mu.matrix)
        _same(prod[s], alone_u.matrix @ alone_mu.matrix)
        assert relations[s] == decomposed_residuals(alone_u)


@pytest.mark.parametrize("pair", PAIRS)
def test_rational_R_shares_one_form_across_the_stack(pair):
    points = _points(pair, 9, "xxx")
    qs, us = zip(*points)
    space = ProductSpace.of_spins(*pair, RATIONAL, "monomial")._stack
    r, errors = _stacked_R(*pair, us, qs, *space.spectral_form())
    assert errors == [None] * COUNT
    for s, u in enumerate(us):
        _same(r[s], assemble_R(*pair, u, mode="xxx").matrix)


def test_a_stack_past_numpy_temporary_elision_keeps_every_slice():
    """numpy computes a binary operation into a temporary operand of at
    least 256 KiB, and into the right one when the left cannot take it,
    which swaps the factors of a product and can move the last bit of a
    complex product.  R of 1,000 (1, 1) samples in one pass puts the
    block-times-twist product of rop._solve past that size."""
    pair, count = (1.0, 1.0), 1000
    rng = np.random.default_rng(4)
    qs, us = zip(*(_regular_point(*pair, rng) for _ in range(count)))
    form, errors = _SpaceStack.of_spins(*pair, qs, "orthonormal").spectral_form()
    eig, poles = rop._eigenvalues(*pair, us, qs)
    r, solved = rop._solve(*pair, us, qs, eig, form)
    assert errors == poles == solved == [None] * count
    for s in range(count):
        alone = dataclasses.replace(form, left=form.left[s:s + 1], right=form.right[s:s + 1],
                                    cond=form.cond[s:s + 1])
        _same(r[s], rop._solve(*pair, us[s:s + 1], qs[s:s + 1], eig[s:s + 1], alone)[0][0])


@pytest.mark.parametrize("pair", PAIRS)
def test_stacked_casimir_equals_each_sample_alone(pair):
    points = _points(pair, 13)
    qs, us = zip(*points)
    run = _PairRun(*pair, points)
    reports = _casimir_reports(run.space, us, run.delta_u, run.casimir_diagonal)
    for report, (q, u) in zip(reports, points):
        alone = tensor_casimir(ProductSpace.of_spins(*pair, q, "orthonormal"), u)
        assert report == alone
        assert (report.max_residual, report.max_m_spread) == (alone.max_residual,
                                                              alone.max_m_spread)


# ---------------------------------------------------------------------------
# the cyclic suites' stacked kernels against their stacks of one

def _bits(obj):
    """The bytes of every number in a report, dict or list, so that equal
    bits, a zero's sign and a NaN's included, compare equal."""
    if dataclasses.is_dataclass(obj):
        return _bits(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {key: _bits(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_bits(value) for value in obj]
    return np.asarray(obj, complex).tobytes()


def _cyclic_points(n, seed, count=COUNT):
    """Samples as the centrality suite draws them, with admissible family
    samples and off-set ones, whose shift laws fail at the cycle seam."""
    rng = np.random.default_rng(seed)
    points = []
    for i in range(count):
        if i % 2:
            points.append(cyclic.sample_compatible_params(n, rng))
        else:
            points.append((CyclicRepSpec(*sample_params(rng, 3), n),
                           CyclicRepSpec(*sample_params(rng, 3), n), sample_u(rng, scale=0.6)))
    return points


@pytest.mark.parametrize("n", [3, 7, 19])
def test_stacked_cyclic_kernels_equal_each_sample_alone(n):
    """Bands, central scalars and residuals, tensor-power scalars with their
    residuals and closed-form errors, and shift residuals."""
    points = _cyclic_points(n, 11 + n)
    specs1, specs2, us = zip(*points)
    reps1, reps2 = cyclic._rep_bands(specs1), cyclic._rep_bands(specs2)
    bands = cyclic._sector_bands(reps1, reps2, us)
    central = cyclic._central_elements(specs1, reps1) + cyclic._central_elements(specs2, reps2)
    powers = cyclic._tensor_power_reports(specs1, specs2, us, reps1, reps2)
    ratios, shifts = cyclic._shift_residuals(specs1, specs2, us)
    for s, (s1, s2, u) in enumerate(points):
        rep = build_cyclic_rep(s1)
        gens = reps1.generators()[s]
        for got, want in ((gens[0], rep.sp), (gens[1], rep.sm), (reps1.weights[s], rep.weights)):
            _same(got, want)
        alone1, alone2 = cyclic._rep_bands([s1]), cyclic._rep_bands([s2])
        _same(bands[s], cyclic._sector_bands(alone1, alone2, [u])[0])
        for ce, spec in ((central[s], s1), (central[COUNT + s], s2)):
            assert _bits(ce) == _bits(central_elements(spec, tol=np.inf))
        assert _bits(powers[s]) == _bits(tensor_power_scalars(s1, s2, u, tol=np.inf))
        family = eigenstate_family(s1, s2, u, enforce=False)
        assert _bits(ratios[s]) == _bits([family.ratio, family.barred_ratio])
        _same(shifts[s].ravel(), list(family.shift_residuals.values()))
    # the off-set samples break their laws; the admissible ones keep them
    worst = shifts.reshape(COUNT, -1).max(axis=1)
    assert (worst[1::2] < 1e-9).all() and (worst[::2] > 1e-3).all()


# ---------------------------------------------------------------------------
# the six-vertex, Lax, phi-product and partial-R kernels against their
# stacks of one and the scalar references, at stack sizes 1, 16 and 17

SIZES = (1, 16, 17)
ROOT7 = DeformationParameter.root_of_unity(7)
SPEC5 = CyclicRepSpec(0.31 + 0.11j, -0.42 + 0.2j, 0.17 - 0.23j, 5)


def _generic_points(count, seed):
    rng = np.random.default_rng(seed)
    return [sample_generic_q(rng) for _ in range(count)], [sample_u(rng) for _ in range(count)]


@pytest.mark.parametrize("count", SIZES)
def test_stacked_six_vertex_matrices_equal_each_sample_alone(count):
    qs, us = _generic_points(count, count)
    for stack in (qs, [RATIONAL] * count, [ROOT7] * count):
        rs = _fundamental_rs(us, stack)
        for s, (q, u) in enumerate(zip(stack, us)):
            _same(rs[s], fundamental_r(u, q))
            _same(rs[s], _scalar_fundamental_r(u, q))


@pytest.mark.parametrize("count", SIZES)
def test_stacked_lax_matrices_and_slots_equal_each_sample_alone(count):
    """Spin representations at the samples' own q, and one cyclic
    representation that every sample shares; then each Lax matrix on two of
    three tensor slots."""
    qs, us = _generic_points(count, 30 + count)
    fixed = build_cyclic_rep(SPEC5)
    for ell in (0.5, 1.0, 1.5):
        f = _spin_factors(ell, qs, "monomial")
        laxes = _laxes(f.sp, f.sm, f.weights, us, qs)
        for s, (q, u) in enumerate(zip(qs, us)):
            rep = build_spin_rep(ell, q)
            _same(laxes[s], build_lax(rep, u))
            _same(laxes[s], _scalar_lax(rep, u))
    laxes = _laxes(fixed.sp, fixed.sm, fixed.weights, us, [fixed.q] * count)
    for s, u in enumerate(us):
        _same(laxes[s], build_lax(fixed, u))
        _same(laxes[s], _scalar_lax(fixed, u))
    dims = (2, 2, fixed.dim)
    for slots in ((0, 2), (1, 2), (2, 0)):
        placed = _on_slots(laxes, dims, slots)
        for s in range(count):
            _same(placed[s], _on_slots(laxes[s], dims, slots))


def test_stacked_residuals_equal_each_sample_alone():
    rng = np.random.default_rng(8)
    lhs, rhs, a, b = (rng.normal(size=(17, 6, 6)) + 1j * rng.normal(size=(17, 6, 6))
                      for _ in range(4))
    lhs[3, 1, 2] = np.nan
    got = _residuals(lhs, rhs, a, b)
    want = [residual(*args) for args in zip(lhs, rhs, a, b)]
    assert _bits(got) == _bits(want) and np.isnan(got[3])


@pytest.mark.parametrize("n", [3, 7, 19])
@pytest.mark.parametrize("count", SIZES)
def test_stacked_phi_products_and_eigenvalue_steps_equal_each_sample_alone(n, count):
    q = DeformationParameter.root_of_unity(n)
    rng = np.random.default_rng(n * count)
    alphas = [complex(rng.normal(0, 0.6), rng.normal(0, 0.6)) for _ in range(count)]
    for got, alpha in zip(_phi_products(alphas, q), alphas):
        assert _bits(got) == _bits(phi_product(alpha, q)) == _bits(_scalar_phi_product(alpha, q))
    specs1, specs2, us = zip(*_cyclic_points(n, n + count, count))
    steps, vals = cyclic._eigenvalue_steps(specs1, specs2, us)
    for s, (s1, s2, u) in enumerate(zip(specs1, specs2, us)):
        step = q.pow(2 - u + s2.alpha - s2.beta - s1.lam)
        _same(steps[s], step)
        _same(vals[s], cyclic_R_eigenvalues(s1, s2, u))
        _same(vals[s], [step**m for m in range(n)])


def _conflicting(n, rng):
    """Coinciding families at u with distinct images at -u: partial R
    raises InconsistentConstraints at span rank N."""
    a1, a2 = (complex(rng.normal(0, 0.4), rng.normal(0, 0.4)) for _ in range(2))
    return CyclicRepSpec(a1, a1, 0.3j, n), CyclicRepSpec(a2, a2, 0.3j, n), 2.0 + 0j


@pytest.mark.parametrize("n", [3, 7, 19])
@pytest.mark.parametrize("count", SIZES)
def test_stacked_partial_r_equals_each_sample_alone(n, count):
    """Matrix, span rank, residual and eigenvalues of every sample; the
    conflicting sample keeps the residual and rank that partial_R raises.
    At N = 19 the stacked images pass numpy's 256 KiB temporary-elision
    size."""
    rng = np.random.default_rng(40 + count)
    points = [cyclic.sample_compatible_params(n, rng) for _ in range(count)]
    points[count // 2] = _conflicting(n, rng)
    conflicts = 0
    for got, (s1, s2, u) in zip(cyclic._partial_rs(*zip(*points)), points):
        mat, rank, resid, r_m = _scalar_partial_r(s1, s2, u)
        _same(got.matrix, mat)
        _same(got.eigenvalues, r_m)
        assert (got.span_rank, _bits(got.max_residual)) == (rank, _bits(resid))
        try:
            alone = partial_R(s1, s2, u)
        except InconsistentConstraints as exc:
            conflicts += 1
            assert (exc.span_rank, exc.residual) == (rank, resid) == (n, got.max_residual)
            continue
        _same(alone.matrix, mat)
        _same(alone.eigenvalues, r_m)
        assert (alone.span_rank, alone.max_residual) == (rank, resid) == (2 * n, got.max_residual)
    assert conflicts == 1


def _guard_residuals(injected: dict, real, monkeypatch) -> None:
    """Make the off-scalar residuals of the centrality suite read
    ``injected[(kind, sample, entry)]``, whatever stacks the samples are
    evaluated in.  A stack's pass takes three scalar parts: kind 0 is the
    central elements of rep 1, kind 1 those of rep 2 (entries S+, S-,
    q^{NS}), kind 2 the tensor powers (entries sm_u, sp_u, sm_bar_u,
    sp_bar_u).  ``real`` is the unpatched scalar part."""
    seen = {"calls": 0, "offset": 0}

    def fake(m):
        scalars, resids = real(m)
        kind, offset, size = seen["calls"] % 3, seen["offset"], m.shape[0]
        for (at, sample, entry), value in injected.items():
            if at == kind and offset <= sample < offset + size:
                resids[sample - offset, entry] = value
        seen["calls"] += 1
        seen["offset"] += size if kind == 2 else 0
        return scalars, resids

    monkeypatch.setattr(cyclic, "_scalar_part", fake)


@pytest.mark.parametrize("injected,want", [
    ({(0, 1, 2): 3.0, (1, 1, 0): 4.0, (2, 1, 0): 5.0}, 3.0),
    ({(1, 1, 1): 4.0, (2, 1, 0): 5.0}, 4.0),
    ({(2, 1, 2): 6.0, (2, 1, 1): 2.0, (2, 1, 3): np.nan}, 2.0),
    ({(2, 1, 3): np.nan, (1, 0, 0): 0.5}, np.nan),
    ({(0, 1, 0): np.nan, (2, 1, 0): 5.0}, np.nan),
])
def test_a_cyclic_stack_reports_the_first_failing_guard(injected, want, monkeypatch):
    """A sample that fails a guard has the residual of the first failing one:
    rep 1's central elements, rep 2's, then the generators in the order
    sm_u, sp_u, sm_bar_u, sp_bar_u; a guard within 1 is no failure.  The
    other samples of the stack keep their rounding-level residuals, so the
    report's maximum is the failing sample's residual, in one stack and
    one sample at a time."""
    cfg = ToleranceConfig(sample_count=3, rng_seed=2)
    real = cyclic._scalar_part
    for size in (verify._STACK_SIZE, 1):
        monkeypatch.setattr(verify, "_STACK_SIZE", size)
        _guard_residuals(injected, real, monkeypatch)
        got = check_cyclic_centrality(5, cfg).max_residual
        assert got == want or (np.isnan(got) and np.isnan(want))


# ---------------------------------------------------------------------------
# errors and the stack bound

ROOT3 = DeformationParameter.root_of_unity(3)


def _first_error(build_each, points) -> str | None:
    """The first error of the samples built one at a time, in order."""
    for point in points:
        try:
            build_each(*point)
        except QybeError as exc:
            return f"{type(exc).__name__}: {exc}"
    return None


def _suite_error(suite, points, monkeypatch) -> str | None:
    drawn = iter(points)
    monkeypatch.setattr(verify, "_regular_point", lambda *args, **kwargs: next(drawn))
    try:
        suite(1.0, 1.0, ToleranceConfig(sample_count=len(points), rng_seed=1))
    except QybeError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def _unitarity_alone(q, u):
    return assemble_R(1.0, 1.0, u, q), assemble_R(1.0, 1.0, -u, q)


def _casimir_alone(q, u):
    return tensor_casimir(ProductSpace.of_spins(1.0, 1.0, q, "orthonormal"), u)


@pytest.mark.parametrize("suite,alone", [
    (check_unitarity, _unitarity_alone),
    (check_decomposed_ybe, lambda q, u: assemble_R(1.0, 1.0, u, q)),
    (check_casimir_spectrum, _casimir_alone),
])
def test_a_stack_raises_its_lowest_failing_sample(suite, alone, monkeypatch):
    """At q = exp(2 pi i / 3) the (1, 1) chains break (a CompletenessFailure);
    u = -1 puts R(u) on its sector-2 pole.  Whatever the failing samples,
    the error is that of the first one, as a pass over each sample in turn
    raises it."""
    q = DeformationParameter.generic(np.exp(0.17 + 0.59j))
    ok, broken, pole = (q, 0.3 + 0.2j), (ROOT3, 0.3 + 0.2j), (q, -1.0 + 0j)
    for points in ([ok, broken, pole], [ok, pole, broken], [broken, ok], [ok, ok, pole]):
        assert _suite_error(suite, points, monkeypatch) == _first_error(alone, points)
    assert _first_error(_unitarity_alone, [ok, pole]).startswith("PoleAtSector")
    assert _first_error(_unitarity_alone, [broken]).startswith("CompletenessFailure")


def test_a_shared_form_gives_every_sample_its_error(monkeypatch):
    """The rational unitarity samples share one form; below its conditioning
    every sample fails, and the first with the error one sample raises."""
    monkeypatch.setattr(rop, "COND_LIMIT", 1.0)
    want = _first_error(lambda u: assemble_R(0.5, 0.5, u, mode="xxx"), [(0.3 + 0.2j,)])
    assert want.startswith("SingularBasis")
    with pytest.raises(QybeError) as exc:
        check_unitarity(0.5, 0.5, ToleranceConfig(sample_count=3, rng_seed=2), mode="xxx")
    assert f"{type(exc.value).__name__}: {exc.value}" == want


SUITES = {
    "decomposed": lambda cfg: check_decomposed_ybe(0.5, 1.0, cfg),
    "unitarity[xxz]": lambda cfg: [check_unitarity(1.0, 1.0, cfg)],
    "unitarity[xxx]": lambda cfg: [check_unitarity(0.5, 0.5, cfg, mode="xxx")],
    "casimir_spectrum": lambda cfg: [check_casimir_spectrum(0.5, 1.0, cfg)],
    "cyclic_centrality": lambda cfg: [check_cyclic_centrality(7, cfg)],
    "shift_laws": lambda cfg: [check_shift_laws(7, cfg)],
    "fundamental_ybe[xxz]": lambda cfg: [check_fundamental_ybe(cfg)],
    "fundamental_ybe[xxx]": lambda cfg: [check_fundamental_ybe(cfg, mode="xxx")],
    "rll[spin]": lambda cfg: [check_rll(1.5, cfg)],
    "rll[cyclic]": lambda cfg: [check_rll(SPEC5, cfg)],
    "phi_product": lambda cfg: [check_phi_identity(7, cfg, count=cfg.sample_count)],
    "cyclic_r_ratio": lambda cfg: [check_cyclic_r_ratio(7, cfg)],
    "partial_r": lambda cfg: [check_partial_r(7, cfg)],
}


@pytest.mark.parametrize("suite", list(SUITES))
def test_the_stack_bound_leaves_every_report_unchanged(suite, monkeypatch):
    """Sample counts 1, the bound and the bound + 1 give the records and
    maxima that one pass per sample gives."""
    bound = verify._STACK_SIZE
    for count, seed in itertools.product((1, bound, bound + 1), (0, 4)):
        cfg = ToleranceConfig(sample_count=count, rng_seed=seed)
        monkeypatch.setattr(verify, "_STACK_SIZE", bound)
        stacked = [report.to_dict() for report in SUITES[suite](cfg)]
        monkeypatch.setattr(verify, "_STACK_SIZE", 1)
        assert [report.to_dict() for report in SUITES[suite](cfg)] == stacked
        assert all(len(report["samples"]) == count for report in stacked)


def _index(rng, i):
    return i


def _suite(name, evaluate, draw=_index, cfg=ToleranceConfig(sample_count=5, rng_seed=1)):
    """A suite of the harness over the samples of ``draw``, each its index
    by default, recorded as {"i": sample}."""
    return _Suite(name, cfg, 1.0, draw, (), lambda i: {"i": i}, evaluate)


def _zeros(points):
    return [0.0] * len(points)


def test_an_evaluation_error_before_a_failing_draw_is_raised_first():
    """The draws run first; a draw that fails ends them, but an error of an
    earlier sample's evaluation is the one raised."""
    def draw(rng, i):
        if i == 3:
            raise SamplerExhausted("point", 1)
        return i

    def evaluate(points):
        if 1 in points:
            raise PoleAtSector(1)
        return [0.0] * len(points)

    with pytest.raises(PoleAtSector):
        _run([_suite("x", evaluate, draw)])
    with pytest.raises(SamplerExhausted):
        _run([_suite("x", _zeros, draw)])


class _Forced(QybeError):
    pass


def _failing(name, evaluated):
    """An evaluation that notes ``name`` in ``evaluated`` and raises."""
    def evaluate(points):
        evaluated.append(name)
        raise _Forced(name)
    return evaluate


def test_the_first_error_in_report_order_is_raised():
    """The harness evaluates the stream of the first suite first, c's error
    included, but b, on a stream of its own, comes before c in the run of
    suites, so b's error is raised."""
    evaluated = []
    other = ToleranceConfig(sample_count=5, rng_seed=2)
    with pytest.raises(_Forced, match="b"):
        _run([_suite("a", _zeros), _suite("b", _failing("b", evaluated), cfg=other),
              _suite("c", _failing("c", evaluated))])
    assert evaluated == ["c", "b"]


def test_a_draw_error_of_another_type_is_raised_at_its_first_reader():
    """An error that is no sampler's, raised in a draw, is raised at the
    place of the first suite that reads the stream, which evaluates
    nothing; an earlier suite's error still comes first."""
    evaluated = []

    def draw(rng, i):
        if i == 2:
            raise RuntimeError("draw")
        return i

    reader = _failing("reader", evaluated)
    with pytest.raises(RuntimeError, match="draw"):
        _run([_suite("a", _zeros), _suite("b", reader, draw), _suite("c", _failing("c", evaluated))])
    assert evaluated == ["c"]
    with pytest.raises(_Forced, match="a"):
        _run([_suite("a", _failing("a", evaluated)), _suite("b", reader, draw)])
    assert evaluated == ["c", "a"]


def test_partial_r_completes_records_that_shift_laws_does_not_share():
    """partial_r and shift_laws read one stream, but partial_r completes
    record dicts of its own with the span rank."""
    cfg = ToleranceConfig(sample_count=5, rng_seed=3)
    by_id = {r.identity_id: r for r in cli._run_suite("cyclic", cfg, 5, 0.0)}
    shift, partial = by_id["shift_laws[N=5]"].samples, by_id["partial_r[N=5]"].samples
    assert all("span_rank" in record for record in partial)
    assert not any("span_rank" in record for record in shift)
    assert not {id(record) for record in shift} & {id(record) for record in partial}
    assert [r["u"] for r in shift] == [r["u"] for r in partial]


# ---------------------------------------------------------------------------
# one pass per golden pair and run of samples

def _spy_on_stacks(monkeypatch) -> list:
    """A weak reference to every stack built at a sampled q, in order."""
    built = []
    init = _SpaceStack.__init__

    def spying_init(self, *args):
        init(self, *args)
        if not self.rational:
            built.append(weakref.ref(self))

    monkeypatch.setattr(_SpaceStack, "__init__", spying_init)
    return built


@pytest.mark.parametrize("count,stacks", [(5, 3), (verify._STACK_SIZE, 3),
                                          (verify._STACK_SIZE + 1, 6), (33, 9)])
def test_verify_all_builds_one_stack_per_golden_pair_and_run(count, stacks, monkeypatch):
    """The decomposed, unitarity and Casimir suites of a golden pair share
    one stack per run of samples at any sample count, and none of the
    stacks survives the run of suites."""
    built = _spy_on_stacks(monkeypatch)
    reports = cli._run_suite("all", ToleranceConfig(sample_count=count, rng_seed=5), 3, 0.0)
    assert all(report.passed for report in reports)
    assert len(built) == stacks
    # the rational unitarity suite's space is memoised; the pass holds nothing
    _spin_space.cache_clear()
    gc.collect()
    assert [ref() for ref in built] == [None] * stacks


@pytest.mark.parametrize("suite", ["ybe", "unitarity", "casimir"])
def test_a_spin_pair_suite_alone_evaluates_only_its_own_part(suite, monkeypatch):
    """verify ybe builds each pair's stack for the decomposed relations
    only: no R(-u), no sectors; verify casimir assembles no R."""
    built = _spy_on_stacks(monkeypatch)
    calls = []
    for name in ("_decomposed", "_casimir_reports", "_stacked_R"):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name,
                            lambda *args, _name=name, _real=real: calls.append(_name) or _real(*args))
    cli._run_suite(suite, ToleranceConfig(sample_count=5, rng_seed=5), 3, 0.0)
    assert len(built) == 3
    want = {"ybe": {"_decomposed": 3, "_stacked_R": 3},
            "unitarity": {"_stacked_R": 2 * 3 + 2},
            "casimir": {"_casimir_reports": 3}}[suite]
    assert {name: calls.count(name) for name in set(calls)} == want


@pytest.mark.parametrize("suite", ["unitarity", "casimir"])
def test_a_suite_alone_reports_what_it_reports_inside_verify_all(suite, tmp_path):
    """Alone, the suite evaluates its own part of each pair's pass; inside
    verify all the pass evaluates all three suites; the reports agree."""
    alone, inside = tmp_path / "alone.json", tmp_path / "all.json"
    assert cli.main(["verify", suite, "--samples", "5", "--seed", "5", "--json", str(alone)]) == 0
    assert cli.main(["verify", "all", "--samples", "5", "--seed", "5", "--json", str(inside)]) == 0
    want = json.loads(alone.read_text())["reports"]
    ids = {report["identity_id"] for report in want}
    assert len(ids) == len(want) >= 3
    assert [r for r in json.loads(inside.read_text())["reports"] if r["identity_id"] in ids] == want


def test_a_perturbation_moves_each_suite_as_it_does_alone(monkeypatch):
    """Under a perturbation the decomposed and unitarity suites each perturb
    a copy of the R(u) they share, so each reports as it does alone, and
    the Casimir suite, which reads no R, reports as unperturbed."""
    for count, stacks in ((5, 3), (verify._STACK_SIZE + 1, 6)):
        cfg = ToleranceConfig(sample_count=count, rng_seed=2)
        clean = {r.identity_id: r.to_dict() for r in cli._run_suite("all", cfg, 3, 0.0)}
        with monkeypatch.context() as patched:
            built = _spy_on_stacks(patched)
            inside = {r.identity_id: r.to_dict() for r in cli._run_suite("all", cfg, 3, 1e-6)}
        # the Casimir suite reads its part of the perturbed pass
        assert len(built) == stacks
        for suite in ("ybe", "unitarity", "casimir"):
            for report in cli._run_suite(suite, cfg, 3, 1e-6):
                assert report.to_dict() == inside[report.identity_id], (count, suite)
        moved = {name for name in inside if inside[name] != clean[name]}
        assert {"unitarity[xxz](1.0,1.0)", "decomposed[qs_commute](1.0,1.0)"} <= moved
        assert not {name for name in moved if name.startswith("casimir")}


def test_a_pass_raises_each_suite_error_at_the_suite_place(monkeypatch):
    """The pass of verify all evaluates a pair's Casimir suite with its
    decomposed suite, but a Casimir failure is raised in the Casimir
    suite's place: after the rll suites, so an rll failure comes first."""
    cfg = ToleranceConfig(sample_count=verify._STACK_SIZE + 1, rng_seed=5)
    calls = []

    def failing_casimir(space, us, *pieces):
        calls.append(len(us))
        if len(calls) == 2:  # the second run of the first pair
            raise _Forced("casimir")
        return real_casimir(space, us, *pieces)

    real_casimir = verify._casimir_reports
    monkeypatch.setattr(verify, "_casimir_reports", failing_casimir)
    built = _spy_on_stacks(monkeypatch)
    with pytest.raises(_Forced, match="casimir") as raised:
        cli._run_suite("all", cfg, 3, 0.0)
    # the first pair's pass stopped its Casimir part at the failing run; the
    # other pairs ran theirs before the error was raised
    assert calls == [16, 1, 16, 1, 16, 1]
    # the error kept no traceback into its run, so it holds no stack
    _spin_space.cache_clear()
    gc.collect()
    assert raised.value is not None and [ref() for ref in built] == [None] * 6

    def failing_laxes(*args):
        raise _Forced("rll")

    monkeypatch.setattr(verify, "_laxes", failing_laxes)
    with pytest.raises(_Forced, match="rll"):
        cli._run_suite("all", cfg, 3, 0.0)


def _arrays(obj):
    """Every numpy array an object holds, through tuples, lists, dicts,
    dataclasses and instance attributes."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays(value)
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            yield from _arrays(value)
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, field.name))
    elif isinstance(obj, _SpaceStack):
        yield from _arrays(vars(obj))


def test_equal_spins_share_one_factor_representation():
    qs, _ = zip(*_points((1.0, 1.0), 3))
    f1, f2 = _SpaceStack.of_spins(1.0, 1 + 0j, qs, "orthonormal").factors
    assert f1 is f2
    f1, f2 = _SpaceStack.of_spins(0.5, 1.0, qs, "orthonormal").factors
    assert f1.weights.size == 2 and f2.weights.size == 3


def test_writing_to_any_memoised_array_raises():
    """The suites of a pass share one stack, so no suite may write to it."""
    qs, us = zip(*_points((1.0, 1.5), 3))
    stack = _SpaceStack.of_spins(1.0, 1.5, qs, "orthonormal")
    stack.spectral_form()
    stack.coproduct("delta", us)
    arrays = list(_arrays(stack))
    # factors, log q, weights, from_monomial, q-powers, pieces, form and layout
    assert len(arrays) > 30
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0
