"""The stacked numerics against per-sample references.

Each stacked pass must give slice s exactly as the public stack of one of
sample s (``assemble_R``, ``decomposed_residuals``, ``tensor_casimir``,
``fundamental_r``, ``build_lax``, ``build_spin_rep``,
``eigenvalue_sequence``, ``phi_product``, and at a root of unity
``build_cyclic_rep``, ``central_elements``, ``tensor_power_scalars``,
``eigenstate_family``, ``cyclic_R_eigenvalues`` and ``partial_R``); those
arrays are compared byte for byte, so a zero's sign counts.  The scalar
loops below for the factor generators, the eigenvalue recurrence, the
lowest-weight recurrence, the six-vertex and Lax matrices, the phi
products and the partial R round differently, so they are met within
:func:`conftest.assert_close`'s bound of a few ulps.
"""
import dataclasses
import gc
import itertools
import json
import weakref

import numpy as np
import pytest

from conftest import assert_close, raised_chains
from qybe import (RATIONAL, CyclicRepSpec, DeformationParameter, PhiProduct, ProductSpace,
                  ToleranceConfig, assemble_R, build_cyclic_rep, build_lax, build_spin_rep,
                  central_elements, cyclic_R_eigenvalues, eigenstate_family,
                  eigenvalue_sequence, family_closure_defect, family_ratio, fundamental_r,
                  partial_R, phi_product, qnum, shift_prefactor, tensor_casimir,
                  tensor_power_scalars)
from qybe import cli, cyclic, rop, tensorrep, verify
from qybe.errors import (CompletenessFailure, InconsistentConstraints, PoleAtSector, QybeError,
                         SamplerExhausted, SingularBasis)
from qybe.qcore import (_nan_max, _phi_products, _QStack, _qnums, _relative, residual,
                        sample_generic_q, sample_params, sample_u)
from qybe.rep import _casimir_diagonals, _fundamental_rs, _laxes, _spin_factors
from qybe.rop import _top_sector
from qybe.tensorrep import (CasimirSpectrumReport, SectorEigenvalue, _casimir_sectors,
                            _lowest_weights, _sector_chains, _spin_space, _unit_blocks)
from qybe.verify import (_casimir_residuals, _decomposed, _decomposed_families, _on_slots,
                         _PairRun, _regular_point, _residuals, _run, _Suite,
                         check_casimir_spectrum,
                         check_cyclic_centrality, check_cyclic_r_ratio, check_decomposed_ybe,
                         check_fundamental_ybe, check_partial_r, check_phi_identity, check_rll,
                         check_shift_laws, check_unitarity, decomposed_residuals)

PAIRS = [(0.5, 0.5), (0.5, 1.0), (1.0, 1.0), (1.5, 1.0)]
COUNT = 5


def _same(got, want) -> None:
    got, want = np.asarray(got, complex), np.asarray(want, complex)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _points(pair, seed, q=None):
    rng = np.random.default_rng(seed)
    return [_regular_point(*pair, rng, q=q) for _ in range(COUNT)]


def _stacked_R(ell1, ell2, us, qs, form):
    """R(u_s) at q_s for every row s from the spectral form ``form``, as a
    golden-pair run solves it."""
    return rop._solve(ell1, ell2, us, qs, rop._eigenvalues(ell1, ell2, us, qs), form)


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
    """The partial R of one sample by weight sector, unguarded: the
    sector-local map M0, rank, residual and eigenvalues, from 2-d arrays
    and a loop over the sectors."""
    n = s1.n
    rho, sigma, rho_mu, sigma_mu = (family_ratio(s1, s2, x, barred)
                                    for x in (u, -u) for barred in (False, True))
    v = np.array([[rho**k, sigma**k] for k in range(n)])
    w = np.array([[sigma_mu**k, rho_mu**k] for k in range(n)])
    step = s1.q.pow(2 - u + s2.alpha - s2.beta - s1.lam)
    r_m = np.array([step**m for m in range(n)])
    left, s, right = np.linalg.svd(v.conj(), full_matrices=False)
    rank = n * int(np.count_nonzero(s > 1e-8 * max(1.0, np.abs(v).max())))
    inv = 1 / np.where(s > 1e-15 * s.max(), s, np.inf)
    local = w @ (right.T @ (inv[:, None] * left.T))
    targets = np.array([r * w for r in r_m])
    return local, rank, residual(np.array([r * (local @ v) for r in r_m]), targets, targets), r_m


@pytest.mark.parametrize("basis", ["monomial", "orthonormal"])
def test_stacked_factors_equal_the_scalar_loop(basis, rng):
    stacks = ([sample_generic_q(rng) for _ in range(COUNT)], [RATIONAL] * 2)
    for qs, ell in itertools.product(stacks, (0.0, 0.5, 1.0, 1.5, 3.0)):
        f = _spin_factors(ell, _QStack.of(qs), basis)
        gens = f.dense()
        for s, q in enumerate(qs):
            sp, sm, dm = _scalar_spin_rep(ell, q, basis)
            assert_close(gens[s, 0], sp)
            assert_close(gens[s, 1], sm)
            assert (f.from_monomial is None) == (dm is None)
            if dm is not None:
                assert_close(f.from_monomial[s], dm)
            rep = build_spin_rep(ell, q, basis)
            _same(rep.sp, gens[s, 0])
            _same(rep.sm, gens[s, 1])


@pytest.mark.parametrize("pair", PAIRS + [(3.0, 3.0)])
def test_stacked_eigenvalues_equal_the_scalar_recurrence(pair):
    for fixed in (None, RATIONAL):
        points = _points(pair, 3, fixed)
        qs, us = zip(*points)
        vals = verify._eigenvalues(*pair, us, _QStack.of(qs))
        for s, (q, u) in enumerate(points):
            assert_close(vals[s], _scalar_eigenvalues(*pair, u, q))
            _same(eigenvalue_sequence(*pair, u, q), vals[s])
    assert_close(eigenvalue_sequence(2.0, 2.0, 0.0, RATIONAL),
                 _scalar_eigenvalues(2.0, 2.0, 0.0, RATIONAL))


@pytest.mark.parametrize("pair", PAIRS)
def test_stacked_lowest_weights_equal_the_scalar_recurrence(pair):
    points = _points(pair, 5)
    qs, us = zip(*points)
    d1, d2 = (int(round(2 * ell)) + 1 for ell in pair)
    k = min(d1, d2)
    for barred in (False, True):
        got = _lowest_weights(*pair, np.array(us)[:, None], [-1.0 if barred else 1.0],
                              _QStack.of(qs), d1, d2, k)[:, 0]
        for s, (q, u) in enumerate(points):
            assert_close(got[s], _scalar_lowest_weights(*pair, u, q, d1, d2, barred, k))


# ---------------------------------------------------------------------------
# stacked passes against their stacks of one

@pytest.mark.parametrize("basis", ["orthonormal", "monomial"])
@pytest.mark.parametrize("pair", PAIRS)
def test_stacked_R_and_its_relations_equal_each_sample_alone(pair, basis):
    """R at u and -u, R(u) R(-u) and the eight decomposed residuals."""
    points = _points(pair, 7)
    qs, us = zip(*points)
    qs = _QStack.of(qs)
    space = ProductSpace.stack_of_spins(*pair, qs, basis)
    form = space.spectral_form()
    r_u = _stacked_R(*pair, us, qs, form)
    r_mu = _stacked_R(*pair, [-u for u in us], qs, form)
    relations = _decomposed(space, us, r_u,
                            space.chain_pass(form=False, read=_decomposed_families(us))[1],
                            _casimir_diagonals(space.weights, qs))
    prod = r_u @ r_mu
    for s, (q, u) in enumerate(points):
        alone_u = assemble_R(*pair, u, q, basis=basis)
        alone_mu = assemble_R(*pair, -u, q, basis=basis)
        _same(r_u[s], alone_u.matrix)
        _same(r_mu[s], alone_mu.matrix)
        _same(prod[s], alone_u.matrix @ alone_mu.matrix)
        assert relations[s] == decomposed_residuals(alone_u)


def _stacked_kron(a, b):
    """The Kronecker product of each slice of two (S, d, d) stacks, every
    entry the one product a_ij * b_kl that np.kron forms."""
    p = a[:, :, None, :, None] * b[:, None, :, None, :]
    return p.reshape(len(p), a.shape[1] * b.shape[1], -1)


def _q_powers(weights, log_branch, a):
    """diag(q^{a w}) of the weights w at each log q of a stack: (S, d, d)."""
    return np.array([np.diag(row) for row in np.exp((a * weights) * log_branch[:, None])])


def _stacked_decomposed(space, us, r, gens, diagonal, swap=None):
    """The eight decomposed relations as verify._decomposed formed them
    before R was broadcast and the K operators were read from the factor
    bands: each relation X Y = Z W a slice of four stacked (S, 8, d, d)
    operands, the K operators from dense Kronecker products of the factor
    generators and powers, and one abs-max per distinct input.  ``swap``
    names a relation whose Y and Z trade places: a mutant, which a
    bit-for-bit comparison must tell from the real formulation wherever
    the two differ."""
    (sp1, sm1), (sp2, sm2) = (np.moveaxis(f.dense(), 1, 0) for f in space.factors)
    f1, f2 = space.factors
    lb = space.qs.log_branch
    qs_diag = _q_powers(space.weights, lb, 1)
    qu = np.exp(np.asarray(us, complex) * lb)[:, None, None]
    values = np.array([q.value for q in space.qs], complex)[:, None, None]
    c2 = (values - 1 / values) ** 2
    q1, q2 = ({a: _q_powers(f.weights, lb, a) for a in (1, -1)} for f in (f1, f2))
    plus_minus = _stacked_kron(q1[1], q2[-1])
    minus_plus = _stacked_kron(q1[-1], q2[1])
    c2_sm_sp = c2 * _stacked_kron(sm1, sp2)
    c2_sp_sm = c2 * _stacked_kron(sp1, sm2)
    qpm = qu * plus_minus + minus_plus / qu
    qmp = qu * minus_plus + plus_minus / qu
    k_pm, k_pm_bar = qpm - c2_sm_sp, qpm - c2_sp_sm
    k_mp, k_mp_bar = qmp - c2_sp_sm, qmp - c2_sm_sp
    sp, sm = gens
    c_mu, c_bar_u = np.moveaxis(sp[:, 1:3] @ sm[:, 1:3] + diagonal[:, None], 1, 0)
    sp_u, sp_mu, bsp_u, bsp_mu = np.moveaxis(sp, 1, 0)
    sm_u, sm_mu, bsm_u, bsm_mu = np.moveaxis(sm, 1, 0)
    relations = {
        "qs_commute": (r, qs_diag, qs_diag, r, (r, qs_diag)),
        "lower_twisted": (r, sm_u, bsm_mu, r, (r, sm_u, bsm_mu)),
        "raise_twisted": (r, sp_u, bsp_mu, r, (r, sp_u, bsp_mu)),
        "lower_twisted_bar": (r, bsm_u, sm_mu, r, (r, bsm_u, sm_mu)),
        "raise_twisted_bar": (r, bsp_u, sp_mu, r, (r, bsp_u, sp_mu)),
        "k_plus_minus": (r, k_pm, k_pm_bar, r, (r, k_pm)),
        "k_minus_plus": (r, k_mp, k_mp_bar, r, (r, k_mp)),
        "casimir_intertwine": (c_mu, r, r, c_bar_u, (r, c_mu, c_bar_u)),
    }
    if swap is not None:
        x, y, z, w, inputs = relations[swap]
        relations[swap] = (x, z, y, w, inputs)
    x, y, z, w = (np.stack(col, axis=1) for col in zip(*(rel[:4] for rel in relations.values())))
    gaps = np.abs(x @ y - z @ w).max(axis=(2, 3))
    distinct = {id(m): m for rel in relations.values() for m in rel[4]}
    column = {key: j for j, key in enumerate(distinct)}
    peaks = np.abs(np.stack(list(distinct.values()), axis=1)).max(axis=(2, 3))
    scales = np.stack([peaks[:, [column[id(m)] for m in rel[4]]].max(axis=1)
                       for rel in relations.values()], axis=1)
    return [dict(zip(relations, row)) for row in _relative(gaps, scales).tolist()]


def _residual_bits(rows):
    return [(list(row), np.array(list(row.values())).tobytes()) for row in rows]


@pytest.mark.parametrize("basis", ["orthonormal", "monomial", "xxx"])
@pytest.mark.parametrize("pair", PAIRS)
@pytest.mark.parametrize("count", [1, COUNT, 16])
def test_broadcast_decomposed_relations_equal_the_stacked_formulation(pair, basis, count):
    """verify._decomposed multiplies R by broadcast and takes one abs-max
    over a buffer of its operands; every residual, a NaN of R included,
    is bit for bit that of the eight relations stacked into four operands,
    and a mutant with two inputs of one relation swapped is told apart."""
    rational = basis == "xxx"
    rng = np.random.default_rng(count)
    qs, us = zip(*(_regular_point(*pair, rng, q=RATIONAL if rational else None)
                   for _ in range(count)))
    qs, us = _QStack.of(qs), list(us)
    space = ProductSpace.stack_of_spins(*pair, qs, "monomial" if rational else basis)
    r = _stacked_R(*pair, us, qs, space.spectral_form())
    gens = space.chain_pass(form=False, read=_decomposed_families(us))[1]
    diagonal = _casimir_diagonals(space.weights, qs)
    got = _decomposed(space, us, r, gens, diagonal)
    assert _residual_bits(got) == _residual_bits(_stacked_decomposed(space, us, r, gens, diagonal))
    # at q = 1 the barred and unbarred coproducts are the same bits, so the swap changes nothing
    mutant = _stacked_decomposed(space, us, r, gens, diagonal, swap="lower_twisted")
    assert (_residual_bits(mutant) == _residual_bits(got)) == rational

    # a space with S1+ scaled up: not an intertwiner's, but K-bar is then the largest
    # operand, and no relation's scale reads it
    f1, f2 = space.factors
    loud = ProductSpace(dataclasses.replace(f1, lift=f1.lift * 1e3), f2)
    assert _residual_bits(_decomposed(loud, us, r, gens, diagonal)) == _residual_bits(
        _stacked_decomposed(loud, us, r, gens, diagonal))

    # one NaN entry of R: every relation reads R, so every residual of its sample is NaN
    r = r.copy()
    r[count // 2, 1, 0] = np.nan
    got = _decomposed(space, us, r, gens, diagonal)
    assert _residual_bits(got) == _residual_bits(_stacked_decomposed(space, us, r, gens, diagonal))
    assert all(np.isnan(value) for value in got[count // 2].values())
    assert not any(np.isnan(value) for s, row in enumerate(got) if s != count // 2
                   for value in row.values())


@pytest.mark.parametrize("pair", PAIRS)
def test_rational_R_shares_one_form_across_the_stack(pair):
    points = _points(pair, 9, RATIONAL)
    qs, us = zip(*points)
    qs = _QStack.of(qs)
    space = ProductSpace.of_spins(*pair, RATIONAL, "monomial")
    r = _stacked_R(*pair, us, qs, space.spectral_form())
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
    qs = _QStack.of(qs)
    form = ProductSpace.stack_of_spins(*pair, qs, "orthonormal").spectral_form()
    eig = rop._eigenvalues(*pair, us, qs)
    r = rop._solve(*pair, us, qs, eig, form)
    for s in range(count):
        alone = dataclasses.replace(form, left=form.left[s:s + 1], right=form.right[s:s + 1])
        _same(r[s], rop._solve(*pair, us[s:s + 1], _QStack.of(qs[s:s + 1]), eig[s:s + 1],
                               alone)[0])


def _casimir_reports(space, sectors, delta_u, diagonal):
    """The tensor_casimir report of each sample of a pass, as tensor_casimir
    builds it from the arrays of _casimir_sectors."""
    (sp, sm), chains = delta_u, sectors
    f1, f2 = space.factors
    rows = _casimir_sectors(sp @ sm + diagonal, chains, space.layout.live, f1.ell, f2.ell,
                            space.qs)
    return [CasimirSpectrumReport([SectorEigenvalue(n, *entry) for n, entry
                                   in enumerate(zip(*(row[s].tolist() for row in rows)))])
            for s in range(len(space.qs))]


@pytest.mark.parametrize("pair", PAIRS)
def test_stacked_casimir_equals_each_sample_alone(pair):
    points = _points(pair, 13)
    run = _PairRun(points, None, frozenset({"casimir"}), *pair)
    sectors, (sp, sm) = run.chain_pass
    delta_u = (sp[:, 0], sm[:, 0])
    reports = _casimir_reports(run.space, sectors, delta_u, run.casimir_diagonal)
    worst = _casimir_residuals(run.space, sectors, delta_u, run.casimir_diagonal)
    for report, w, (q, u) in zip(reports, worst, points, strict=True):
        alone = tensor_casimir(ProductSpace.of_spins(*pair, q, "orthonormal"), u)
        assert report == alone
        assert (report.max_residual, report.max_m_spread) == (alone.max_residual,
                                                              alone.max_m_spread)
        assert w == _nan_max(alone.max_residual, alone.max_m_spread)


@pytest.mark.parametrize("count", [1, COUNT])
@pytest.mark.parametrize("pair", [(0.5, 0.5), (0.5, 1.0), (1.0, 1.0), (1.0, 1.5)])
def test_one_family_pass_equals_the_per_family_calls(pair, count):
    """A pass of Delta and Delta-bar at u = 0 and Delta at the samples' u,
    on stacked q, is bit for bit a call per family: its chains,
    its unit blocks, norms and condition numbers, its spectral form and
    its sectors, those of one q included; its Casimir reports are those of
    tensor_casimir, sample by sample."""
    points = _points(pair, 11)[:count]
    qs, us = zip(*points)
    qs, us = _QStack.of(qs), list(us)
    families = [("delta", [0.0] * count), ("deltabar", [0.0] * count), ("delta", us)]

    def space():
        return ProductSpace.stack_of_spins(*pair, qs, "orthonormal")

    stacked = space()
    chains = raised_chains(stacked, families)
    for f, family in enumerate(families):
        _same(chains[:, f], raised_chains(space(), [family])[:, 0])
    both = _unit_blocks(stacked.layout.cut(chains[:, [0, 2]]))
    for g, f in enumerate((0, 2)):
        alone = space()
        for got, want in zip(both, _unit_blocks(alone.layout.cut(chains[:, [f]]))):
            _same(got[:, g], want[:, 0])

    run = space()
    sectors, (sp, sm) = run.chain_pass(("delta", us), read=[("delta", us)])
    form, want_form = run.spectral_form(), space().spectral_form()
    for name in ("left", "right"):
        _same(getattr(form, name), getattr(want_form, name))
    _same(sectors, space().chain_pass(("delta", us), form=False)[0])
    reports = _casimir_reports(run, sectors, (sp[:, 0], sm[:, 0]),
                               _casimir_diagonals(run.weights, qs))
    for s, (q, u) in enumerate(points):
        one = ProductSpace.stack_of_spins(*pair, _QStack.of((q,)), "orthonormal")
        for got, want in zip(one.sectors(u), _sector_chains(sectors[s]), strict=True):
            _same(got, want)
        alone = tensor_casimir(ProductSpace.of_spins(*pair, q, "orthonormal"), u)
        assert _bits(reports[s]) == _bits(alone)


# ---------------------------------------------------------------------------
# the cyclic suites' stacked kernels against their stacks of one

def test_a_sector_pass_names_each_samples_worst_block(monkeypatch):
    """chain_pass tests the weight blocks of the sector family against
    COND_LIMIT sample by sample: a sample whose worst block is above the
    limit raises the SingularBasis of that block alone, the others nothing,
    and the stack raises that of its lowest failing sample."""
    qs, us = zip(*_points((1.0, 1.5), 21))
    qs, us = _QStack.of(qs), list(us)
    space = ProductSpace.stack_of_spins(1.0, 1.5, qs, "orthonormal")
    cond = _unit_blocks(space.layout.cut(raised_chains(space, [("delta", us)])))[2][:, 0]
    worst = cond.max(axis=1)
    limit = float(np.median(worst))
    monkeypatch.setattr(tensorrep, "COND_LIMIT", limit)
    failing = [s for s in range(COUNT) if worst[s] > limit]
    assert len(failing) == COUNT // 2
    for s, stack in [(failing[0], qs)] + [(s, _QStack.of(qs[s:s + 1])) for s in range(COUNT)]:
        at = us if len(stack) == COUNT else us[s:s + 1]
        one = ProductSpace.stack_of_spins(1.0, 1.5, stack, "orthonormal")
        if s not in failing:
            one.chain_pass(("delta", at), form=False)
            continue
        with pytest.raises(SingularBasis) as error:
            one.chain_pass(("delta", at), form=False)
        assert error.value.cond == worst[s]
        assert str(error.value) == str(space.layout.conditioning_error(cond[s], limit))


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
    residuals and closed-form errors, shift residuals, and the family
    ratios, closure defects and prefactors of the public functions."""
    points = _cyclic_points(n, 11 + n)
    pairs = cyclic._Pairs.of(*zip(*points))
    reps1, reps2 = cyclic._rep_bands(pairs.specs1), cyclic._rep_bands(pairs.specs2)
    bands = cyclic._sector_bands(reps1, reps2, pairs.us)
    central = cyclic._central_elements(pairs.specs1 + pairs.specs2, pairs.bands)
    powers = cyclic._tensor_power_reports(pairs)
    ratios, shifts = cyclic._shift_residuals(pairs)
    prefactors = cyclic._prefactors(pairs, np.arange(n))
    for s, (s1, s2, u) in enumerate(points):
        rep = build_cyclic_rep(s1)
        gens = reps1.dense()[s]
        for got, want in ((gens[0], rep.sp), (gens[1], rep.sm), (reps1.weights[s], rep.weights)):
            _same(got, want)
        alone1, alone2 = cyclic._rep_bands([s1]), cyclic._rep_bands([s2])
        _same(bands[s], cyclic._sector_bands(alone1, alone2, [u])[0])
        for row, spec in ((s, s1), (COUNT + s, s2)):
            alone = central_elements(spec, tol=np.inf)
            _same(central.scalars[row], [alone.alpha_plus, alone.alpha_minus, alone.qns_scalar])
            _same(central.offscalar_residuals[row].max(), alone.max_offscalar_residual)
            _same(central.routes[row], alone.alpha_minus_product_route)
        alone = tensor_power_scalars(s1, s2, u, tol=np.inf)
        for got, want in zip(powers, (alone.scalars, alone.offscalar_residuals,
                                      alone.closed_form_errors)):
            _same(got[s], list(want.values()))
        family = eigenstate_family(s1, s2, u, enforce=False)
        _same(ratios[s], [family.ratio, family.barred_ratio])
        _same(shifts[s].ravel(), list(family.shift_residuals.values()))
        for barred in (False, True):
            _same(family_ratio(s1, s2, u, barred), ratios[s, int(barred)])
        # the defects keep the power of a Python complex
        _same(family_closure_defect(s1, s2, u), [abs(complex(r) ** n - 1) for r in ratios[s]])
        for relation, want in zip(cyclic._RELATIONS, prefactors[s]):
            _same([shift_prefactor(relation, s1, s2, u, m) for m in range(n)], want)
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
        rs = _fundamental_rs(us, _QStack.of(stack))
        for s, (q, u) in enumerate(zip(stack, us)):
            _same(rs[s], fundamental_r(u, q))
            assert_close(rs[s], _scalar_fundamental_r(u, q))


@pytest.mark.parametrize("count", SIZES)
def test_stacked_lax_matrices_and_slots_equal_each_sample_alone(count):
    """Spin representations at the samples' own q, and one cyclic
    representation that every sample shares; then each Lax matrix on two of
    three tensor slots."""
    qs, us = _generic_points(count, 30 + count)
    fixed = build_cyclic_rep(SPEC5)
    for ell in (0.5, 1.0, 1.5):
        f = _spin_factors(ell, _QStack.of(qs), "monomial")
        gens = f.dense()
        laxes = _laxes(gens[:, 0], gens[:, 1], f.weights, us, f.qs)
        for s, (q, u) in enumerate(zip(qs, us)):
            rep = build_spin_rep(ell, q)
            _same(laxes[s], build_lax(rep, u))
            assert_close(laxes[s], _scalar_lax(rep, u))
    laxes = _laxes(fixed.sp, fixed.sm, fixed.weights, us, _QStack.of([fixed.q] * count))
    for s, u in enumerate(us):
        _same(laxes[s], build_lax(fixed, u))
        assert_close(laxes[s], _scalar_lax(fixed, u))
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
        assert _bits(got) == _bits(phi_product(alpha, q))
        assert_close(got, _scalar_phi_product(alpha, q))
    specs1, specs2, us = zip(*_cyclic_points(n, n + count, count))
    steps, vals = cyclic._eigenvalue_steps(cyclic._Pairs.of(specs1, specs2, us))
    for s, (s1, s2, u) in enumerate(zip(specs1, specs2, us)):
        step = q.pow(2 - u + s2.alpha - s2.beta - s1.lam)
        assert_close(steps[s], step)
        _same(vals[s], cyclic_R_eigenvalues(s1, s2, u))
        assert_close(vals[s], [step**m for m in range(n)])


def _conflicting(n, rng):
    """Coinciding families at u with distinct images at -u: partial R
    raises InconsistentConstraints at span rank N."""
    a1, a2 = (complex(rng.normal(0, 0.4), rng.normal(0, 0.4)) for _ in range(2))
    return CyclicRepSpec(a1, a1, 0.3j, n), CyclicRepSpec(a2, a2, 0.3j, n), 2.0 + 0j


@pytest.mark.parametrize("n", [3, 7, 19])
@pytest.mark.parametrize("count", SIZES)
def test_stacked_partial_r_equals_each_sample_alone(n, count):
    """Sector-local map, span rank, residual and eigenvalues of every
    sample; partial_R alone has R_m times the slice's map as its block m;
    the conflicting sample keeps the residual and rank that partial_R
    raises."""
    rng = np.random.default_rng(40 + count)
    points = [cyclic.sample_compatible_params(n, rng) for _ in range(count)]
    points[count // 2] = _conflicting(n, rng)
    solves = cyclic._partial_rs(cyclic._Pairs.of(*zip(*points)))
    idx = cyclic._sector_index(n)
    conflicts = 0
    for (got_local, got_r_m, got_rank, got_resid), (s1, s2, u) in zip(zip(*solves), points,
                                                                        strict=True):
        local, rank, resid, r_m = _scalar_partial_r(s1, s2, u)
        assert_close(got_local, local)
        assert_close(got_r_m, r_m)
        assert_close(got_resid, resid)
        assert got_rank == rank
        try:
            alone = partial_R(s1, s2, u)
        except InconsistentConstraints as exc:
            conflicts += 1
            assert (exc.span_rank, exc.residual) == (n, got_resid)
            continue
        _same(alone.matrix[idx[:, :, None], idx[:, None]], got_r_m[:, None, None] * got_local)
        _same(alone.eigenvalues, got_r_m)
        assert (alone.span_rank, alone.max_residual) == (2 * n, got_resid)
    assert conflicts == 1


def _guard_residuals(injected: dict, real, monkeypatch) -> None:
    """Make the off-scalar residuals of the centrality suite read
    ``injected[(kind, sample, entry)]``, whatever stacks the samples are
    evaluated in.  A stack's pass takes two scalar parts: the central
    elements of its 2 S representations (one block per matrix), rep 1 of
    every sample (kind 0) and then rep 2 (kind 1), entries S+, S-, q^{NS};
    then the tensor powers (N blocks, kind 2), entries sm_u, sp_u,
    sm_bar_u, sp_bar_u.  ``real`` is the unpatched scalar part."""
    seen = {"offset": 0}

    def fake(m):
        scalars, resids = real(m)
        central = m.shape[-3] == 1
        size = m.shape[0] // 2 if central else m.shape[0]
        for (kind, sample, entry), value in injected.items():
            row = sample - seen["offset"]
            if (kind < 2) == central and 0 <= row < size:
                resids[row + kind * size if central else row, entry] = value
        seen["offset"] += 0 if central else size
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


# [sample]: the values injected into its guards, (kind, entry) -> value; kind 0
# is rep 1's central elements and 1 rep 2's (entries S+, S-, q^{NS}), kind 2
# the tensor powers (sm_u, sp_u, sm_bar_u, sp_bar_u), kind 3 the closed-form
# errors (sm_u, sp_u)
_FOLD_INJECTIONS = (
    {},
    {(0, 0): np.nan},
    {(0, 2): 3.0},
    {(1, 1): np.nan},
    {(1, 0): 2.5},
    {(2, 0): np.nan},
    {(2, 1): 4.0},
    {(2, 2): np.nan},
    {(2, 3): 1.5},
    {(3, 0): np.nan},
    {(3, 1): np.nan, (1, 2): 0.5},
    {(2, 1): 6.0, (0, 1): np.nan},
    {(2, 2): 2.0, (2, 3): np.nan},
    {(0, 1): 1.0, (3, 0): 7.0},
    {(1, 2): 2.0, (2, 0): 3.0, (3, 1): np.nan},
    {(2, 3): np.nan},
)


def _inject_centrality(points, monkeypatch) -> None:
    """Make the central elements and tensor powers of every sample of
    ``points`` read its ``_FOLD_INJECTIONS``, in any stack, keyed by the
    specs of each row."""
    where = {id(spec): (kind, s) for s, point in enumerate(points)
             for kind, spec in enumerate(point[:2])}
    real_central, real_powers = cyclic._central_elements, cyclic._tensor_power_reports

    def central(specs, bands):
        out = real_central(specs, bands)
        for row, spec in enumerate(specs):
            kind, s = where[id(spec)]
            for (at, entry), value in _FOLD_INJECTIONS[s].items():
                if at == kind:
                    out.offscalar_residuals[row, entry] = value
        return out

    def powers(pairs):
        out = real_powers(pairs)
        for row, spec in enumerate(pairs.specs1):
            for (at, entry), value in _FOLD_INJECTIONS[where[id(spec)][1]].items():
                if at >= 2:
                    (out.offscalar_residuals, out.closed_form_errors)[at - 2][row, entry] = value
        return out

    monkeypatch.setattr(cyclic, "_central_elements", central)
    monkeypatch.setattr(cyclic, "_tensor_power_reports", powers)


def _centrality_fold(s1, s2, u) -> float:
    """Reference for the centrality residual of one sample: its kernels
    alone, folded by a loop over its guards, rep 1's, rep 2's, then sm_u,
    sp_u, sm_bar_u, sp_bar_u; the first failing guard (NaN or above 1),
    otherwise the NaN-keeping max of the guards, the cross-check of (S-)^N
    and the closed-form errors."""
    ce1, ce2 = (cyclic._central_elements([s], cyclic._rep_bands([s])) for s in (s1, s2))
    tp = cyclic._tensor_power_reports(cyclic._Pairs.of([s1], [s2], [u]))
    am = ce1.scalars[:, 1]
    cross = _relative(np.abs(am - ce1.routes), np.abs(am)).item()
    guards = [_nan_max(*ce1.offscalar_residuals[0].tolist()),
              _nan_max(*ce2.offscalar_residuals[0].tolist()), *tp.offscalar_residuals[0].tolist()]
    failed = [r for r in guards if not r <= 1.0]
    return failed[0] if failed else _nan_max(*guards, cross, *tp.closed_form_errors[0].tolist())


@pytest.mark.parametrize("n", [3, 7])
def test_the_centrality_fold_is_the_per_sample_fold(n, monkeypatch):
    """A NaN or a value above 1 in each guard, and a NaN in a closed-form
    error: the suite's array fold over its stacked pass gives every sample
    the residual of the per-sample loop, bit for bit."""
    points = _cyclic_points(n, 31 + n, count=len(_FOLD_INJECTIONS))
    _inject_centrality(points, monkeypatch)
    got = check_cyclic_centrality.suite(n, ToleranceConfig()).evaluate(points)
    want = [_centrality_fold(*point) for point in points]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    nan = np.nan
    np.testing.assert_array_equal(got[1:], [nan, 3.0, nan, 2.5, nan, 4.0, nan, 1.5, nan, nan,
                                            nan, 2.0, 7.0, 2.0, nan])
    assert got[0] < 1e-9


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
    monkeypatch.setattr(tensorrep, "COND_LIMIT", 1.0)
    _spin_space.cache_clear()  # a form built at the default limit would serve both
    want = _first_error(lambda u: assemble_R(0.5, 0.5, u, mode="xxx"), [(0.3 + 0.2j,)])
    assert want.startswith("SingularBasis")
    with pytest.raises(QybeError) as exc:
        check_unitarity(0.5, 0.5, ToleranceConfig(sample_count=3, rng_seed=2), q=RATIONAL)
    assert f"{type(exc.value).__name__}: {exc.value}" == want


@pytest.mark.parametrize("q", [None, RATIONAL], ids=["xxz", "xxx"])
def test_a_drawn_pair_point_has_no_pole_at_u_or_minus_u(q):
    """A spin-pair run raises a pole of R(-u) before the form's error, where
    assemble_R at u, then at -u, raises the form's error first; no drawn
    sample tells the two apart.  Every denominator [x + u] of R(u) and
    [x - u] of R(-u), computed as rop._eigenvalues computes them, is above
    0.05 at every draw of every golden pair for seeds 0-11, at a drawn q
    and at RATIONAL, far from POLE_TOL."""
    for ell1, ell2 in cli.GOLDEN_PAIRS:
        x = np.array(rop._pole_offsets(ell1, ell2))
        for seed in range(12):
            rng = ToleranceConfig(rng_seed=seed).rng()
            points = [verify._pair_point(rng, i, ell1, ell2, q) for i in range(verify._STACK_SIZE)]
            qs, us = zip(*points)
            u = np.array(us, complex)[:, None]
            den = _qnums(np.concatenate([x + u, x - u], axis=1), _QStack.of(qs))
            assert np.abs(den).min() > 0.05 > rop.POLE_TOL


def test_a_casimir_failure_of_a_shared_pass_leaves_the_other_suites_alone(monkeypatch):
    """The Casimir sector family of each golden pair's pass fails here, a
    lowest weight corrupted in every pass of more than one sample, so the
    pass raises in each of the pair's suites.  Each replays the run one
    sample at a time, where nothing fails, and reports what it reports
    alone; the timings mark exactly those runs as replayed."""
    cfg = ToleranceConfig(sample_count=5, rng_seed=5)
    alone = {report.identity_id: report.to_dict() for suite in ("ybe", "unitarity", "casimir")
             for report in cli._run_suite(suite, cfg, 3, 0.0)}
    lowest = tensorrep._lowest_weights
    several = True  # whether a stack of one sample is corrupted too

    def corrupted(ell1, ell2, us, signs, qs, d1, d2, count):
        # the family at the samples' u, not the form's at u = 0
        broken = (us != 0).all(axis=0) & (len(us) > 1 or not several)
        return lowest(ell1, ell2, us, signs, qs, d1, d2, count) + broken[None, :, None, None]

    monkeypatch.setattr(tensorrep, "_lowest_weights", corrupted)
    chain_pass = ProductSpace.chain_pass
    shared_passes = []

    def counting_pass(self, *args, **kwargs):
        if len(self.qs) > 1:
            shared_passes.append(self.dims)
        return chain_pass(self, *args, **kwargs)

    monkeypatch.setattr(ProductSpace, "chain_pass", counting_pass)
    timings = {}
    inside = {report.identity_id: report.to_dict()
              for report in cli._run_suite("all", cfg, 3, 0.0, timings)}
    assert {name: inside[name] for name in alone} == alone
    replayed = {row["suite"] for row in timings["runs"] if row["replayed"]}
    assert replayed == {f"{name}({l1},{l2})" for l1, l2 in cli.GOLDEN_PAIRS
                        for name in ("decomposed[{}]", "unitarity[xxz]", "casimir_spectrum")}
    # the shared view of each golden pair keeps no failed pass: each of the
    # three suites that reads it makes its own before it replays the run
    assert shared_passes == [(int(2 * l1 + 1), int(2 * l2 + 1)) for l1, l2 in cli.GOLDEN_PAIRS
                             for _ in range(3)]

    # where the Casimir family fails alone too, a replay of the decomposed
    # suite still builds what that suite reads, and no Casimir sectors
    several = False
    suites = [build.suite(1.0, 1.0, cfg) for build in (check_decomposed_ybe,
                                                        check_casimir_spectrum)]
    rng = cfg.rng()
    points = [verify._pair_point(rng, i, 1.0, 1.0, None) for i in range(5)]
    records = [verify._q_record(point) for point in points]
    decomposed, casimir = [], []
    assert verify._replay(suites[0], points, records, suites[0].params, decomposed) is None
    assert decomposed == suites[0].evaluate(_PairRun(points, records, frozenset({"decomposed"}),
                                                     *suites[0].params))
    error = verify._replay(suites[1], points, records, suites[1].params, casimir)
    assert isinstance(error, CompletenessFailure) and casimir == []


@pytest.mark.parametrize("suite,order,count,seeds", [
    ("all", 3, 5, range(12)), ("all", 3, verify._STACK_SIZE + 1, [7]),
    ("cyclic", 3, 10, [7]), ("cyclic", 7, 10, [7]), ("cyclic", 19, 10, [7])])
def test_passing_runs_make_no_replay(suite, order, count, seeds):
    for seed in seeds:
        timings = {}
        cli._run_suite(suite, ToleranceConfig(sample_count=count, rng_seed=seed), order, 0.0,
                       timings)
        assert timings["runs"] and not any(row["replayed"] for row in timings["runs"])


SUITES = {
    "decomposed": lambda cfg: check_decomposed_ybe(0.5, 1.0, cfg),
    "unitarity[xxz]": lambda cfg: [check_unitarity(1.0, 1.0, cfg)],
    "unitarity[xxx]": lambda cfg: [check_unitarity(0.5, 0.5, cfg, q=RATIONAL)],
    "casimir_spectrum": lambda cfg: [check_casimir_spectrum(0.5, 1.0, cfg)],
    "cyclic_centrality": lambda cfg: [check_cyclic_centrality(7, cfg)],
    "shift_laws": lambda cfg: [check_shift_laws(7, cfg)],
    "fundamental_ybe[xxz]": lambda cfg: [check_fundamental_ybe(cfg)],
    "fundamental_ybe[xxx]": lambda cfg: [check_fundamental_ybe(cfg, q=RATIONAL)],
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
    suites, so b's error is raised.  Each failing run is replayed up to its
    first sample, which fails too."""
    evaluated = []
    other = ToleranceConfig(sample_count=5, rng_seed=2)
    with pytest.raises(_Forced, match="b"):
        _run([_suite("a", _zeros), _suite("b", _failing("b", evaluated), cfg=other),
              _suite("c", _failing("c", evaluated))])
    assert evaluated == ["c", "c", "b", "b"]


def test_a_draw_error_of_another_type_is_raised_at_its_first_reader():
    """An error that is no sampler's, raised in a draw, is raised at the
    place of the first suite that reads the stream, which evaluates
    nothing; an earlier suite's error still comes first.  Each failing run
    is replayed up to its first sample, which fails too."""
    evaluated = []

    def draw(rng, i):
        if i == 2:
            raise RuntimeError("draw")
        return i

    reader = _failing("reader", evaluated)
    with pytest.raises(RuntimeError, match="draw"):
        _run([_suite("a", _zeros), _suite("b", reader, draw), _suite("c", _failing("c", evaluated))])
    assert evaluated == ["c", "c"]
    with pytest.raises(_Forced, match="a"):
        _run([_suite("a", _failing("a", evaluated)), _suite("b", reader, draw)])
    assert evaluated == ["c", "c", "a", "a"]


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
    init = ProductSpace.__init__

    def spying_init(self, *args):
        init(self, *args)
        if not self.qs.rational:
            built.append(weakref.ref(self))

    monkeypatch.setattr(ProductSpace, "__init__", spying_init)
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
    for name in ("_decomposed", "_casimir_residuals", "_solve"):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name,
                            lambda *args, _name=name, _real=real: calls.append(_name) or _real(*args))
    cli._run_suite(suite, ToleranceConfig(sample_count=5, rng_seed=5), 3, 0.0)
    assert len(built) == 3
    want = {"ybe": {"_decomposed": 3, "_solve": 3},
            "unitarity": {"_solve": 3 + 1},
            "casimir": {"_casimir_residuals": 3}}[suite]
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

    def failing_casimir(space, sectors, delta_u, diagonal):
        calls.append(len(diagonal))  # one Casimir diagonal per sample of the run
        if len(calls) == 2:  # the second run of the first pair
            raise _Forced("casimir")
        return real_casimir(space, sectors, delta_u, diagonal)

    real_casimir = verify._casimir_residuals
    monkeypatch.setattr(verify, "_casimir_residuals", failing_casimir)
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
    elif isinstance(obj, ProductSpace):
        yield from _arrays(vars(obj))


def test_equal_spins_share_one_factor_representation():
    qs, _ = zip(*_points((1.0, 1.0), 3))
    qs = _QStack.of(qs)
    f1, f2 = ProductSpace.stack_of_spins(1.0, 1 + 0j, qs, "orthonormal").factors
    assert f1 is f2
    f1, f2 = ProductSpace.stack_of_spins(0.5, 1.0, qs, "orthonormal").factors
    assert f1.weights.size == 2 and f2.weights.size == 3


def test_writing_to_any_memoised_array_raises():
    """The suites of a pass share one stack, so no suite may write to it."""
    qs, us = zip(*_points((1.0, 1.5), 3))
    stack = ProductSpace.stack_of_spins(1.0, 1.5, _QStack.of(qs), "orthonormal")
    stack.spectral_form()
    stack.chain_pass(form=False, read=[("delta", us)])
    arrays = list(_arrays(stack))
    # factors, log q, weights, from_monomial, q-powers, pieces, form and layout
    assert len(arrays) > 30
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0
