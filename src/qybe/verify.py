"""Identity-verification suites producing residual reports.

Residuals are max-absolute-entry differences, scale-normalized by the
largest entry among the inputs, so a verdict is meaningful regardless of
how big the sampled matrices get.  Every report is reproducible from its
identity id and the seed in its tolerance configuration.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import cyclic as cy
from .qcore import (MAX_DRAWS, RATIONAL, DeformationParameter, ToleranceConfig, _nan_max,
                    phi_product, qnum, residual, sample_generic_q, sample_params, sample_u)
from .rep import build_lax, build_spin_rep, casimir_diagonal, fundamental_r
from .rop import RMatrix, _top_sector, assemble_R, eigenvalue_sequence
from .errors import (InconsistentConstraints, NotScalar, ParameterDomainError, PoleAtSector,
                     SamplerExhausted)
from .tensorrep import ProductSpace, kron, tensor_casimir


@dataclasses.dataclass(frozen=True)
class ResidualReport:
    identity_id: str
    samples: tuple
    max_residual: float
    tolerance: float
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return math.isfinite(self.max_residual) and self.max_residual < self.tolerance

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict:
        return {
            "identity_id": self.identity_id,
            "samples": list(self.samples),
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "seed": self.seed,
        }

    def line(self) -> str:
        return f"[{self.verdict.upper():4s}] {self.identity_id}: max residual " \
               f"{self.max_residual:.3e} (tol {self.tolerance:g})"


def _c2l(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _sampled(identity_id: str, cfg: ToleranceConfig, tol: float, one,
             count: int | None = None):
    """The sampling loop behind every suite.

    ``one(rng, i)`` draws sample i from the generator seeded by ``cfg`` and
    returns its JSON record and its residual.  Residuals fold with a
    NaN-keeping max, so a non-finite one fails the report.  When ``one``
    returns a dict of named residuals instead, each name gets its own
    report, with the name put in place of ``{}`` in ``identity_id``, and a
    list of reports comes back.
    """
    count = cfg.sample_count if count is None else count
    if count < 1:
        raise ParameterDomainError("a suite needs at least one sample")
    rng = cfg.rng()
    samples, worst = [], {}
    for i in range(count):
        record, res = one(rng, i)
        for name, r in (res.items() if isinstance(res, dict) else [(None, res)]):
            worst[name] = _nan_max(worst.get(name, 0.0), r)
        samples.append(record)
    reports = [ResidualReport(identity_id.format(name), tuple(samples), w, tol, cfg.rng_seed)
               for name, w in worst.items()]
    return reports if isinstance(res, dict) else reports[0]


def _regular_point(ell1, ell2, rng, min_gap: float = 0.05, mode: str = "xxz"):
    """A sampled (q, u) with all eigenvalue denominators away from poles.

    In the rational mode ("xxx") q is :data:`qcore.RATIONAL`, where the
    denominators are plain numbers, and only u is drawn.
    """
    big_l = ell1 + ell2 + 1
    # every pole gap [l1+l2+1-n +- u], n = 1..top, in one array
    n = np.arange(1, _top_sector(ell1, ell2) + 1)
    for _ in range(MAX_DRAWS):
        q = RATIONAL if mode == "xxx" else sample_generic_q(rng)
        u = sample_u(rng)
        if (np.abs(qnum(np.add.outer(big_l - n, (u, -u)), q)) > min_gap).all():
            return q, u
    what = "regular rational u" if mode == "xxx" else "regular (q, u)"
    raise SamplerExhausted(f"{what} for spins ({ell1}, {ell2})", MAX_DRAWS)


# ---------------------------------------------------------------------------
# embeddings

def _on_slots(op: np.ndarray, dims: tuple[int, int, int], slots: tuple[int, int]) -> np.ndarray:
    """Put ``op``, acting on factors ``slots`` (in that order), on the
    three-fold product of dimensions ``dims``, as the identity on the third.

    Every entry is one product op_ij * 1 or op_ij * 0, so it equals the
    entry that ``kron`` forms (a zero may differ in sign).
    """
    a, b = slots
    c = 3 - a - b
    t = (op.reshape(dims[a], dims[b], 1, dims[a], dims[b], 1)
         * np.eye(dims[c]).reshape(1, 1, dims[c], 1, 1, dims[c]))
    perm = [(a, b, c).index(s) for s in range(3)]
    d = dims[0] * dims[1] * dims[2]
    return t.transpose(*perm, *(p + 3 for p in perm)).reshape(d, d)


def check_fundamental_ybe(cfg: ToleranceConfig | None = None, mode: str = "xxz",
                          points: list | None = None,
                          perturb: float = 0.0) -> ResidualReport:
    """Braid-form identity R12(u-v) R13(u) R23(v) = R23(v) R13(u) R12(u-v)."""
    cfg = cfg or ToleranceConfig()

    def one(rng, i):
        if points is None:
            q = RATIONAL if mode == "xxx" else sample_generic_q(rng)
            u, v = sample_u(rng), sample_u(rng)
        else:
            q, u, v = points[i]
        r12 = fundamental_r(u - v, q)
        if perturb:
            r12 = r12.copy()
            r12[0, 1] += perturb
        m12 = _on_slots(r12, (2, 2, 2), (0, 1))
        m13 = _on_slots(fundamental_r(u, q), (2, 2, 2), (0, 2))
        m23 = _on_slots(fundamental_r(v, q), (2, 2, 2), (1, 2))
        lhs = m12 @ m13 @ m23
        rhs = m23 @ m13 @ m12
        return ({"q": None if mode == "xxx" else _c2l(q.value), "u": _c2l(u), "v": _c2l(v)},
                residual(lhs, rhs, m12, m13, m23))

    return _sampled(f"fundamental_ybe[{mode}]", cfg,
                    cfg.abs_tol / 100 if mode == "xxx" else cfg.abs_tol,
                    one, None if points is None else len(points))


def check_rll(quantum, cfg: ToleranceConfig | None = None) -> ResidualReport:
    """R12(u-v) L1(u) L2(v) = L2(v) L1(u) R12(u-v) on aux x aux x quantum.

    ``quantum`` is either a half-integer spin or a :class:`CyclicRepSpec`.
    """
    cfg = cfg or ToleranceConfig()
    # a cyclic quantum space is one fixed representation for every sample
    fixed = cy.build_cyclic_rep(quantum) if isinstance(quantum, cy.CyclicRepSpec) else None

    def one(rng, i):
        if fixed is None:
            q = sample_generic_q(rng)
            rep = build_spin_rep(quantum, q)
        else:
            q, rep = fixed.q, fixed
        u, v = sample_u(rng), sample_u(rng)
        dims = (2, 2, rep.dim)
        l1 = _on_slots(build_lax(rep, u), dims, (0, 2))
        l2 = _on_slots(build_lax(rep, v), dims, (1, 2))
        r12 = _on_slots(fundamental_r(u - v, q), dims, (0, 1))
        lhs = r12 @ l1 @ l2
        rhs = l2 @ l1 @ r12
        return ({"q": _c2l(q.value), "u": _c2l(u), "v": _c2l(v)},
                residual(lhs, rhs, r12, l1, l2))

    if fixed is not None:
        return _sampled(f"rll[cyclic N={quantum.n}]", cfg, cfg.rel_tol, one)
    return _sampled(f"rll[spin {quantum}]", cfg, cfg.abs_tol, one)


# ---------------------------------------------------------------------------
# decomposed relations for an assembled R

def decomposed_residuals(rm: RMatrix, basis: str | None = None) -> dict[str, float]:
    """Residuals of the eight relations an intertwining R must satisfy, on
    the :class:`ProductSpace` of R's spins in ``basis`` (R's own basis by
    default).

    Each relation X Y = Z W is one slice of a stacked matmul pair, and each
    distinct input gets one abs-max.  :func:`qcore.residual` of those
    abs-maxima equals ``residual(X @ Y, Z @ W, *inputs)`` exactly.
    """
    q = rm.q
    u = rm.u
    space = ProductSpace.of_spins(rm.ell1, rm.ell2, q, basis or rm.basis_tag)
    rep1, rep2 = space.parents
    cop_u = space.coproduct("delta", u)
    cop_mu = space.coproduct("delta", -u)
    bar_u = space.coproduct("deltabar", u)
    bar_mu = space.coproduct("deltabar", -u)
    r = rm.matrix
    qs = cop_u.qs(1)

    qu = q.pow(u)
    c2 = (q.value - 1 / q.value) ** 2
    plus_minus = kron(rep1.qs(1), rep2.qs(-1))
    minus_plus = kron(rep1.qs(-1), rep2.qs(1))
    c2_sm_sp = c2 * kron(rep1.sm, rep2.sp)
    c2_sp_sm = c2 * kron(rep1.sp, rep2.sm)
    qpm = qu * plus_minus + minus_plus / qu
    qmp = qu * minus_plus + plus_minus / qu
    k_pm, k_pm_bar = qpm - c2_sm_sp, qpm - c2_sp_sm
    k_mp, k_mp_bar = qmp - c2_sp_sm, qmp - c2_sm_sp
    c_mu, c_bar_u = (np.matmul([cop_mu.sp, bar_u.sp], [cop_mu.sm, bar_u.sm])
                     + casimir_diagonal(space.weights, q))

    # name: (X, Y, Z, W, inputs) for the relation X Y = Z W
    relations = {
        "qs_commute": (r, qs, qs, r, (r, qs)),
        "lower_twisted": (r, cop_u.sm, bar_mu.sm, r, (r, cop_u.sm, bar_mu.sm)),
        "raise_twisted": (r, cop_u.sp, bar_mu.sp, r, (r, cop_u.sp, bar_mu.sp)),
        "lower_twisted_bar": (r, bar_u.sm, cop_mu.sm, r, (r, bar_u.sm, cop_mu.sm)),
        "raise_twisted_bar": (r, bar_u.sp, cop_mu.sp, r, (r, bar_u.sp, cop_mu.sp)),
        "k_plus_minus": (r, k_pm, k_pm_bar, r, (r, k_pm)),
        "k_minus_plus": (r, k_mp, k_mp_bar, r, (r, k_mp)),
        "casimir_intertwine": (c_mu, r, r, c_bar_u, (r, c_mu, c_bar_u)),
    }
    x, y, z, w = (np.array(col) for col in zip(*(rel[:4] for rel in relations.values())))
    gaps = np.abs(x @ y - z @ w).max(axis=(1, 2))
    distinct = {id(m): m for rel in relations.values() for m in rel[4]}
    peaks = dict(zip(distinct, np.abs(np.array(list(distinct.values()))).max(axis=(1, 2))))
    # the residual of the abs-maxima is the residual of the matrices
    return {name: residual(gap, 0.0, *(peaks[id(m)] for m in rel[4]))
            for (name, rel), gap in zip(relations.items(), gaps)}


def check_decomposed_ybe(ell1, ell2, cfg: ToleranceConfig | None = None,
                         perturb: float = 0.0) -> list[ResidualReport]:
    """All eight decomposed relations over sampled (q, u) points, in the
    orthonormal basis."""
    cfg = cfg or ToleranceConfig()

    def one(rng, i):
        q, u = _regular_point(ell1, ell2, rng)
        rm = assemble_R(ell1, ell2, u, q)
        if perturb:
            m = rm.matrix.copy()
            m[0, 1] += perturb
            rm = dataclasses.replace(rm, matrix=m)
        return {"q": _c2l(q.value), "u": _c2l(u)}, decomposed_residuals(rm)

    return _sampled(f"decomposed[{{}}]({ell1},{ell2})", cfg, cfg.abs_tol, one)


def check_unitarity(ell1, ell2, cfg: ToleranceConfig | None = None, mode: str = "xxz",
                    perturb: float = 0.0) -> ResidualReport:
    """R(u) R(-u) = 1 with unit normalization of the sector-0 eigenvalue.

    R(u) and R(-u) share the memoised :class:`ProductSpace` of their q, in
    the orthonormal basis at a sampled q and the monomial one at q = 1.
    """
    cfg = cfg or ToleranceConfig()
    basis = "monomial" if mode == "xxx" else "orthonormal"

    def one(rng, i):
        q, u = _regular_point(ell1, ell2, rng, mode=mode)
        r_u, r_mu = (assemble_R(ell1, ell2, x, q, basis=basis) for x in (u, -u))
        m = r_u.matrix.copy()
        if perturb:
            m[0, 1] += perturb
        prod = m @ r_mu.matrix
        return ({"q": None if mode == "xxx" else _c2l(q.value), "u": _c2l(u)},
                residual(prod, np.eye(prod.shape[0]), prod))

    return _sampled(f"unitarity[{mode}]({ell1},{ell2})", cfg, cfg.rel_tol, one)


def check_branch_independence(ell1, ell2, cfg: ToleranceConfig | None = None) -> ResidualReport:
    """Eigenvalue ratios are unchanged when log q moves by 2 pi i at fixed
    spectral power q^u (sampled on and off the unit circle).

    On the shifted branch the spectral parameter u log q / (log q + 2 pi i)
    keeps q^u fixed; only the spin-related powers of q move.
    """
    cfg = cfg or ToleranceConfig()

    def one(rng, i):
        for _ in range(MAX_DRAWS):
            q = sample_generic_q(rng, on_circle=(i % 2 == 0))
            u = sample_u(rng)
            shifted_q = q.with_branch_shift(1)
            shifted_u = u * q.log_branch / shifted_q.log_branch
            try:
                base = np.array(eigenvalue_sequence(ell1, ell2, u, q).ratios)
                shifted = np.array(eigenvalue_sequence(ell1, ell2, shifted_u, shifted_q).ratios)
                break
            except PoleAtSector:
                continue
        else:
            raise SamplerExhausted(f"pole-free (q, u) for spins ({ell1}, {ell2})", MAX_DRAWS)
        return ({"q": _c2l(q.value), "u": _c2l(u),
                 "on_circle": bool(abs(abs(q.value) - 1) < 1e-12)},
                residual(base, shifted, base))

    return _sampled(f"branch_independence({ell1},{ell2})", cfg, cfg.abs_tol, one)


def check_casimir_spectrum(ell1, ell2, cfg: ToleranceConfig | None = None) -> ResidualReport:
    """Sector eigenvalues [n-l1-l2][n-l1-l2-1] with m-degeneracy across
    chains, in the orthonormal basis."""
    cfg = cfg or ToleranceConfig()

    def one(rng, i):
        q, u = _regular_point(ell1, ell2, rng)
        space = ProductSpace.of_spins(ell1, ell2, q, "orthonormal")
        report = tensor_casimir(space, u)
        return ({"q": _c2l(q.value), "u": _c2l(u)},
                _nan_max(report.max_residual, report.max_m_spread))

    return _sampled(f"casimir_spectrum({ell1},{ell2})", cfg, cfg.abs_tol, one)


# ---------------------------------------------------------------------------
# root-of-unity suites

def check_cyclic_centrality(n: int, cfg: ToleranceConfig | None = None) -> ResidualReport:
    """Off-scalar residuals of (S+-)^N and q^{NS} on single and tensor reps.

    An off-scalar residual that the guards of :func:`cyclic.central_elements`
    and :func:`cyclic.tensor_power_scalars` reject (a NaN, or one above 1)
    is the sample's residual, so it fails the report.  Each sample builds
    its two representations once and shares them with both.
    """
    cfg = cfg or ToleranceConfig()

    def one(rng, i):
        p1 = sample_params(rng, 3)
        p2 = sample_params(rng, 3)
        u = sample_u(rng, scale=0.6)
        record = {"params1": [_c2l(z) for z in p1],
                  "params2": [_c2l(z) for z in p2], "u": _c2l(u)}
        s1 = cy.CyclicRepSpec(*p1, n)
        s2 = cy.CyclicRepSpec(*p2, n)
        rep1, rep2 = cy.build_cyclic_rep(s1), cy.build_cyclic_rep(s2)
        try:
            ce1 = cy.central_elements(s1, tol=1.0, rep=rep1)
            ce2 = cy.central_elements(s2, tol=1.0, rep=rep2)
            tp = cy.tensor_power_scalars(s1, s2, u, tol=1.0, reps=(rep1, rep2))
        except NotScalar as exc:
            return record, exc.residual
        return record, _nan_max(ce1.max_offscalar_residual, ce2.max_offscalar_residual,
                                tp.max_offscalar_residual,
                                residual(ce1.alpha_minus, ce1.alpha_minus_product_route,
                                         ce1.alpha_minus),
                                *tp.closed_form_errors.values())

    return _sampled(f"cyclic_centrality[N={n}]", cfg, cfg.abs_tol, one)


def check_phi_identity(n: int, cfg: ToleranceConfig | None = None,
                       count: int = 20) -> ResidualReport:
    """q-number product over a full period equals its two-term closed form."""
    cfg = cfg or ToleranceConfig()
    q = DeformationParameter.root_of_unity(n)

    def one(rng, i):
        alpha = complex(rng.normal(0, 0.6), rng.normal(0, 0.6))
        return {"alpha": _c2l(alpha)}, phi_product(alpha, q).residual

    return _sampled(f"phi_product[N={n}]", cfg, cfg.abs_tol, one, count)


def check_shift_laws(n: int, cfg: ToleranceConfig | None = None) -> ResidualReport:
    """All 4N shift relations at random draws from the admissible parameter set."""
    cfg = cfg or ToleranceConfig()

    def one(rng, i):
        s1, s2, u = cy.sample_compatible_params(n, rng)
        fam = cy.eigenstate_family(s1, s2, u, enforce=False)
        return ({"u": _c2l(u), "alpha1": _c2l(s1.alpha), "beta2": _c2l(s2.beta)},
                _nan_max(*fam.shift_residuals.values()))

    return _sampled(f"shift_laws[N={n}]", cfg, cfg.rel_tol, one)


def check_cyclic_r_ratio(n: int, cfg: ToleranceConfig | None = None) -> ResidualReport:
    """Consecutive cyclic eigenvalues have the constant ratio
    q^{2 - u + alpha2 - beta2 - lam1}."""
    cfg = cfg or ToleranceConfig()
    q = DeformationParameter.root_of_unity(n)

    def one(rng, i):
        s1 = cy.CyclicRepSpec(*sample_params(rng, 3), n)
        s2 = cy.CyclicRepSpec(*sample_params(rng, 3), n)
        u = sample_u(rng, scale=0.6)
        vals = cy.cyclic_R_eigenvalues(s1, s2, u)
        step = q.pow(2 - u + s2.alpha - s2.beta - s1.lam)
        return {"u": _c2l(u)}, residual(vals[1:] / vals[:-1], step, step)

    return _sampled(f"cyclic_r_ratio[N={n}]", cfg, cfg.abs_tol, one)


def check_partial_r(n: int, cfg: ToleranceConfig | None = None) -> ResidualReport:
    """Partial R reproduces its defining action on every family vector; a
    conflicting sample keeps its residual, so the suite's tolerance decides."""
    cfg = cfg or ToleranceConfig()

    def one(rng, i):
        s1, s2, u = cy.sample_compatible_params(n, rng)
        try:
            pr = cy.partial_R(s1, s2, u)
        except InconsistentConstraints as exc:
            return {"u": _c2l(u), "span_rank": exc.span_rank}, exc.residual
        return {"u": _c2l(u), "span_rank": pr.span_rank}, pr.max_residual

    return _sampled(f"partial_r[N={n}]", cfg, cfg.rel_tol, one)
