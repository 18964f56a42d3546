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
from .qcore import (MAX_DRAWS, DeformationParameter, ToleranceConfig, _nan_max,
                    phi_product, qnum, sample_generic_q, sample_params, sample_u)
from .rep import build_lax, build_spin_rep, fundamental_r, fundamental_r_rational
from .rop import RMatrix, assemble_R, assemble_R_pair, eigenvalue_ratios
from .errors import PoleAtSector, SamplerExhausted
from .tensorrep import ProductSpace, casimir_matrix, kron, tensor_casimir


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


def residual(lhs: np.ndarray, rhs: np.ndarray, *inputs: np.ndarray) -> float:
    """Infinity-norm difference normalized by the largest input entry."""
    scale = max([1.0] + [np.abs(m).max() for m in inputs])
    return float(np.abs(lhs - rhs).max() / scale)


# ---------------------------------------------------------------------------
# embeddings

def embed_two_site(r4: np.ndarray, pos: str, dim3: int = 2) -> np.ndarray:
    """Embed a 4x4 two-site matrix into C2 x C2 x C^dim3 at the named slots."""
    if pos == "12":
        return kron(r4, np.eye(dim3))
    if pos == "23":
        return kron(np.eye(2), r4)
    if pos == "13":
        r = r4.reshape(2, 2, 2, 2)
        m = np.einsum("acbd,ef->aecbfd", r, np.eye(2)).reshape(8, 8)
        return m
    raise ValueError(pos)


def check_fundamental_ybe(cfg: ToleranceConfig | None = None, mode: str = "xxz",
                          points: list | None = None, perturb: float = 0.0,
                          tolerance: float | None = None) -> ResidualReport:
    """Braid-form identity R12(u-v) R13(u) R23(v) = R23(v) R13(u) R12(u-v)."""
    cfg = cfg or ToleranceConfig()
    tol = tolerance if tolerance is not None else (1e-12 if mode == "xxx" else cfg.abs_tol)
    rng = cfg.rng()
    samples, worst = [], 0.0
    for i in range(cfg.sample_count if points is None else len(points)):
        if points is None:
            q = None if mode == "xxx" else sample_generic_q(rng)
            u, v = sample_u(rng), sample_u(rng)
        else:
            q, u, v = points[i]
        def r_of(w):
            return fundamental_r_rational(w) if mode == "xxx" else fundamental_r(w, q)
        r12 = r_of(u - v)
        if perturb:
            r12 = r12.copy()
            r12[0, 1] += perturb
        m12 = embed_two_site(r12, "12")
        m13 = embed_two_site(r_of(u), "13")
        m23 = embed_two_site(r_of(v), "23")
        lhs = m12 @ m13 @ m23
        rhs = m23 @ m13 @ m12
        worst = _nan_max(worst, residual(lhs, rhs, m12, m13, m23))
        samples.append({"q": None if q is None else _c2l(q.value),
                        "u": _c2l(u), "v": _c2l(v)})
    return ResidualReport(f"fundamental_ybe[{mode}]", tuple(samples), worst, tol, cfg.rng_seed)


def _embed_lax(lax: np.ndarray, slot: int, dim: int) -> np.ndarray:
    """Put an (aux x quantum) Lax matrix on auxiliary slot 1 or 2 of
    C2 x C2 x C^dim."""
    spec = "akbl,cd->ackbdl" if slot == 1 else "akbl,cd->cakdbl"
    return np.einsum(spec, lax.reshape(2, dim, 2, dim), np.eye(2)).reshape(4 * dim, 4 * dim)


def check_rll(quantum, cfg: ToleranceConfig | None = None,
              tolerance: float | None = None) -> ResidualReport:
    """R12(u-v) L1(u) L2(v) = L2(v) L1(u) R12(u-v) on aux x aux x quantum.

    ``quantum`` is either a half-integer spin or a :class:`CyclicRepSpec`.
    """
    cfg = cfg or ToleranceConfig()
    rng = cfg.rng()
    cyclic_space = isinstance(quantum, cy.CyclicRepSpec)
    tol = tolerance if tolerance is not None else (1e-9 if cyclic_space else cfg.abs_tol)
    ident = f"rll[cyclic N={quantum.n}]" if cyclic_space else f"rll[spin {quantum}]"
    samples, worst = [], 0.0
    for _ in range(cfg.sample_count):
        if cyclic_space:
            q = quantum.q
            rep = cy.build_cyclic_rep(quantum)
        else:
            q = sample_generic_q(rng)
            rep = build_spin_rep(quantum, q)
        u, v = sample_u(rng), sample_u(rng)
        l1 = _embed_lax(build_lax(rep, u), 1, rep.dim)
        l2 = _embed_lax(build_lax(rep, v), 2, rep.dim)
        r12 = kron(fundamental_r(u - v, q), np.eye(rep.dim))
        lhs = r12 @ l1 @ l2
        rhs = l2 @ l1 @ r12
        worst = _nan_max(worst, residual(lhs, rhs, r12, l1, l2))
        samples.append({"q": _c2l(q.value), "u": _c2l(u), "v": _c2l(v)})
    return ResidualReport(ident, tuple(samples), worst, tol, cfg.rng_seed)


# ---------------------------------------------------------------------------
# decomposed relations for an assembled R

def decomposed_residuals(rm: RMatrix, basis: str | None = None, *,
                         space: ProductSpace | None = None) -> dict[str, float]:
    """Residuals of the eight relations an intertwining R must satisfy.

    ``space`` is the :class:`ProductSpace` of R's spins in ``basis`` (R's
    own basis by default), when the caller already has it; it is built
    here otherwise.
    """
    q = rm.q
    u = rm.u
    if space is None:
        space = ProductSpace.of_spins(rm.ell1, rm.ell2, q, basis or rm.basis_tag)
    rep1, rep2 = space.parents
    cop_u = space.coproduct("delta", u)
    cop_mu = space.coproduct("delta", -u)
    bar_u = space.coproduct("deltabar", u)
    bar_mu = space.coproduct("deltabar", -u)
    r = rm.matrix
    out = {}
    qs = cop_u.gens.qs(1)
    out["qs_commute"] = residual(r @ qs, qs @ r, r, qs)
    pairs = {
        "lower_twisted": (cop_u.gens.sm, bar_mu.gens.sm),
        "raise_twisted": (cop_u.gens.sp, bar_mu.gens.sp),
        "lower_twisted_bar": (bar_u.gens.sm, cop_mu.gens.sm),
        "raise_twisted_bar": (bar_u.gens.sp, cop_mu.gens.sp),
    }
    for name, (a, b) in pairs.items():
        out[name] = residual(r @ a, b @ r, r, a, b)

    qu = q.pow(u)
    c2 = (q.value - 1 / q.value) ** 2
    qpm = qu * kron(rep1.qs(1), rep2.qs(-1)) + kron(rep1.qs(-1), rep2.qs(1)) / qu
    qmp = qu * kron(rep1.qs(-1), rep2.qs(1)) + kron(rep1.qs(1), rep2.qs(-1)) / qu
    k_pm = qpm - c2 * kron(rep1.sm, rep2.sp)
    k_pm_bar = qpm - c2 * kron(rep1.sp, rep2.sm)
    k_mp = qmp - c2 * kron(rep1.sp, rep2.sm)
    k_mp_bar = qmp - c2 * kron(rep1.sm, rep2.sp)
    out["k_plus_minus"] = residual(r @ k_pm, k_pm_bar @ r, r, k_pm)
    out["k_minus_plus"] = residual(r @ k_mp, k_mp_bar @ r, r, k_mp)

    c_mu = casimir_matrix(cop_mu)
    c_bar_u = casimir_matrix(bar_u)
    out["casimir_intertwine"] = residual(c_mu @ r, r @ c_bar_u, r, c_mu, c_bar_u)
    return out


def check_decomposed_ybe(ell1, ell2, cfg: ToleranceConfig | None = None,
                         basis: str = "orthonormal", perturb: float = 0.0,
                         tolerance: float | None = None) -> list[ResidualReport]:
    """All eight decomposed relations over sampled (q, u) points."""
    cfg = cfg or ToleranceConfig()
    tol = tolerance if tolerance is not None else cfg.abs_tol
    rng = cfg.rng()
    worst: dict[str, float] = {}
    samples = []
    for _ in range(cfg.sample_count):
        q, u = _regular_point(ell1, ell2, rng)
        space = ProductSpace.of_spins(ell1, ell2, q, basis)
        rm = assemble_R(ell1, ell2, u, q, basis=basis, space=space)
        if perturb:
            m = rm.matrix.copy()
            m[0, 1] += perturb
            rm = dataclasses.replace(rm, matrix=m)
        for name, val in decomposed_residuals(rm, space=space).items():
            worst[name] = _nan_max(worst.get(name, 0.0), val)
        samples.append({"q": _c2l(q.value), "u": _c2l(u)})
    pair = f"({ell1},{ell2})"
    return [ResidualReport(f"decomposed[{name}]{pair}", tuple(samples), val, tol, cfg.rng_seed)
            for name, val in worst.items()]


def _regular_point(ell1, ell2, rng, min_gap: float = 0.05):
    """A sampled (q, u) with all eigenvalue denominators away from poles."""
    nmax = int(round(2 * min(float(np.real(ell1)), float(np.real(ell2)))))
    big_l = ell1 + ell2 + 1
    for _ in range(MAX_DRAWS):
        q = sample_generic_q(rng)
        u = sample_u(rng)
        gaps = [abs(qnum(big_l - n + s * u, q)) for n in range(1, nmax + 1) for s in (1, -1)]
        if not gaps or min(gaps) > min_gap:
            return q, u
    raise SamplerExhausted(f"regular (q, u) for spins ({ell1}, {ell2})", MAX_DRAWS)


def check_unitarity(ell1, ell2, cfg: ToleranceConfig | None = None, mode: str = "xxz",
                    basis: str = "orthonormal", perturb: float = 0.0,
                    tolerance: float | None = None) -> ResidualReport:
    """R(u) R(-u) = 1 with unit normalization of the sector-0 eigenvalue."""
    cfg = cfg or ToleranceConfig()
    tol = tolerance if tolerance is not None else cfg.rel_tol
    rng = cfg.rng()
    samples, worst = [], 0.0
    big_l = ell1 + ell2 + 1
    nmax = int(round(2 * min(float(np.real(ell1)), float(np.real(ell2)))))
    for _ in range(cfg.sample_count):
        if mode == "xxx":
            q = None
            for _ in range(MAX_DRAWS):
                u = sample_u(rng)
                if min(abs(big_l - n + s * u)
                       for n in range(1, nmax + 1) for s in (1, -1)) >= 0.05:
                    break
            else:
                raise SamplerExhausted(f"regular rational u for spins ({ell1}, {ell2})",
                                       MAX_DRAWS)
        else:
            q, u = _regular_point(ell1, ell2, rng)
        r_u, r_mu = assemble_R_pair(ell1, ell2, u, q, mode=mode)
        m = r_u.matrix.copy()
        if perturb:
            m[0, 1] += perturb
        prod = m @ r_mu.matrix
        worst = _nan_max(worst, residual(prod, np.eye(prod.shape[0]), prod))
        samples.append({"q": None if q is None else _c2l(q.value), "u": _c2l(u)})
    return ResidualReport(f"unitarity[{mode}]({ell1},{ell2})", tuple(samples), worst,
                          tol, cfg.rng_seed)


def check_branch_independence(ell1, ell2, cfg: ToleranceConfig | None = None,
                              tolerance: float | None = None) -> ResidualReport:
    """Eigenvalue ratios are unchanged when log q moves by 2 pi i at fixed
    spectral power q^u (sampled on and off the unit circle)."""
    cfg = cfg or ToleranceConfig()
    tol = tolerance if tolerance is not None else cfg.abs_tol
    rng = cfg.rng()
    samples, worst = [], 0.0
    for i in range(cfg.sample_count):
        for _ in range(MAX_DRAWS):
            q = sample_generic_q(rng, on_circle=(i % 2 == 0))
            u = sample_u(rng)
            try:
                base = eigenvalue_ratios(ell1, ell2, u, q, branch_shift=0)
                shifted = eigenvalue_ratios(ell1, ell2, u, q, branch_shift=1)
                break
            except PoleAtSector:
                continue
        else:
            raise SamplerExhausted(f"pole-free (q, u) for spins ({ell1}, {ell2})", MAX_DRAWS)
        worst = _nan_max(worst, float(np.abs(base - shifted).max()
                                      / max(1.0, np.abs(base).max())))
        samples.append({"q": _c2l(q.value), "u": _c2l(u),
                        "on_circle": bool(abs(abs(q.value) - 1) < 1e-12)})
    return ResidualReport(f"branch_independence({ell1},{ell2})", tuple(samples), worst,
                          tol, cfg.rng_seed)


def check_casimir_spectrum(ell1, ell2, cfg: ToleranceConfig | None = None,
                           basis: str = "orthonormal",
                           tolerance: float | None = None) -> ResidualReport:
    """Sector eigenvalues [n-l1-l2][n-l1-l2-1] with m-degeneracy across chains."""
    cfg = cfg or ToleranceConfig()
    tol = tolerance if tolerance is not None else cfg.abs_tol
    rng = cfg.rng()
    samples, worst = [], 0.0
    for _ in range(cfg.sample_count):
        q, u = _regular_point(ell1, ell2, rng)
        space = ProductSpace.of_spins(ell1, ell2, q, basis)
        _, report = tensor_casimir(space.coproduct("delta", u), space.sectors(u))
        worst = _nan_max(worst, report.max_residual, report.max_m_spread)
        samples.append({"q": _c2l(q.value), "u": _c2l(u)})
    return ResidualReport(f"casimir_spectrum({ell1},{ell2})", tuple(samples), worst,
                          tol, cfg.rng_seed)


# ---------------------------------------------------------------------------
# root-of-unity suites

def check_cyclic_centrality(n: int, cfg: ToleranceConfig | None = None,
                            tolerance: float | None = None) -> ResidualReport:
    """Off-scalar residuals of (S+-)^N and q^{NS} on single and tensor reps."""
    cfg = cfg or ToleranceConfig()
    tol = tolerance if tolerance is not None else cfg.abs_tol
    rng = cfg.rng()
    samples, worst = [], 0.0
    for _ in range(cfg.sample_count):
        p1 = sample_params(rng, 3)
        p2 = sample_params(rng, 3)
        u = sample_u(rng, scale=0.6)
        s1 = cy.CyclicRepSpec(*p1, n)
        s2 = cy.CyclicRepSpec(*p2, n)
        ce1 = cy.central_elements(s1, tol=1.0)
        ce2 = cy.central_elements(s2, tol=1.0)
        tp = cy.tensor_power_scalars(s1, s2, u, tol=1.0)
        worst = _nan_max(worst, ce1.max_offscalar_residual, ce2.max_offscalar_residual,
                         tp.max_offscalar_residual,
                         abs(ce1.alpha_minus - ce1.alpha_minus_product_route)
                         / max(1.0, abs(ce1.alpha_minus)),
                         *tp.closed_form_errors.values())
        samples.append({"params1": [_c2l(z) for z in p1],
                        "params2": [_c2l(z) for z in p2], "u": _c2l(u)})
    return ResidualReport(f"cyclic_centrality[N={n}]", tuple(samples), worst, tol, cfg.rng_seed)


def check_phi_identity(n: int, cfg: ToleranceConfig | None = None,
                       count: int = 20, tolerance: float | None = None) -> ResidualReport:
    """q-number product over a full period equals its two-term closed form."""
    cfg = cfg or ToleranceConfig()
    tol = tolerance if tolerance is not None else cfg.abs_tol
    rng = cfg.rng()
    q = DeformationParameter.root_of_unity(n)
    samples, worst = [], 0.0
    for _ in range(count):
        alpha = complex(rng.normal(0, 0.6), rng.normal(0, 0.6))
        worst = _nan_max(worst, phi_product(alpha, q).residual)
        samples.append({"alpha": _c2l(alpha)})
    return ResidualReport(f"phi_product[N={n}]", tuple(samples), worst, tol, cfg.rng_seed)


def check_shift_laws(n: int, cfg: ToleranceConfig | None = None,
                     tolerance: float | None = None) -> ResidualReport:
    """All 4N shift relations at random draws from the admissible parameter set."""
    cfg = cfg or ToleranceConfig()
    tol = tolerance if tolerance is not None else cfg.rel_tol
    rng = cfg.rng()
    samples, worst = [], 0.0
    for _ in range(cfg.sample_count):
        s1, s2, u = cy.sample_compatible_params(n, rng)
        fam = cy.eigenstate_family(s1, s2, u, tol=tol, enforce=False)
        worst = _nan_max(worst, *fam.shift_residuals.values())
        samples.append({"u": _c2l(u), "alpha1": _c2l(s1.alpha), "beta2": _c2l(s2.beta)})
    return ResidualReport(f"shift_laws[N={n}]", tuple(samples), worst, tol, cfg.rng_seed)


def check_cyclic_r_ratio(n: int, cfg: ToleranceConfig | None = None,
                         tolerance: float | None = None) -> ResidualReport:
    """Consecutive cyclic eigenvalues have the constant ratio
    q^{2 - u + alpha2 - beta2 - lam1}."""
    cfg = cfg or ToleranceConfig()
    tol = tolerance if tolerance is not None else cfg.abs_tol
    rng = cfg.rng()
    q = DeformationParameter.root_of_unity(n)
    samples, worst = [], 0.0
    for _ in range(cfg.sample_count):
        s1 = cy.CyclicRepSpec(*sample_params(rng, 3), n)
        s2 = cy.CyclicRepSpec(*sample_params(rng, 3), n)
        u = sample_u(rng, scale=0.6)
        vals = cy.cyclic_R_eigenvalues(s1, s2, u)
        step = q.pow(2 - u + s2.alpha - s2.beta - s1.lam)
        err = _nan_max(*(abs(vals[m] / vals[m - 1] - step) for m in range(1, n)))
        err /= max(1.0, abs(step))
        worst = _nan_max(worst, float(err))
        samples.append({"u": _c2l(u)})
    return ResidualReport(f"cyclic_r_ratio[N={n}]", tuple(samples), worst, tol, cfg.rng_seed)


def check_partial_r(n: int, cfg: ToleranceConfig | None = None,
                    tolerance: float | None = None) -> ResidualReport:
    """Partial R reproduces its defining action on every family vector."""
    cfg = cfg or ToleranceConfig()
    tol = tolerance if tolerance is not None else cfg.rel_tol
    rng = cfg.rng()
    samples, worst = [], 0.0
    for _ in range(cfg.sample_count):
        s1, s2, u = cy.sample_compatible_params(n, rng)
        pr = cy.partial_R(s1, s2, u)
        worst = _nan_max(worst, pr.max_residual)
        samples.append({"u": _c2l(u), "span_rank": pr.span_rank})
    return ResidualReport(f"partial_r[N={n}]", tuple(samples), worst, tol, cfg.rng_seed)
