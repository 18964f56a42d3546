"""Cyclic representations at odd roots of unity.

The N-dimensional basis {theta_k} is treated as purely cyclic: all index
arithmetic is mod N and multiplication by the N-th power of the variable
acts as the identity.  Generators act by

    S- theta_k = q^{-lam/2} [k - beta] theta_{k-1},
    S+ theta_k = q^{ lam/2} [alpha - k] theta_{k+1},
    q^{aS} theta_k = q^{a (k - (alpha+beta)/2)} theta_k.

On a product theta_{k1, k2} every twisted generator moves the weight
sector (k1 + k2) mod N by one, so the tensor checks run on its N
sector-transition blocks (:func:`_sector_bands`) and never form the
dense N^2 x N^2 coproducts of :class:`tensorrep.ProductSpace`.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .errors import (InconsistentConstraints, NotScalar, OrderMismatch,
                     ParameterDomainError, SamplerExhausted, ShiftLawViolation)
from .qcore import (MAX_DRAWS, DeformationParameter, _nan_max, phi_product, qnum, residual,
                    sample_params)
from .rep import OperatorTriple
from .tensorrep import _require_shared_q


@dataclasses.dataclass(frozen=True)
class CyclicRepSpec:
    """Three-parameter cyclic representation data at order N.

    ``q`` defaults to :meth:`DeformationParameter.root_of_unity` of N; a
    given q must have ``order`` N.
    """

    alpha: complex
    beta: complex
    lam: complex
    n: int
    q: DeformationParameter | None = None

    def __post_init__(self):
        if self.q is None:
            object.__setattr__(self, "q", DeformationParameter.root_of_unity(self.n))
        elif self.q.order != self.n:
            raise ParameterDomainError(f"q is not a root of unity of order {self.n}")

    @property
    def ell(self) -> complex:
        """Derived spin label (alpha + beta) / 2."""
        return (self.alpha + self.beta) / 2


def build_cyclic_rep(spec: CyclicRepSpec) -> OperatorTriple:
    """Generator matrices of the cyclic representation on {theta_k}."""
    n, q = spec.n, spec.q
    k = np.arange(n)
    sp = np.zeros((n, n), complex)
    sm = np.zeros((n, n), complex)
    sm[(k - 1) % n, k] = q.pow(-spec.lam / 2) * qnum(k - spec.beta, q)
    sp[(k + 1) % n, k] = q.pow(spec.lam / 2) * qnum(spec.alpha - k, q)
    weights = k - spec.ell
    return OperatorTriple(sp=sp, sm=sm, weights=weights.astype(complex), q=q,
                          basis_tag="theta", ell=None, from_monomial=None)


def _scalar_part(m: np.ndarray) -> tuple[complex, float]:
    """The scalar of a matrix, or of a block-diagonal one given as the stack
    of its diagonal blocks, and its relative off-scalar residual."""
    d = np.diagonal(m, axis1=-2, axis2=-1)
    s = complex(d.sum() / d.size)
    return s, residual(m, s * np.eye(m.shape[-1]), s)


@dataclasses.dataclass(frozen=True)
class CentralElements:
    alpha_plus: complex
    alpha_minus: complex
    qns_scalar: complex
    max_offscalar_residual: float
    alpha_minus_product_route: complex


def central_elements(spec: CyclicRepSpec, tol: float = 1e-10, *,
                     rep: OperatorTriple | None = None) -> CentralElements:
    """Scalars of (S+)^N, (S-)^N and q^{NS}, verified to be central.

    (S-)^N is cross-checked against the independent q-number-product route
    q^{-N lam/2} * (-1) * prod_{j=0}^{N-1} [beta + j].  ``rep`` is
    :func:`build_cyclic_rep` of ``spec`` when the caller already has it.
    """
    if rep is None:
        rep = build_cyclic_rep(spec)
    n = spec.n
    sp_n, sm_n = np.linalg.matrix_power(np.stack([rep.sp, rep.sm]), n)
    ap, rp = _scalar_part(sp_n)
    am, rm = _scalar_part(sm_n)
    aq, rq = _scalar_part(rep.qs(n))
    worst = _nan_max(rp, rm, rq)
    if not worst <= tol:
        raise NotScalar(worst, f"extended-center candidate has off-scalar residual {worst:.3e}")
    am_route = -spec.q.pow(-n * spec.lam / 2) * phi_product(spec.beta, spec.q).product
    return CentralElements(alpha_plus=ap, alpha_minus=am, qns_scalar=aq,
                           max_offscalar_residual=worst,
                           alpha_minus_product_route=complex(am_route))


def _require_same_q(spec1: CyclicRepSpec, spec2: CyclicRepSpec) -> None:
    """Cyclic factors must share their order N, and q with its log branch."""
    if spec1.n != spec2.n:
        raise OrderMismatch(f"orders differ: {spec1.n} vs {spec2.n}")
    _require_shared_q(spec1.q, spec2.q)


def _sector_bands(rep1: OperatorTriple, rep2: OperatorTriple, u: complex) -> np.ndarray:
    """The sector-transition blocks of the four twisted generators on V1 x V2.

    Each of sm_u, sp_u, sm_bar_u and sp_bar_u (steps -1, 1, -1, 1) moves
    the weight sector c = k1 + k2 mod N by its step, so it is N blocks of
    N x N.  Returns shape (4, N, N, N): [g, i] maps sector i * step_g mod N
    to (i + 1) * step_g, on the basis vectors theta_{k1, c - k1} ordered by
    k1.  The S2 term of a generator moves k2 and sits on the diagonal of a
    block; the S1 term moves k1 and sits on the diagonal shifted by the
    step.  Each entry is formed as :meth:`ProductSpace.coproduct` forms it,
    the piece product and then the product or quotient with q^{u/2}, so the
    blocks are bit for bit the slices of the dense generators.
    """
    n, q = rep1.dim, rep1.q
    k = np.arange(n)
    g = np.arange(4)[:, None, None]
    steps = np.array([-1, 1, -1, 1])[:, None, None]
    # delta weights its pieces by q^{-S1} and q^{S2}, deltabar by q^{S1} and q^{-S2}
    w1 = np.stack([q.pow(-rep1.weights), q.pow(rep1.weights)])[[0, 0, 1, 1], None, :]
    w2 = np.stack([q.pow(rep2.weights), q.pow(-rep2.weights)])[[0, 0, 1, 1]]
    lower, lift = (k - 1) % n, (k + 1) % n
    f1 = np.stack([rep1.sm[lower, k], rep1.sp[lift, k]])[[0, 1, 0, 1], None, :]
    f2 = np.stack([rep2.sm[lower, k], rep2.sp[lift, k]])[[0, 1, 0, 1]]
    k2 = (steps * k[:, None] - k) % n  # [g, i, k1]: k2 of column k1 of block i
    s1 = f1 * w2[g, k2]
    s2 = w1 * f2[g, k2]
    qu = q.pow(u / 2)
    times = np.array([True, False, False, True])[:, None, None]
    bands = np.zeros((4, n, n, n), complex)
    bands[g, k[:, None], (k + steps) % n, k] = np.where(times, qu * s1, s1 / qu)
    bands[g, k[:, None], k, k] = np.where(times, s2 / qu, qu * s2)
    return bands


@dataclasses.dataclass(frozen=True)
class TensorPowerReport:
    scalars: dict
    offscalar_residuals: dict
    closed_form_errors: dict

    @property
    def max_offscalar_residual(self) -> float:
        return _nan_max(*self.offscalar_residuals.values())


def tensor_power_scalars(spec1: CyclicRepSpec, spec2: CyclicRepSpec, u: complex,
                         tol: float = 1e-9, *,
                         reps: tuple[OperatorTriple, OperatorTriple] | None = None
                         ) -> TensorPowerReport:
    """N-th powers of all four twisted generators, with closed-form scalars.

    The unbarred powers telescope to
    (S-_u)^N = q^{N(u/2+S2)} (S1-)^N + q^{-N(u/2+S1)} (S2-)^N  (and the
    raising analogue), which yields explicit scalars in the parameters.
    Each generator moves the sector k1 + k2 mod N by one, so its N-th power
    is block-diagonal: the block of a sector is the product of the
    generator's N sector-transition blocks (:func:`_sector_bands`) taken
    once around the cycle of sectors, and the scalar is read from the
    diagonal of those blocks.  ``reps`` is :func:`build_cyclic_rep` of the
    two specs when the caller already has them.
    """
    _require_same_q(spec1, spec2)
    n = spec1.n
    q = spec1.q
    if reps is None:
        reps = build_cyclic_rep(spec1), build_cyclic_rep(spec2)
    a1, b1, l1 = spec1.alpha, spec1.beta, spec1.lam
    a2, b2, l2 = spec2.alpha, spec2.beta, spec2.lam
    den = (q.value - 1 / q.value) ** (-n)
    closed = {
        "sm_u": den * (q.pow(n * (u - a2 - b2 - l1) / 2) * (q.pow(-n * b1) - q.pow(n * b1))
                       + q.pow(n * (-u + a1 + b1 - l2) / 2) * (q.pow(-n * b2) - q.pow(n * b2))),
        "sp_u": den * (q.pow(n * (-u - a2 - b2 + l1) / 2) * (q.pow(n * a1) - q.pow(-n * a1))
                       + q.pow(n * (u + a1 + b1 + l2) / 2) * (q.pow(n * a2) - q.pow(-n * a2))),
    }
    scalars, resids, errors = {}, {}, {}
    bands = _sector_bands(*reps, u)
    around = np.concatenate([bands, bands], axis=1)
    powers = bands
    for j in range(1, n):
        powers = around[:, j:j + n] @ powers
    for name, power in zip(("sm_u", "sp_u", "sm_bar_u", "sp_bar_u"), powers):
        s, r = _scalar_part(power)
        scalars[name] = s
        resids[name] = r
        if not r <= tol:
            raise NotScalar(r, f"(S^N) off-scalar residual {r:.3e} for {name}")
        if name in closed:
            errors[name] = residual(s, closed[name], closed[name])
    return TensorPowerReport(scalars=scalars, offscalar_residuals=resids,
                             closed_form_errors=errors)


# ---------------------------------------------------------------------------
# eigenstate families

def family_ratio(spec1: CyclicRepSpec, spec2: CyclicRepSpec, u: complex,
                 barred: bool = False) -> complex:
    """Geometric coefficient ratio along the support cycle of the family."""
    _require_same_q(spec1, spec2)
    q = spec1.q
    a1, b1, l1 = spec1.alpha, spec1.beta, spec1.lam
    a2, b2, l2 = spec2.alpha, spec2.beta, spec2.lam
    if barred:
        return complex(q.pow(2 - u + (a1 + a2 - b1 - b2 + l2 - l1) / 2))
    return complex(q.pow(u - 2 + (b1 + b2 - a1 - a2 + l2 - l1) / 2))


def family_closure_defect(spec1: CyclicRepSpec, spec2: CyclicRepSpec,
                          u: complex) -> tuple[float, float]:
    """Distance from the existence condition ratio^N = 1 (both families).

    The coefficients run along a closed N-cycle of basis labels, so a
    geometric ratio is consistent only when its N-th power is 1.
    """
    return tuple(abs(family_ratio(spec1, spec2, u, barred) ** spec1.n - 1)
                 for barred in (False, True))


def _family_vectors(n: int, ratio: complex) -> np.ndarray:
    """Rows phi_0 .. phi_{N-1} of one family: phi_m = sum_k ratio^k theta_{(m-k) mod N, k}."""
    k = np.arange(n)
    fam = np.zeros((n, n * n), complex)
    fam[k[:, None], ((k[:, None] - k) % n) * n + k] = [ratio**j for j in range(n)]
    return fam


@dataclasses.dataclass(frozen=True)
class CyclicEigenFamily:
    phi: list[np.ndarray]
    phibar: list[np.ndarray]
    ratio: complex
    barred_ratio: complex
    shift_residuals: dict


def shift_prefactor(relation: str, spec1: CyclicRepSpec, spec2: CyclicRepSpec,
                    u: complex, m):
    """Exact q-exponent prefactor of one of the four shift relations.

    A ``complex`` for an int m; an array of the prefactors for an array of m.
    """
    q = spec1.q
    a1, b1, l1 = spec1.alpha, spec1.beta, spec1.lam
    a2, b2, l2 = spec2.alpha, spec2.beta, spec2.lam
    if relation == "lower":
        c = q.pow(-1 + (u - l1 + b2 - a2) / 2) * qnum(m + 1 - b1 - b2, q)
    elif relation == "raise":
        c = q.pow(1 - (u - l1 + b2 - a2) / 2) * qnum(a1 + a2 + 1 - m, q)
    elif relation == "lower_bar":
        c = q.pow(1 - (u + l1 + b2 - a2) / 2) * qnum(m + 1 - b1 - b2, q)
    elif relation == "raise_bar":
        c = q.pow(-1 + (u + l1 + b2 - a2) / 2) * qnum(a1 + a2 + 1 - m, q)
    else:
        raise ParameterDomainError(f"unknown relation {relation!r}")
    return c if np.ndim(c) else complex(c)


def eigenstate_family(spec1: CyclicRepSpec, spec2: CyclicRepSpec, u: complex,
                      tol: float = 1e-9, enforce: bool = True) -> CyclicEigenFamily:
    """The N + N vectors phi_m, phibar_m and their shift-relation residuals.

    phi_m lives on {theta_{(m-k) mod N, k}} with geometric coefficients;
    the twisted lowering/raising operators shift m by one with explicit
    prefactors (see :func:`shift_prefactor`).  phi_m lies in the sector m, so
    each law is evaluated there: its generator's sector-transition block
    (:func:`_sector_bands`) applied to phi_m restricted to the sector.
    When the closure condition ratio^N = 1 fails the laws break at the
    cycle seam; with ``enforce`` the first violation (or NaN residual) is
    raised, in the order lower, raise, lower_bar, raise_bar with m
    ascending; otherwise residuals are just reported.
    """
    _require_same_q(spec1, spec2)
    n = spec1.n
    bands = _sector_bands(build_cyclic_rep(spec1), build_cyclic_rep(spec2), u)
    rho = family_ratio(spec1, spec2, u, barred=False)
    sig = family_ratio(spec1, spec2, u, barred=True)
    phi = _family_vectors(n, rho)
    phibar = _family_vectors(n, sig)
    m = np.arange(n)
    # row m: phi_m on its sector, the coefficients of theta_{k1, m - k1} by k1
    on_sector = m[:, None], m * n + (m[:, None] - m) % n
    sector_phi, sector_phibar = phi[on_sector], phibar[on_sector]
    resids = {}
    checks = (("lower", sector_phi, -1), ("raise", sector_phi, +1),
              ("lower_bar", sector_phibar, -1), ("raise_bar", sector_phibar, +1))
    for band, (name, vec, step) in zip(bands, checks):
        c = shift_prefactor(name, spec1, spec2, u, m)
        image = (band[m * step % n] @ vec[:, :, None])[:, :, 0]
        r = np.abs(image - c[:, None] * vec[(m + step) % n]).max(axis=1)
        r /= np.maximum(np.maximum(1.0, np.abs(vec).max(axis=1)), np.abs(c))
        resids.update({(name, j): float(x) for j, x in enumerate(r)})
        if enforce and not (r <= tol).all():
            j = int(np.argmin(r <= tol))
            dm, db = family_closure_defect(spec1, spec2, u)
            raise ShiftLawViolation(
                name, j, float(r[j]),
                f"shift relation '{name}' fails at m={j} (residual {r[j]:.3e}); "
                f"closure defects |ratio^N - 1| = ({dm:.2e}, {db:.2e})")
    return CyclicEigenFamily(phi=list(phi), phibar=list(phibar), ratio=rho, barred_ratio=sig,
                             shift_residuals=resids)


def sample_compatible_params(n: int, rng: np.random.Generator
                             ) -> tuple[CyclicRepSpec, CyclicRepSpec, complex]:
    """Random parameters satisfying the closure conditions of both families.

    Draws alpha_1, alpha_2, beta_1, lam_1 with :func:`qcore.sample_params`,
    sets lam_2 - lam_1 to an integer and u to a half-integer, then solves
    for beta_2 so that the family ratios are N-th roots of unity (this also
    keeps the families at -u on the admissible set, which the partial R
    construction needs).
    Integer choices with coinciding barred/unbarred ratios at u or -u are
    rejected so the two families stay linearly independent.
    """
    a1, a2, b1, l1 = sample_params(rng, 4)
    for _ in range(MAX_DRAWS):
        d = int(rng.integers(-2, 3))
        u = int(rng.integers(-3, 4)) / 2
        z = int(rng.integers(-1, 2))
        # ratios are q^z and q^{d-z} at u, q^{z-2u} and q^{d-z+2u} at -u
        if (2 * z - d) % n == 0 or round(2 * z - d - 4 * u) % n == 0:
            continue
        l2 = l1 + d
        b2 = 2 * (z - u + 2 - (l2 - l1) / 2) - b1 + a1 + a2
        return (CyclicRepSpec(a1, b1, l1, n), CyclicRepSpec(a2, b2, l2, n), complex(u))
    raise SamplerExhausted(f"compatible cyclic parameters at N={n}", MAX_DRAWS)


def cyclic_R_eigenvalues(spec1: CyclicRepSpec, spec2: CyclicRepSpec, u: complex) -> np.ndarray:
    """Geometric eigenvalue family R_m = q^{m (2 - u + alpha2 - beta2 - lam1)}, with R_0 = 1."""
    _require_same_q(spec1, spec2)
    q = spec1.q
    step = q.pow(2 - u + spec2.alpha - spec2.beta - spec1.lam)
    return np.array([step**m for m in range(spec1.n)])


@dataclasses.dataclass(frozen=True)
class PartialR:
    matrix: np.ndarray
    span_rank: int
    max_residual: float
    eigenvalues: np.ndarray


def partial_R(spec1: CyclicRepSpec, spec2: CyclicRepSpec, u: complex) -> PartialR:
    """R on the span of the 2N family vectors, mapping phi_m(u) -> R_m phibar_m(-u)
    and phibar_m(u) -> R_m phi_m(-u).

    The family vectors are those of :func:`eigenstate_family`, built from
    the family ratios alone, with no product space.  The solve is exact on
    the joint span (pseudo-inverse of a full-column-rank stack); a residual
    above 1e-9 (or NaN) means the prescribed images contradict a linear
    dependence among the inputs.
    """
    _require_same_q(spec1, spec2)
    n = spec1.n
    phi_u, phibar_u, phi_mu, phibar_mu = (
        _family_vectors(n, family_ratio(spec1, spec2, x, barred))
        for x in (u, -u) for barred in (False, True))
    r_m = cyclic_R_eigenvalues(spec1, spec2, u)
    v = np.concatenate([phi_u, phibar_u]).T
    w = np.concatenate([r_m[:, None] * phibar_mu, r_m[:, None] * phi_mu]).T
    # one SVD gives the rank and numpy's pinv, step by step
    left, s, right = np.linalg.svd(v.conj(), full_matrices=False)
    rank = int(np.count_nonzero(s > 1e-8 * max(1.0, np.abs(v).max())))
    inv = 1 / np.where(s > 1e-15 * s.max(), s, np.inf)
    mat = w @ (right.T @ (inv[:, None] * left.T))
    resid = residual(mat @ v, w, w)
    if not resid <= 1e-9:
        raise InconsistentConstraints(
            resid, rank,
            f"defining relations conflict on the joint span (residual {resid:.3e})")
    return PartialR(matrix=mat, span_rank=rank, max_residual=resid, eigenvalues=r_m)
