"""Spectral-parameter-twisted tensor products and their eigen-sectors.

Product basis is x1-major ascending: index (j, k) -> j*d2 + k for the
monomial x1^j x2^k.  Printed conventions that list vectors by descending
weight are recovered by reversing the index order (see
:func:`weight_reversed`).
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .errors import CompletenessFailure, DimensionMismatch, ParameterDomainError
from .qcore import DeformationParameter, qnum
from .rep import OperatorTriple, build_spin_rep


@dataclasses.dataclass(frozen=True)
class TwistedCoproduct:
    """Tensor-product generators twisted by a spectral parameter.

    kind "delta":     S-_u = q^{u/2+S2} S1- + q^{-u/2-S1} S2-,
                      S+_u = q^{-u/2+S2} S1+ + q^{u/2-S1} S2+.
    kind "deltabar":  the q -> 1/q twin (all twist exponents negated).
    """

    kind: str
    u: complex
    gens: OperatorTriple
    parents: tuple[OperatorTriple, OperatorTriple]


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two vectors or two matrices.

    One broadcast product: every entry is the single product a_ij * b_kl
    that ``np.kron`` forms, so the result is the same bit for bit, without
    ``np.kron``'s generic axis handling, which dominates at these sizes.
    """
    if a.ndim == 1:
        return (a[:, None] * b[None, :]).ravel()
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def coproduct_generators(rep1: OperatorTriple, rep2: OperatorTriple,
                         kind: str = "delta", u: complex = 0.0) -> TwistedCoproduct:
    """Assemble the twisted tensor generators on the d1*d2 product basis."""
    if abs(rep1.q.value - rep2.q.value) > 1e-12 or \
            abs(rep1.q.log_branch - rep2.q.log_branch) > 1e-12:
        raise DimensionMismatch("tensor factors must share the deformation parameter")
    if kind not in ("delta", "deltabar"):
        raise ParameterDomainError(f"unknown coproduct kind {kind!r}")
    q = rep1.q
    qu = q.pow(u / 2)
    if kind == "delta":
        sm = qu * kron(rep1.sm, rep2.qs(1)) + kron(rep1.qs(-1), rep2.sm) / qu
        sp = kron(rep1.sp, rep2.qs(1)) / qu + qu * kron(rep1.qs(-1), rep2.sp)
    else:
        sm = kron(rep1.sm, rep2.qs(-1)) / qu + qu * kron(rep1.qs(1), rep2.sm)
        sp = qu * kron(rep1.sp, rep2.qs(-1)) + kron(rep1.qs(1), rep2.sp) / qu
    weights = np.add.outer(rep1.weights, rep2.weights).ravel()
    dm = None
    if rep1.from_monomial is not None or rep2.from_monomial is not None:
        d1 = rep1.from_monomial if rep1.from_monomial is not None else np.ones(rep1.dim)
        d2 = rep2.from_monomial if rep2.from_monomial is not None else np.ones(rep2.dim)
        dm = kron(d1, d2)
    gens = OperatorTriple(sp=sp, sm=sm, weights=weights, q=q,
                          basis_tag=f"{rep1.basis_tag}*{rep2.basis_tag}",
                          ell=None, from_monomial=dm)
    return TwistedCoproduct(kind=kind, u=complex(u), gens=gens, parents=(rep1, rep2))


def lowest_weight_coeffs(ell1, ell2, n: int, u: complex, q: DeformationParameter,
                         d1: int, d2: int, barred: bool = False) -> np.ndarray:
    """Monomial coefficients of the degree-n lowest-weight polynomial.

    The unbarred vector is the product over i = 1..n of
    (q^{l1+1-i-u/2} x1 - q^{u/2+i-1-l2} x2); the barred one replaces q by 1/q.
    """
    s = -1.0 if barred else 1.0
    c = np.zeros((d1, d2), complex)
    c[0, 0] = 1.0
    for i in range(1, n + 1):
        a = q.pow(s * (ell1 + 1 - i - u / 2))
        b = q.pow(s * (u / 2 + i - 1 - ell2))
        nxt = np.zeros_like(c)
        nxt[1:, :] += a * c[:-1, :]
        nxt[:, 1:] -= b * c[:, :-1]
        c = nxt
    return c.ravel()


@dataclasses.dataclass(frozen=True)
class EigenSector:
    """Sector n: lowest-weight vector, its raising chain, and the barred twin.

    descendants[m] is (S+_u)^m applied to the lowest-weight vector;
    barred_descendants[m] likewise with the barred operators.
    """

    n: int
    lw_vector: np.ndarray
    descendants: list[np.ndarray]
    barred_lw_vector: np.ndarray
    barred_descendants: list[np.ndarray]


def _descend(sp: np.ndarray, v: np.ndarray, limit: int, abs_tol: float) -> list[np.ndarray]:
    chain = [v]
    ref = np.abs(v).max()
    while len(chain) < limit:
        v = sp @ v
        if np.abs(v).max() < abs_tol * max(1.0, ref):
            break
        chain.append(v)
    return chain


def lowest_weight_vectors(ell1, ell2, u: complex, q: DeformationParameter,
                          kind: str = "delta", basis: str = "monomial",
                          abs_tol: float = 1e-10) -> list[EigenSector]:
    """All eigen-sectors of the twisted tensor product of two finite spins.

    For each n = 0..min(2l1, 2l2) the lowest-weight vector comes from the
    closed product formula, is checked against S-_u v = 0, and is raised
    until the chain terminates.  Completeness of the collected family is
    verified against the full dimension d1*d2.
    """
    rep1 = build_spin_rep(ell1, q, basis)
    rep2 = build_spin_rep(ell2, q, basis)
    d1, d2 = rep1.dim, rep2.dim
    cop = coproduct_generators(rep1, rep2, "delta", u)
    cop_bar = coproduct_generators(rep1, rep2, "deltabar", u)
    if kind == "deltabar":
        cop, cop_bar = cop_bar, cop
    dm = cop.gens.from_monomial

    sectors = []
    total = 0
    for n in range(min(d1, d2)):
        v = lowest_weight_coeffs(ell1, ell2, n, u, q, d1, d2, barred=(kind == "deltabar"))
        vb = lowest_weight_coeffs(ell1, ell2, n, u, q, d1, d2, barred=(kind != "deltabar"))
        if dm is not None:
            v = dm * v
            vb = dm * vb
        for vec, gen in ((v, cop.gens), (vb, cop_bar.gens)):
            r = np.abs(gen.sm @ vec).max() / max(1.0, np.abs(vec).max())
            if r > abs_tol:
                raise CompletenessFailure(
                    f"lowest-weight condition fails at sector {n} (residual {r:.2e})")
        limit = d1 + d2 - 2 * n - 1
        chain = _descend(cop.gens.sp, v, limit, abs_tol)
        chain_bar = _descend(cop_bar.gens.sp, vb, limit, abs_tol)
        total += len(chain)
        sectors.append(EigenSector(n=n, lw_vector=v, descendants=chain,
                                   barred_lw_vector=vb, barred_descendants=chain_bar))
    if total != d1 * d2:
        raise CompletenessFailure(f"sector chains give {total} vectors, expected {d1 * d2}")
    stack = np.array([vec for s in sectors for vec in s.descendants])
    if np.linalg.matrix_rank(stack, tol=1e-8 * max(1.0, np.abs(stack).max())) < d1 * d2:
        raise CompletenessFailure("sector vectors are numerically rank-deficient")
    return sectors


@dataclasses.dataclass(frozen=True)
class SectorEigenvalue:
    n: int
    expected: complex
    max_residual: float
    m_spread: float


@dataclasses.dataclass(frozen=True)
class CasimirSpectrumReport:
    sectors: list[SectorEigenvalue]

    @property
    def max_residual(self) -> float:
        return max(s.max_residual for s in self.sectors)

    @property
    def max_m_spread(self) -> float:
        return max(s.m_spread for s in self.sectors)


def casimir_matrix(cop: TwistedCoproduct) -> np.ndarray:
    """C = S+_u S-_u + [S][S-1] on the product space."""
    g = cop.gens
    q = g.q
    return g.sp @ g.sm + np.diag(qnum(g.weights, q) * qnum(g.weights - 1, q))


def tensor_casimir(cop: TwistedCoproduct,
                   sectors: list[EigenSector] | None = None
                   ) -> tuple[np.ndarray, CasimirSpectrumReport | None]:
    """Casimir of the twisted generators plus its sector spectrum.

    On sector n the eigenvalue is [n-l1-l2][n-l1-l2-1], independent of the
    descendant index m; the report records the residual and the spread of
    Rayleigh estimates across each chain.
    """
    q = cop.gens.q
    c = casimir_matrix(cop)
    rep1, rep2 = cop.parents
    if rep1.ell is None or rep2.ell is None:
        return c, None
    if sectors is None:
        sectors = lowest_weight_vectors(rep1.ell, rep2.ell, cop.u, q,
                                        kind=cop.kind, basis=rep1.basis_tag)
    entries = []
    for sec in sectors:
        lam = qnum(sec.n - rep1.ell - rep2.ell, q) * qnum(sec.n - rep1.ell - rep2.ell - 1, q)
        # sector chains already follow the coproduct kind they were built for
        chain = sec.descendants
        resid = 0.0
        rayleigh = []
        for v in chain:
            nv = np.vdot(v, v).real
            resid = max(resid, np.abs(c @ v - lam * v).max() / max(1.0, np.abs(v).max()))
            rayleigh.append(np.vdot(v, c @ v) / nv)
        spread = max(abs(r - rayleigh[0]) for r in rayleigh)
        entries.append(SectorEigenvalue(sec.n, complex(lam), float(resid), float(spread)))
    return c, CasimirSpectrumReport(entries)


def weight_reversed(arr: np.ndarray) -> np.ndarray:
    """Reverse every axis: maps ascending-power ordering to the
    descending-weight ordering used in printed tables."""
    return np.flip(arr, axis=tuple(range(arr.ndim)))
