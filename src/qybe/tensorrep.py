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
from .qcore import DeformationParameter, _nan_max, qnum
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


class ProductSpace:
    """The tensor product of two factor representations over one q.

    Holds the product ``weights`` and ``from_monomial`` and, for each
    coproduct kind, the four Kronecker pieces that do not depend on u
    (S1-/+ x q^{+-S2} and q^{-+S1} x S2-/+), built the first time that kind
    is used.  A twisted coproduct at any u is then two sums weighted by
    q^{u/2}, so one space serves every u, every kind and every caller of
    one sampled point.
    """

    def __init__(self, rep1: OperatorTriple, rep2: OperatorTriple):
        if abs(rep1.q.value - rep2.q.value) > 1e-12 or \
                abs(rep1.q.log_branch - rep2.q.log_branch) > 1e-12:
            raise DimensionMismatch("tensor factors must share the deformation parameter")
        self.parents = (rep1, rep2)
        self.q = rep1.q
        self.weights = np.add.outer(rep1.weights, rep2.weights).ravel()
        self.from_monomial = None
        if rep1.from_monomial is not None or rep2.from_monomial is not None:
            d1 = rep1.from_monomial if rep1.from_monomial is not None else np.ones(rep1.dim)
            d2 = rep2.from_monomial if rep2.from_monomial is not None else np.ones(rep2.dim)
            self.from_monomial = kron(d1, d2)
        self._pieces: dict[str, tuple[np.ndarray, ...]] = {}

    @classmethod
    def of_spins(cls, ell1, ell2, q: DeformationParameter,
                 basis: str = "monomial") -> "ProductSpace":
        """The space of two finite spins in one single-spin basis."""
        return cls(build_spin_rep(ell1, q, basis), build_spin_rep(ell2, q, basis))

    def _kind_pieces(self, kind: str) -> tuple[np.ndarray, ...]:
        pieces = self._pieces.get(kind)
        if pieces is None:
            if kind not in ("delta", "deltabar"):
                raise ParameterDomainError(f"unknown coproduct kind {kind!r}")
            rep1, rep2 = self.parents
            s = 1 if kind == "delta" else -1
            q2, q1 = rep2.qs(s), rep1.qs(-s)
            pieces = (kron(rep1.sm, q2), kron(q1, rep2.sm),
                      kron(rep1.sp, q2), kron(q1, rep2.sp))
            self._pieces[kind] = pieces
        return pieces

    def coproduct(self, kind: str = "delta", u: complex = 0.0) -> TwistedCoproduct:
        """The twisted tensor generators of ``kind`` at spectral parameter u."""
        sm1, sm2, sp1, sp2 = self._kind_pieces(kind)
        qu = self.q.pow(u / 2)
        if kind == "delta":
            sm = qu * sm1 + sm2 / qu
            sp = sp1 / qu + qu * sp2
        else:
            sm = sm1 / qu + qu * sm2
            sp = qu * sp1 + sp2 / qu
        rep1, rep2 = self.parents
        gens = OperatorTriple(sp=sp, sm=sm, weights=self.weights, q=self.q,
                              basis_tag=f"{rep1.basis_tag}*{rep2.basis_tag}",
                              ell=None, from_monomial=self.from_monomial)
        return TwistedCoproduct(kind=kind, u=complex(u), gens=gens, parents=self.parents)

    def sectors(self, u: complex, kind: str = "delta",
                abs_tol: float = 1e-10) -> list[EigenSector]:
        """All eigen-sectors of the coproduct ``kind`` at u.

        For each n = 0..min(2l1, 2l2) the lowest-weight vector comes from
        the closed product formula, is checked against S-_u v = 0, and is
        raised until the chain terminates.  Completeness of the collected
        family is verified against the full dimension d1*d2.
        """
        rep1, rep2 = self.parents
        ell1, ell2 = rep1.ell, rep2.ell
        if ell1 is None or ell2 is None:
            raise ParameterDomainError("eigen-sectors need two finite spins")
        q = self.q
        d1, d2 = rep1.dim, rep2.dim
        barred = kind == "deltabar"
        cop = self.coproduct(kind, u)
        cop_bar = self.coproduct("delta" if barred else "deltabar", u)
        dm = self.from_monomial

        sectors = []
        total = 0
        for n in range(min(d1, d2)):
            v = lowest_weight_coeffs(ell1, ell2, n, u, q, d1, d2, barred=barred)
            vb = lowest_weight_coeffs(ell1, ell2, n, u, q, d1, d2, barred=not barred)
            if dm is not None:
                v = dm * v
                vb = dm * vb
            for vec, gen in ((v, cop.gens), (vb, cop_bar.gens)):
                r = np.abs(gen.sm @ vec).max() / max(1.0, np.abs(vec).max())
                if not r <= abs_tol:
                    raise CompletenessFailure(
                        f"lowest-weight condition fails at sector {n} (residual {r:.2e})")
            limit = d1 + d2 - 2 * n - 1
            chain = _descend(cop.gens.sp, v, limit, abs_tol)
            chain_bar = _descend(cop_bar.gens.sp, vb, limit, abs_tol)
            total += len(chain)
            sectors.append(EigenSector(n=n, descendants=chain, barred_descendants=chain_bar))
        if total != d1 * d2:
            raise CompletenessFailure(f"sector chains give {total} vectors, expected {d1 * d2}")
        stack = np.array([vec for s in sectors for vec in s.descendants])
        if np.linalg.matrix_rank(stack, tol=1e-8 * max(1.0, np.abs(stack).max())) < d1 * d2:
            raise CompletenessFailure("sector vectors are numerically rank-deficient")
        return sectors


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
    """Sector n: the raising chain of its lowest-weight vector, and the barred twin.

    descendants[m] is (S+_u)^m applied to the lowest-weight vector
    descendants[0]; barred_descendants[m] likewise with the barred operators.
    """

    n: int
    descendants: list[np.ndarray]
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
        return _nan_max(*(s.max_residual for s in self.sectors))

    @property
    def max_m_spread(self) -> float:
        return _nan_max(*(s.m_spread for s in self.sectors))


def casimir_matrix(cop: TwistedCoproduct) -> np.ndarray:
    """C = S+_u S-_u + [S][S-1] on the product space."""
    g = cop.gens
    q = g.q
    return g.sp @ g.sm + np.diag(qnum(g.weights, q) * qnum(g.weights - 1, q))


def tensor_casimir(cop: TwistedCoproduct, sectors: list[EigenSector]
                   ) -> tuple[np.ndarray, CasimirSpectrumReport]:
    """Casimir of the twisted generators plus its spectrum on ``sectors``,
    the :meth:`ProductSpace.sectors` of the same kind and u.

    On sector n the eigenvalue is [n-l1-l2][n-l1-l2-1], independent of the
    descendant index m; the report records the residual and the spread of
    Rayleigh estimates across each chain.
    """
    q = cop.gens.q
    c = casimir_matrix(cop)
    rep1, rep2 = cop.parents
    entries = []
    for sec in sectors:
        lam = qnum(sec.n - rep1.ell - rep2.ell, q) * qnum(sec.n - rep1.ell - rep2.ell - 1, q)
        # sector chains already follow the coproduct kind they were built for
        chain = sec.descendants
        resid = 0.0
        rayleigh = []
        for v in chain:
            nv = np.vdot(v, v).real
            resid = _nan_max(resid, np.abs(c @ v - lam * v).max() / max(1.0, np.abs(v).max()))
            rayleigh.append(np.vdot(v, c @ v) / nv)
        spread = _nan_max(*(abs(r - rayleigh[0]) for r in rayleigh))
        entries.append(SectorEigenvalue(sec.n, complex(lam), float(resid), float(spread)))
    return c, CasimirSpectrumReport(entries)


def weight_reversed(arr: np.ndarray) -> np.ndarray:
    """Reverse every axis: maps ascending-power ordering to the
    descending-weight ordering used in printed tables."""
    return np.flip(arr, axis=tuple(range(arr.ndim)))
