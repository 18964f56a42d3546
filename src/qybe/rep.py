"""Finite-dimensional lowest-weight representations as explicit matrices.

The canonical basis is the monomial one {x^k, k = 0..2l}, ordered by
ascending power; the raising operator fills the first subdiagonal.  The
orthonormal variant rescales the basis so raising and lowering carry the
same square-root entries.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .errors import BadSpin, ParameterDomainError
from .qcore import DeformationParameter, _nan_max, qnum


@dataclasses.dataclass(frozen=True)
class OperatorTriple:
    """Matrices of S+, S- and the diagonal family a -> q^{aS}.

    ``weights`` holds the eigenvalues of S, so qs(a) = diag(q^{a w_k}).
    ``from_monomial`` is the diagonal change of coordinates from monomial
    coordinates to this basis (None means identity).
    """

    sp: np.ndarray
    sm: np.ndarray
    weights: np.ndarray
    q: DeformationParameter
    basis_tag: str = "monomial"
    ell: complex | None = None
    from_monomial: np.ndarray | None = None
    truncated: bool = False

    def __post_init__(self):
        for arr in (self.sp, self.sm, self.weights):
            arr.setflags(write=False)
        if self.from_monomial is not None:
            self.from_monomial.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.sp.shape[0]

    def qs(self, a) -> np.ndarray:
        return np.diag(self.q.pow(np.asarray(a) * self.weights))

    def algebra_residual(self) -> float:
        """Max deviation from the defining relations, normalized by entry scale."""
        q = self.q.value
        comm = self.sp @ self.sm - self.sm @ self.sp
        rhs = (self.qs(2) - self.qs(-2)) / (q - 1 / q)
        scale = max(1.0, np.abs(self.sp).max(), np.abs(self.sm).max(), np.abs(rhs).max())
        r = _nan_max(np.abs(comm - rhs).max(),
                     np.abs(self.qs(1) @ self.sp @ self.qs(-1) - q * self.sp).max(),
                     np.abs(self.qs(1) @ self.sm @ self.qs(-1) - self.sm / q).max())
        return float(r / scale)


def _half_integer_or_none(ell) -> int | None:
    two_ell = 2 * ell
    n = int(round(float(np.real(two_ell))))
    if abs(two_ell - n) > 1e-12 or n < 0:
        return None
    return n


def build_spin_rep(ell, q: DeformationParameter, basis: str = "monomial",
                   cutoff: int | None = None) -> OperatorTriple:
    """Spin-ell representation on the (2l+1)-dimensional space.

    Monomial basis: S- x^k = [k] x^{k-1}, S+ x^k = [2l-k] x^{k+1},
    q^{aS} x^k = q^{a(k-l)} x^k.  Orthonormal basis: both shift operators
    carry sqrt([k+1][2l-k]) on the sub/superdiagonal.

    A generic (non-half-integer) spin has no top vector; it is served only
    as a truncation to ``cutoff`` basis vectors, flagged ``truncated``:
    the raising relation then fails in the top corner (the Casimir is
    still exactly scalar, since S+ S- never leaves the space).
    """
    two_ell = _half_integer_or_none(ell)
    if two_ell is None:
        if cutoff is None:
            raise BadSpin(f"2*ell must be a nonnegative integer (got ell={ell}); "
                          "pass a cutoff dimension to truncate a generic spin")
        d = int(cutoff)
        if d < 1:
            raise BadSpin("cutoff must be a positive dimension")
        truncated = True
    else:
        d = two_ell + 1
        truncated = False
    sp = np.zeros((d, d), complex)
    sm = np.zeros((d, d), complex)
    weights = np.arange(d) - ell
    if basis == "monomial":
        for k in range(1, d):
            sm[k - 1, k] = qnum(k, q)
        for k in range(d - 1):
            sp[k + 1, k] = qnum(2 * ell - k, q)
        dm = None
    elif basis == "orthonormal":
        dm = np.ones(d, complex)
        for k in range(d - 1):
            a = qnum(k + 1, q)
            s = np.sqrt(a * qnum(2 * ell - k, q))
            sp[k + 1, k] = s
            sm[k, k + 1] = s
            dm[k + 1] = dm[k] * a / s
    else:
        raise ParameterDomainError(f"unknown basis {basis!r}")
    return OperatorTriple(sp=sp, sm=sm, weights=weights.astype(complex), q=q,
                          basis_tag=basis, ell=complex(ell), from_monomial=dm,
                          truncated=truncated)


def casimir_matrix(rep: OperatorTriple) -> np.ndarray:
    """C = S+ S- + [S][S-1]; on a spin-l representation the scalar [l][l+1].

    ``rep`` is a single representation or the generators of a coproduct
    (:meth:`ProductSpace.coproduct`).
    """
    return rep.sp @ rep.sm + casimir_diagonal(rep.weights, rep.q)


def casimir_diagonal(weights: np.ndarray, q: DeformationParameter) -> np.ndarray:
    """The diagonal part [S][S-1] of :func:`casimir_matrix`, for the
    eigenvalues ``weights`` of S."""
    return np.diag(qnum(weights, q) * qnum(weights - 1, q))


def build_lax(rep: OperatorTriple, u: complex) -> np.ndarray:
    """2x2-block Lax matrix on (auxiliary x quantum), auxiliary index outermost.

    Blocks: [[[u+S], S-], [S+, [u-S]]] with q-numbers of the diagonal S, so
    at q = 1 (:data:`qcore.RATIONAL`) it is the rational [[u+S, S-], [S+, u-S]].
    """
    a_blk = np.diag(qnum(u + rep.weights, rep.q))
    d_blk = np.diag(qnum(u - rep.weights, rep.q))
    return np.block([[a_blk, rep.sm], [rep.sp, d_blk]])


def fundamental_r(u: complex, q: DeformationParameter) -> np.ndarray:
    """The 4x4 six-vertex matrix with entries a = [u+1], b = [u], c = 1:
    trigonometric at generic q, rational (a = u+1, b = u) at q = 1."""
    a = qnum(u + 1, q)
    b = qnum(u, q)
    return np.array([[a, 0, 0, 0],
                     [0, b, 1, 0],
                     [0, 1, b, 0],
                     [0, 0, 0, a]], dtype=complex)
