"""Finite-dimensional lowest-weight representations as explicit matrices.

The canonical basis is the monomial one {x^k, k = 0..2l}, ordered by
ascending power; the raising operator fills the first subdiagonal.  The
orthonormal variant rescales the basis so raising and lowering carry the
same square-root entries.
"""
from __future__ import annotations

import cmath
import dataclasses
import functools

import numpy as np

from .errors import BadSpin, ParameterDomainError
from .qcore import DeformationParameter, _check_finite, _qnums, _QStack, _require_finite


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


def _two_spin(ell) -> int:
    """2l for a finite spin l, the one place a spin is read; :class:`BadSpin`
    unless 2l is a nonnegative integer."""
    two_ell = 2 * ell
    if cmath.isfinite(two_ell):
        n = int(round(float(np.real(two_ell))))
        if abs(two_ell - n) <= 1e-12 and n >= 0:
            return n
    raise BadSpin(f"2*ell must be a nonnegative integer (got ell={ell})")


@dataclasses.dataclass(frozen=True, eq=False)
class _Bands:
    """S representations on d labels, spin or cyclic, stacked along a leading
    sample axis by their bands: ``lift`` (S, d), the entry of S+ at
    [(k + 1) mod d, k], and ``lower`` (S, d), that of S- at [(k - 1) mod d, k],
    every other entry 0; the eigenvalues ``weights`` of S, (d,) or (S, d);
    ``from_monomial`` (S, d) or None; and ``qs``, the q of each sample or
    the one q they share.  The spin-l monomial representation is the cyclic
    one at (alpha, beta, lam) = (2l, 0, 0) on 2l + 1 labels, whose wrap
    entries lift[2l] and lower[0] are [0] = 0, held as +0.0."""

    lift: np.ndarray
    lower: np.ndarray
    weights: np.ndarray
    from_monomial: np.ndarray | None
    ell: complex | None
    basis_tag: str
    qs: _QStack

    @classmethod
    def of_triple(cls, rep: OperatorTriple) -> "_Bands":
        """The stack of one of ``rep``; :class:`ParameterDomainError` where
        its S+ or S- has an entry off its band."""
        k = np.arange(rep.dim)
        dm = rep.from_monomial
        bands = cls(rep.sp[(k + 1) % rep.dim, k][None], rep.sm[(k - 1) % rep.dim, k][None],
                    rep.weights, None if dm is None else dm[None], rep.ell, rep.basis_tag,
                    _QStack.of((rep.q,)))
        if not np.array_equal(bands.dense()[0], [rep.sp, rep.sm], equal_nan=True):
            raise ParameterDomainError("a factor's S+ and S- must lie on their bands, "
                                       "[(k+1) mod d, k] and [(k-1) mod d, k]")
        return bands

    def dense(self) -> np.ndarray:
        """S+ and S- of every sample as matrices, (S, 2, d, d), +0.0 off the bands."""
        count, d = self.lift.shape
        k = np.arange(d)
        gens = np.zeros((count, 2, d, d), complex)
        gens[:, 0, (k + 1) % d, k], gens[:, 1, (k - 1) % d, k] = self.lift, self.lower
        return gens

    @functools.cached_property
    def powers(self) -> np.ndarray:
        """The diagonals of q^S and q^-S of every sample, (S, 2, d), formed
        once per stack, read-only: the coproduct kernel and the decomposed
        pass of one run read the same array."""
        signs = np.array([[1], [-1]])
        powers = np.exp((signs * self.weights[..., None, :]) * self.qs.log_branch[:, None, None])
        powers.setflags(write=False)
        return powers

    def require_finite(self) -> "_Bands":
        """The stack; :class:`ParameterDomainError` where its bands or :attr:`powers` overflow."""
        _require_finite("the generator matrices are not finite", self.lift, self.lower, self.powers)
        return self


def _spin_factors(ell, qs: _QStack, basis: str) -> _Bands:
    """The spin-ell representation at every q of the stack ``qs``, in one
    stacked pass."""
    d = _two_spin(ell) + 1
    if basis not in ("monomial", "orthonormal"):
        raise ParameterDomainError(f"unknown basis {basis!r}")
    lift, lower = np.zeros((2, len(qs), d), complex)
    # [k+1] and [2l-k] for k < 2l
    k = np.arange(d - 1)
    a, b = _qnums(np.stack([k + 1, 2 * ell - k])[None], qs).transpose(1, 0, 2)
    dm = None
    if basis == "monomial":
        lower[:, 1:], lift[:, :-1] = a, b
    else:
        lift[:, :-1] = lower[:, 1:] = s = np.sqrt(a * b)
        dm = np.ones((len(qs), d), complex)
        dm[:, 1:] = np.cumprod(a / s, axis=1)
    weights = (np.arange(d) - ell).astype(complex)
    # stacks of the tensor layer share these arrays, both slots of one stack
    # among them when its two spins are equal
    for arr in (lift, lower, weights, dm):
        if arr is not None:
            arr.setflags(write=False)
    return _Bands(lift, lower, weights, dm, complex(ell), basis, qs)


def build_spin_rep(ell, q: DeformationParameter, basis: str = "monomial") -> OperatorTriple:
    """Spin-ell representation on the (2l+1)-dimensional space.

    Monomial basis: S- x^k = [k] x^{k-1}, S+ x^k = [2l-k] x^{k+1},
    q^{aS} x^k = q^{a(k-l)} x^k.  Orthonormal basis: both shift operators
    carry sqrt([k+1][2l-k]) on the sub/superdiagonal.  The stack of one
    of :func:`_spin_factors`; :class:`ParameterDomainError` where they overflow.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f = _spin_factors(ell, _QStack.of((q,)), basis).require_finite()
    sp, sm = f.dense()[0]
    return OperatorTriple(sp=sp, sm=sm, weights=f.weights, q=q, basis_tag=basis,
                          ell=f.ell, from_monomial=None if f.from_monomial is None
                          else f.from_monomial[0])


def casimir_matrix(rep: OperatorTriple) -> np.ndarray:
    """C = S+ S- + [S][S-1]; on a spin-l representation the scalar [l][l+1].

    ``rep`` is a single representation or the generators of a coproduct
    (:meth:`ProductSpace.coproduct`).
    """
    return rep.sp @ rep.sm + casimir_diagonal(rep.weights, rep.q)


def casimir_diagonal(weights: np.ndarray, q: DeformationParameter) -> np.ndarray:
    """The diagonal part [S][S-1] of :func:`casimir_matrix`, for the
    eigenvalues ``weights`` of S."""
    return _casimir_diagonals(weights, _QStack.of((q,)))[0]


def _casimir_diagonals(weights: np.ndarray, qs: _QStack) -> np.ndarray:
    """:func:`casimir_diagonal` at every q of the stack ``qs``: (S, d, d)."""
    qn = _qnums(np.stack([weights, weights - 1])[None], qs)
    return _diag(qn[:, 0] * qn[:, 1])


def _diag(vals: np.ndarray) -> np.ndarray:
    """``np.diag`` of each row of a stack of vectors."""
    out = np.zeros((*vals.shape, vals.shape[-1]), vals.dtype)
    idx = np.arange(vals.shape[-1])
    out[..., idx, idx] = vals
    return out


def build_lax(rep: OperatorTriple, u: complex) -> np.ndarray:
    """2x2-block Lax matrix on (auxiliary x quantum), auxiliary index outermost.

    Blocks: [[[u+S], S-], [S+, [u-S]]] with q-numbers of the diagonal S, so
    at q = 1 (:data:`qcore.RATIONAL`) it is the rational [[u+S, S-], [S+, u-S]].
    The stack of one of :func:`_laxes`; :class:`ParameterDomainError` names u on overflow.
    """
    _check_finite(u=u)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lax = _laxes(rep.sp, rep.sm, rep.weights, [u], _QStack.of((rep.q,)))
    _require_finite("the Lax matrix is not finite at", lax, us=[u])
    return lax[0]


def _laxes(sp, sm, weights: np.ndarray, us, qs: _QStack) -> np.ndarray:
    """:func:`build_lax` at (u_s, q_s) for every sample s, an (S, 2d, 2d)
    array, q_s from the stack ``qs``; ``sp`` and ``sm`` are (S, d, d)
    stacks, or the (d, d) matrices of one representation that every sample
    shares.
    """
    d = weights.size
    u = np.asarray(us, complex)[:, None]
    lax = np.zeros((len(us), 2 * d, 2 * d), complex)
    k = np.arange(2 * d)
    lax[:, k, k] = _qnums(np.concatenate([u + weights, u - weights], axis=1), qs)
    lax[:, :d, d:] = sm
    lax[:, d:, :d] = sp
    return lax


def fundamental_r(u: complex, q: DeformationParameter) -> np.ndarray:
    """The 4x4 six-vertex matrix with entries a = [u+1], b = [u], c = 1:
    trigonometric at generic q, rational (a = u+1, b = u) at q = 1.  The
    stack of one of :func:`_fundamental_rs`; :class:`ParameterDomainError` on overflow."""
    _check_finite(u=u)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r = _fundamental_rs([u], _QStack.of((q,)))
    _require_finite("the six-vertex matrix is not finite at", r, us=[u])
    return r[0]


def _fundamental_rs(us, qs: _QStack) -> np.ndarray:
    """:func:`fundamental_r` at (u_s, q_s) for every sample s, an (S, 4, 4)
    array, q_s from the stack ``qs``."""
    u = np.asarray(us, complex)[:, None]
    ab = _qnums(np.concatenate([u + 1, u], axis=1), qs)
    r = np.zeros((len(us), 4, 4), complex)
    r[:, [0, 3], [0, 3]] = ab[:, :1]
    r[:, [1, 2], [1, 2]] = ab[:, 1:]
    r[:, [1, 2], [2, 1]] = 1
    return r
