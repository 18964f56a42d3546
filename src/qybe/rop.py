"""Universal R-operator: the eigenvalue recurrence and the spectral assembly.

Eigenvalues obey R_n / R_{n-1} = -[l1+l2+1-n-u] / [l1+l2+1-n+u].  The
matrix solves R Phi(u) = PhiBar(-u) D, where D is diagonal in the sector
eigenvalues.  The twist is a diagonal similarity T_u, so the eigenvector
families at u = 0 serve every u, one weight block at a time (see
:class:`tensorrep.SpectralForm`).  The rational (xxx) R is the point
q = 1 (:data:`qcore.RATIONAL`) of the same construction: q-numbers become
plain numbers there, T_u = 1 and the barred family is the unbarred one.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ParameterDomainError, PoleAtSector, UnsupportedPair
from .qcore import RATIONAL, DeformationParameter, _check_finite, _qnums, _QStack, qnum
from .rep import _two_spin, fundamental_r
from .tensorrep import ProductSpace, SpectralForm, weight_reversed

POLE_TOL = 1e-8


def _top_sector(ell1, ell2) -> int:
    """The last sector index, 2 min(l1, l2); :class:`BadSpin` unless both
    are finite spins."""
    return min(_two_spin(ell1), _two_spin(ell2))


def _pole_offsets(ell1, ell2) -> list:
    """l1+l2+1-n for every sector n = 1..top, the offsets x of the
    eigenvalues' denominators [x+u] and numerators [x-u]; Python numbers,
    so that a scalar :func:`qcore.qnum` of one takes its ``cmath`` path."""
    return [ell1 + ell2 + 1 - n for n in range(1, _top_sector(ell1, ell2) + 1)]


def eigenvalue_sequence(ell1, ell2, u: complex, q: DeformationParameter) -> tuple:
    """R_n for every sector n by the two-term recurrence, with R_0 = 1.

    At q = :data:`qcore.RATIONAL` the q-numbers are plain numbers, [x] = x.
    Raises :class:`BadSpin` unless both spins are finite,
    :class:`PoleAtSector` when a denominator [l1+l2+1-n+u] vanishes, and
    :class:`ParameterDomainError`, naming the spins and u, when |u| is so
    large that an eigenvalue is not finite.  The stack of one of
    :func:`_eigenvalues`.
    """
    _check_finite(u=u)
    vals = _eigenvalues(ell1, ell2, [u], _QStack.of((q,)))
    _require_finite(ell1, ell2, [u], vals)
    return tuple(vals[0])


def _require_finite(ell1, ell2, us, vals: np.ndarray) -> None:
    """The :class:`ParameterDomainError` of :func:`eigenvalue_sequence` for
    the first row of ``vals``, the eigenvalues at u = us[s], that is not
    finite."""
    for u, finite in zip(us, np.isfinite(vals).all(axis=1).tolist()):
        if not finite:
            raise ParameterDomainError(
                f"the eigenvalues are not finite at spins ({ell1}, {ell2}), u = {complex(u)}: "
                "a power of q overflows")


def _eigenvalues(ell1, ell2, us, qs: _QStack) -> np.ndarray:
    """R_n of every sector n (columns) at every sample (u_s, q_s) (rows), q_s
    from the stack ``qs``, by the recurrence of :func:`eigenvalue_sequence`;
    raises the :class:`PoleAtSector` of the first sector with a pole in the
    lowest row that has one.  The recurrence is one cumulative product along
    the sectors; a sample past an overflow is not finite.
    """
    x = np.array(_pole_offsets(ell1, ell2))
    u = np.asarray(us, complex)[:, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        qn = _qnums(np.concatenate([x + u, x - u], axis=1), qs)
        den = qn[:, :x.size]
        vals = np.ones((len(us), x.size + 1), complex)
        vals[:, 1:] = np.cumprod(-qn[:, x.size:] / den, axis=1)
    small = np.abs(den) < POLE_TOL
    if small.any():
        raise PoleAtSector(int(np.argmax(small[small.any(axis=1)][0])) + 1)
    return vals


@dataclasses.dataclass(frozen=True)
class RMatrix:
    matrix: np.ndarray
    u: complex
    q: DeformationParameter
    ell1: complex
    ell2: complex
    basis_tag: str

    @property
    def normalization(self) -> str:
        """Every R is normalised by its sector-0 eigenvalue, R_0 = 1."""
        return "R_0 = 1.0"

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def mode(self) -> str:
        """Which R this is: "xxx" at the rational point (q on the zero log branch),
        "xxz" elsewhere."""
        return "xxx" if self.q.log_branch == 0 else "xxz"


def assemble_R(ell1, ell2, u: complex, q: DeformationParameter | None = None,
               mode: str = "xxz", basis: str = "orthonormal") -> RMatrix:
    """Solve the spectral problem for the R-matrix on the tensor product.

    Columns of the unbarred eigenvector family at u are mapped to the
    barred family at -u scaled by the sector eigenvalues; the barred
    counterpart relation is left as an independent check for the caller.
    ``mode="xxx"`` stands for q = :data:`qcore.RATIONAL` in the monomial
    basis and replaces q and ``basis``.

    R(u) = T_u (sum_b PhiBar_b D(u) Phi_b^{-1}) T_u^{-1} is evaluated from
    the :class:`SpectralForm` of :meth:`ProductSpace.of_spins`, one weight
    block b at a time; calls at one (spins, q, basis) share that form.
    Where |u| is so large that a power of q overflows, the matrix is not
    finite and :class:`ParameterDomainError` names the spins and u.  The
    stack of one of :func:`_eigenvalues` and :func:`_solve`.
    """
    if mode == "xxx":
        q, basis = RATIONAL, "monomial"
    elif mode != "xxz":
        raise ParameterDomainError(f"unknown mode {mode!r}")
    _check_finite(u=u)
    u = complex(u)
    qs = _QStack.of((q,))
    eig = _eigenvalues(ell1, ell2, [u], qs)
    form = ProductSpace.of_spins(ell1, ell2, q, basis).spectral_form()
    m = _solve(ell1, ell2, [u], qs, eig, form)
    return RMatrix(matrix=m[0], u=u, q=q, ell1=complex(ell1), ell2=complex(ell2),
                   basis_tag=basis)


def _solve(ell1, ell2, us, qs: _QStack, eig: np.ndarray, form: SpectralForm) -> np.ndarray:
    """R(u_s) at q_s for every row s, an (S, d, d) array, q_s from the stack
    ``qs``, from the sector eigenvalues ``eig`` (S, k) and the spectral form
    of F samples, whose blocks :meth:`ProductSpace.chain_pass` judged when
    it cut them; raises :class:`ParameterDomainError`, naming the u of the
    lowest such row, where the matrix is not finite.  Row s reads sample s
    mod F of the form, broadcast, not copied: F is S (one sample per row),
    a divisor of S (rows at several u per sample) or 1 (one form that every
    row shares)."""
    layout = form.layout
    count, samples = len(us), len(form.cond)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = form.left * eig.reshape(-1, samples, 1, 1, eig.shape[1])
        blocks = (scaled @ form.right).reshape(count, -1)
        twist = np.asarray(us, complex)[:, None] * layout.twist
        lb = qs.log_branch[:, None]
        # named, so that numpy cannot reuse it as the output of the product:
        # it computes into a temporary right operand of 256 KiB or more with
        # the factors swapped, which can move a last bit
        powers = np.exp(twist * lb)
        m = np.zeros((count, layout.dim * layout.dim), complex)
        m[:, layout.dst] = blocks[:, layout.inside_flat] * powers
    finite = np.isfinite(m).all(axis=1)
    if not finite.all():
        raise ParameterDomainError(f"R is not finite at spins ({ell1}, {ell2}), "
                                   f"u = {us[int(np.argmin(finite))]}: a power of q overflows")
    return m.reshape(count, layout.dim, layout.dim)


def closed_form_R(ell1, ell2, u: complex, q: DeformationParameter) -> RMatrix:
    """Tabulated matrices for the pairs (1/2,1/2), (1/2,1), (1,1), at any q
    including the rational point :data:`qcore.RATIONAL`.

    (1/2,1/2) is the six-vertex :func:`rep.fundamental_r`.  The other
    entries are transcribed in descending-weight ordering (orthonormal
    single-spin bases) and flipped to the canonical ascending ordering.
    Where |u| is so large that a power of q overflows,
    :class:`ParameterDomainError` names the spins and u.
    """
    _check_finite(u=u)
    with np.errstate(over="ignore", invalid="ignore"):
        m, tag = _tabulated(ell1, ell2, u, q)
    if not np.isfinite(m).all():
        raise ParameterDomainError(
            f"R is not finite at spins ({ell1}, {ell2}), u = {complex(u)}: a power of q overflows")
    return RMatrix(matrix=weight_reversed(m), u=complex(u), q=q, ell1=complex(ell1),
                   ell2=complex(ell2), basis_tag=tag)


def _tabulated(ell1, ell2, u: complex, q: DeformationParameter) -> tuple[np.ndarray, str]:
    """The matrix of :func:`closed_form_R` in descending-weight ordering, and its basis."""
    key = (_two_spin(ell1), _two_spin(ell2))
    b = lambda x: qnum(x, q)
    if key == (1, 1):
        m = fundamental_r(u, q) / b(u + 1)
        tag = "monomial"
    elif key == (1, 2):
        s = np.sqrt(qnum(1, q) * qnum(2, q))
        m = np.zeros((6, 6), complex)
        m[0, 0] = m[5, 5] = b(u + 1.5)
        m[1, 1] = m[4, 4] = b(u + 0.5)
        m[2, 2] = m[3, 3] = b(u - 0.5)
        m[1, 3] = m[3, 1] = m[2, 4] = m[4, 2] = s
        m /= b(u + 1.5)
        tag = "orthonormal"
    elif key == (2, 2):
        m = np.zeros((9, 9), complex)
        m[0, 0] = m[8, 8] = b(u + 1) * b(u + 2)
        m[1, 1] = m[3, 3] = m[5, 5] = m[7, 7] = b(u) * b(u + 1)
        m[1, 3] = m[3, 1] = m[5, 7] = m[7, 5] = b(2) * b(u + 1)
        m[2, 2] = m[6, 6] = b(u) * b(u - 1)
        m[2, 4] = m[4, 2] = m[4, 6] = m[6, 4] = b(2) * b(u)
        m[2, 6] = m[6, 2] = b(2)
        m[4, 4] = b(u) * b(u + 1) + b(2)
        m /= b(u + 1) * b(u + 2)
        tag = "orthonormal"
    else:
        raise UnsupportedPair(f"no tabulated matrix for spins ({ell1}, {ell2})")
    return m, tag


def normalize_global(m: np.ndarray) -> np.ndarray:
    """Divide by the entry of largest modulus (global-scalar-free comparison)."""
    flat = m.ravel()
    return m / flat[np.argmax(np.abs(flat))]
