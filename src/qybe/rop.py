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
from .qcore import RATIONAL, DeformationParameter, qnum
from .rep import fundamental_r
from .tensorrep import COND_LIMIT, ProductSpace, weight_reversed

POLE_TOL = 1e-8


@dataclasses.dataclass(frozen=True)
class REigenvalues:
    """Sector eigenvalues from the recurrence, plus the closed product route."""

    values: tuple
    product_values: tuple
    r0: complex
    ell1: complex
    ell2: complex
    u: complex

    @property
    def ratios(self) -> tuple:
        return tuple(v / self.r0 for v in self.values)


def _top_sector(ell1, ell2) -> int:
    """The last sector index, 2 min(l1, l2)."""
    return int(round(2 * min(float(np.real(ell1)), float(np.real(ell2)))))


def eigenvalue_sequence(ell1, ell2, u: complex, q: DeformationParameter,
                        r0: complex = 1.0) -> REigenvalues:
    """R_n for every sector n by the two-term recurrence and by the product form.

    At q = :data:`qcore.RATIONAL` the q-numbers are plain numbers, [x] = x.
    Raises :class:`PoleAtSector` when a denominator [l1+l2+1-n+u] vanishes.
    """
    if q is None:
        raise ParameterDomainError(
            "the eigenvalues need a deformation parameter (RATIONAL for the rational point)")
    big_l = ell1 + ell2 + 1
    vals = [complex(r0)]
    num_prod, den_prod = 1.0 + 0j, 1.0 + 0j
    prods = [complex(r0)]
    for n in range(1, _top_sector(ell1, ell2) + 1):
        den = qnum(big_l - n + u, q)
        if abs(den) < POLE_TOL:
            raise PoleAtSector(n)
        num = qnum(big_l - n - u, q)
        vals.append(-vals[-1] * num / den)
        num_prod *= num
        den_prod *= den
        prods.append((-1) ** n * r0 * num_prod / den_prod)
    return REigenvalues(values=tuple(vals), product_values=tuple(prods), r0=complex(r0),
                        ell1=complex(ell1), ell2=complex(ell2), u=complex(u))


@dataclasses.dataclass(frozen=True)
class RMatrix:
    matrix: np.ndarray
    u: complex
    q: DeformationParameter
    ell1: complex
    ell2: complex
    basis_tag: str
    normalization: str

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def mode(self) -> str:
        """Which R this is: "xxx" at the rational point (q on the zero log branch),
        "xxz" elsewhere."""
        return "xxx" if self.q.log_branch == 0 else "xxz"


def assemble_R(ell1, ell2, u: complex, q: DeformationParameter | None = None,
               mode: str = "xxz", r0: complex = 1.0, basis: str = "orthonormal",
               *, space: ProductSpace | None = None) -> RMatrix:
    """Solve the spectral problem for the R-matrix on the tensor product.

    Columns of the unbarred eigenvector family at u are mapped to the
    barred family at -u scaled by the sector eigenvalues; the barred
    counterpart relation is left as an independent check for the caller.
    ``mode="xxx"`` stands for q = :data:`qcore.RATIONAL` in the monomial
    basis and replaces q and ``basis``.  ``space`` is the
    :class:`ProductSpace` of the two spins in ``basis`` over q, when the
    caller shares one (and its spectral form) with other work at the same
    point; it is built here otherwise.

    R(u) = T_u (sum_b PhiBar_b D(u) Phi_b^{-1}) T_u^{-1} is evaluated from
    the :class:`SpectralForm` of the space, one weight block b at a time.
    """
    if mode == "xxx":
        q, basis = RATIONAL, "monomial"
    elif mode != "xxz":
        raise ParameterDomainError(f"unknown mode {mode!r}")
    eig = eigenvalue_sequence(ell1, ell2, u, q, r0)
    if space is None:
        space = ProductSpace.of_spins(ell1, ell2, q, basis)
    form = space.spectral_form()
    layout = form.layout
    layout.require_conditioned(form.cond, COND_LIMIT)
    blocks = (form.left * np.asarray(eig.values)) @ form.right
    d = space.weights.size
    m = np.zeros(d * d, complex)
    m[layout.dst] = blocks[layout.inside] * space.q.pow(eig.u * layout.twist)
    return RMatrix(matrix=m.reshape(d, d), u=eig.u, q=q, ell1=eig.ell1, ell2=eig.ell2,
                   basis_tag=basis, normalization=f"R_0 = {r0}")


def closed_form_R(ell1, ell2, u: complex, q: DeformationParameter,
                  r0: complex = 1.0) -> RMatrix:
    """Tabulated matrices for the pairs (1/2,1/2), (1/2,1), (1,1), at any q
    including the rational point :data:`qcore.RATIONAL`.

    (1/2,1/2) is the six-vertex :func:`rep.fundamental_r`.  The other
    entries are transcribed in descending-weight ordering (orthonormal
    single-spin bases) and flipped to the canonical ascending ordering.
    """
    key = (int(round(2 * float(np.real(ell1)))), int(round(2 * float(np.real(ell2)))))
    b = lambda x: qnum(x, q)
    if key == (1, 1):
        m = fundamental_r(u, q) * (r0 / b(u + 1))
        tag = "monomial"
    elif key == (1, 2):
        s = np.sqrt(qnum(1, q) * qnum(2, q))
        m = np.zeros((6, 6), complex)
        m[0, 0] = m[5, 5] = b(u + 1.5)
        m[1, 1] = m[4, 4] = b(u + 0.5)
        m[2, 2] = m[3, 3] = b(u - 0.5)
        m[1, 3] = m[3, 1] = m[2, 4] = m[4, 2] = s
        m *= r0 / b(u + 1.5)
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
        m *= r0 / (b(u + 1) * b(u + 2))
        tag = "orthonormal"
    else:
        raise UnsupportedPair(f"no tabulated matrix for spins ({ell1}, {ell2})")
    return RMatrix(matrix=weight_reversed(m), u=complex(u), q=q, ell1=complex(ell1),
                   ell2=complex(ell2), basis_tag=tag, normalization=f"R_0 = {r0}")


def normalize_global(m: np.ndarray) -> np.ndarray:
    """Divide by the entry of largest modulus (global-scalar-free comparison)."""
    flat = m.ravel()
    return m / flat[np.argmax(np.abs(flat))]
