"""Universal R-operator: the eigenvalue recurrence and the spectral assembly.

Eigenvalues obey R_n / R_{n-1} = -[l1+l2+1-n-u] / [l1+l2+1-n+u].  The
matrix is assembled by solving R Phi(u) = PhiBar(-u) D on the full
eigenvector family, where D is diagonal in the sector eigenvalues.  The
rational (xxx) mode is the point q = 1 (:data:`qcore.RATIONAL`) of the
same construction: q-numbers become plain numbers there.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ParameterDomainError, PoleAtSector, SingularBasis, UnsupportedPair
from .qcore import RATIONAL, DeformationParameter, qnum
from .tensorrep import EigenSector, ProductSpace, _descend, lowest_weight_coeffs, weight_reversed

POLE_TOL = 1e-8
COND_LIMIT = 1e12


@dataclasses.dataclass(frozen=True)
class REigenvalues:
    """Sector eigenvalues from the recurrence, plus the closed product route."""

    values: tuple
    product_values: tuple
    r0: complex
    mode: str
    ell1: complex
    ell2: complex
    u: complex

    @property
    def ratios(self) -> tuple:
        return tuple(v / self.r0 for v in self.values)


def _top_sector(ell1, ell2) -> int:
    """The last sector index, 2 min(l1, l2)."""
    return int(round(2 * min(float(np.real(ell1)), float(np.real(ell2)))))


def eigenvalue_sequence(ell1, ell2, u: complex, q: DeformationParameter | None = None,
                        mode: str = "xxz", r0: complex = 1.0) -> REigenvalues:
    """R_n for every sector n by the two-term recurrence and by the product form.

    mode "xxz" needs q; mode "xxx" is q = 1, where [x] = x.  Raises
    :class:`PoleAtSector` when a denominator [l1+l2+1-n+u] vanishes.
    """
    if mode == "xxx":
        q = RATIONAL
    elif mode != "xxz":
        raise ParameterDomainError(f"unknown mode {mode!r}")
    elif q is None:
        raise ParameterDomainError("xxz mode needs a deformation parameter")
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
                        mode=mode, ell1=complex(ell1), ell2=complex(ell2), u=complex(u))


@dataclasses.dataclass(frozen=True)
class RMatrix:
    matrix: np.ndarray
    u: complex
    q: DeformationParameter | None
    mode: str
    ell1: complex
    ell2: complex
    basis_tag: str
    normalization: str

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _rational_sectors(ell1, ell2) -> list[EigenSector]:
    """The eigen-sectors at q = 1: the chains of (x1 - x2)^n under the
    untwisted S+ on the monomial basis.

    At q = 1 the coproduct does not depend on u and the barred family
    equals the unbarred one, so each chain serves as both.  The global rank
    test of :meth:`ProductSpace.sectors` is not applied: at q = 1 its
    largest-entry scale rejects every pair up to (4, 4) whose spins sum to
    6 or more.
    """
    space = ProductSpace.of_spins(ell1, ell2, RATIONAL)
    sp = space.coproduct().gens.sp
    d1, d2 = (rep.dim for rep in space.parents)
    sectors = []
    for n in range(min(d1, d2)):
        v = lowest_weight_coeffs(ell1, ell2, n, 0.0, RATIONAL, d1, d2)
        chain = _descend(sp, v, d1 + d2 - 2 * n - 1, 1e-10)
        sectors.append(EigenSector(n=n, descendants=chain, barred_descendants=chain))
    return sectors


def _sectors_pm(ell1, ell2, u: complex, q: DeformationParameter | None, mode: str,
                basis: str, space: ProductSpace | None):
    """The sectors at u and at -u, with the q and the basis R is reported in.

    In the rational mode one list, built at q = 1, serves both.
    """
    if mode == "xxx":
        sectors = _rational_sectors(ell1, ell2)
        return sectors, sectors, None, "monomial"
    if space is None:
        space = ProductSpace.of_spins(ell1, ell2, q, basis)
    return space.sectors(u), space.sectors(-u), q, basis


def _sector_solve(eig: REigenvalues, sec_u: list[EigenSector], sec_mu: list[EigenSector],
                  q: DeformationParameter | None, basis: str, r0: complex) -> RMatrix:
    """R(u) from R Phi(u) = PhiBar(-u) D, with Phi(u) the raising chains of
    the sectors built at u and PhiBar(-u) the barred chains of those at -u."""
    cols_u, cols_mu, diag = [], [], []
    for s_u, s_mu in zip(sec_u, sec_mu):
        if len(s_u.descendants) != len(s_mu.barred_descendants):
            raise SingularBasis(f"chain lengths differ at sector {s_u.n}")
        cols_u.extend(s_u.descendants)
        cols_mu.extend(s_mu.barred_descendants)
        diag.extend([eig.values[s_u.n]] * len(s_u.descendants))
    phi = np.array(cols_u).T
    phib = np.array(cols_mu).T
    if np.linalg.cond(phi) > COND_LIMIT:
        raise SingularBasis("eigenvector matrix is ill-conditioned at this point")
    m = phib @ np.diag(diag) @ np.linalg.inv(phi)
    return RMatrix(matrix=m, u=eig.u, q=q, mode=eig.mode, ell1=eig.ell1, ell2=eig.ell2,
                   basis_tag=basis, normalization=f"R_0 = {r0}")


def assemble_R(ell1, ell2, u: complex, q: DeformationParameter | None = None,
               mode: str = "xxz", r0: complex = 1.0, basis: str = "orthonormal",
               *, space: ProductSpace | None = None) -> RMatrix:
    """Solve the spectral problem for the R-matrix on the tensor product.

    Columns of the unbarred eigenvector family at u are mapped to the
    barred family at -u scaled by the sector eigenvalues; the barred
    counterpart relation is left as an independent check for the caller.
    ``space`` is the :class:`ProductSpace` of the two spins in ``basis``
    over q, when the caller shares one with other work at the same point;
    it is built here otherwise.  The rational mode ignores q, ``basis`` and
    ``space``: it solves at q = 1 in the monomial basis.
    """
    eig = eigenvalue_sequence(ell1, ell2, u, q, mode, r0)
    return _sector_solve(eig, *_sectors_pm(ell1, ell2, u, q, mode, basis, space), r0)


def assemble_R_pair(ell1, ell2, u: complex, q: DeformationParameter | None = None,
                    mode: str = "xxz", r0: complex = 1.0,
                    basis: str = "orthonormal") -> tuple[RMatrix, RMatrix]:
    """(R(u), R(-u)), equal to two :func:`assemble_R` calls.

    Both solves share one sector build at u and one at -u.
    The checks R(u) needs run before those only R(-u) needs, so the first
    error raised is the one the two separate calls would raise.
    """
    eig_u = eigenvalue_sequence(ell1, ell2, u, q, mode, r0)
    sec_u, sec_mu, q_r, basis_r = _sectors_pm(ell1, ell2, u, q, mode, basis, None)
    r_u = _sector_solve(eig_u, sec_u, sec_mu, q_r, basis_r, r0)
    eig_mu = eigenvalue_sequence(ell1, ell2, -u, q, mode, r0)
    return r_u, _sector_solve(eig_mu, sec_mu, sec_u, q_r, basis_r, r0)


def closed_form_R(ell1, ell2, u: complex, q: DeformationParameter,
                  r0: complex = 1.0) -> RMatrix:
    """Tabulated matrices for the pairs (1/2,1/2), (1/2,1), (1,1).

    Entries are transcribed in descending-weight ordering (orthonormal
    single-spin bases) and flipped to the canonical ascending ordering.
    """
    key = (int(round(2 * float(np.real(ell1)))), int(round(2 * float(np.real(ell2)))))
    b = lambda x: qnum(x, q)
    c_q = q.value - 1 / q.value
    if key == (1, 1):
        a = q.pow(u + 1) - q.pow(-u - 1)
        bb = q.pow(u) - q.pow(-u)
        m = np.array([[a, 0, 0, 0],
                      [0, bb, c_q, 0],
                      [0, c_q, bb, 0],
                      [0, 0, 0, a]], dtype=complex)
        m *= r0 / (c_q * b(u + 1))
        tag = "monomial"
    elif key == (1, 2):
        s = np.sqrt(q.value + 1 / q.value)
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
    return RMatrix(matrix=weight_reversed(m), u=complex(u), q=q, mode="xxz",
                   ell1=complex(ell1), ell2=complex(ell2), basis_tag=tag,
                   normalization=f"R_0 = {r0}")


def normalize_global(m: np.ndarray) -> np.ndarray:
    """Divide by the entry of largest modulus (global-scalar-free comparison)."""
    flat = m.ravel()
    return m / flat[np.argmax(np.abs(flat))]
