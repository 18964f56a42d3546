"""Universal R-operator: eigenvalue recurrences and spectral assembly.

Eigenvalues obey R_n / R_{n-1} = -[l1+l2+1-n-u] / [l1+l2+1-n+u] (with
plain numbers replacing q-numbers in the rational mode).  The matrix is
assembled by solving R Phi(u) = PhiBar(-u) D on the full eigenvector
family, where D is diagonal in the sector eigenvalues.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ParameterDomainError, PoleAtSector, SingularBasis, UnsupportedPair
from .qcore import DeformationParameter, qnum
from .tensorrep import EigenSector, ProductSpace, kron, weight_reversed

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


def _bracket(x, q: DeformationParameter | None):
    return x if q is None else qnum(x, q)


def _top_sector(ell1, ell2) -> int:
    """The last sector index, 2 min(l1, l2)."""
    return int(round(2 * min(float(np.real(ell1)), float(np.real(ell2)))))


def eigenvalue_sequence(ell1, ell2, u: complex, q: DeformationParameter | None = None,
                        mode: str = "xxz", r0: complex = 1.0) -> REigenvalues:
    """R_n for every sector n by the two-term recurrence and by the product form.

    mode "xxz" needs q; mode "xxx" uses undeformed numbers.  Raises
    :class:`PoleAtSector` when a denominator [l1+l2+1-n+u] vanishes.
    """
    if mode == "xxz" and q is None:
        raise ParameterDomainError("xxz mode needs a deformation parameter")
    if mode == "xxx":
        q = None
    elif mode != "xxz":
        raise ParameterDomainError(f"unknown mode {mode!r}")
    big_l = ell1 + ell2 + 1
    vals = [complex(r0)]
    num_prod, den_prod = 1.0 + 0j, 1.0 + 0j
    prods = [complex(r0)]
    for n in range(1, _top_sector(ell1, ell2) + 1):
        den = _bracket(big_l - n + u, q)
        if abs(den) < POLE_TOL:
            raise PoleAtSector(n)
        num = _bracket(big_l - n - u, q)
        vals.append(-vals[-1] * num / den)
        num_prod *= num
        den_prod *= den
        prods.append((-1) ** n * r0 * num_prod / den_prod)
    return REigenvalues(values=tuple(vals), product_values=tuple(prods), r0=complex(r0),
                        mode=mode, ell1=complex(ell1), ell2=complex(ell2), u=complex(u))


def eigenvalue_ratios(ell1, ell2, u: complex, q: DeformationParameter,
                      branch_shift: int = 0) -> np.ndarray:
    """R_n / R_0 with the spectral power z = q^u frozen on the unshifted branch.

    Only the spin-related powers of q move with ``branch_shift``; this is
    the single-valuedness probe in log q at fixed spectral variable.
    """
    z = q.pow(u)
    lq = q.log_branch + 2j * np.pi * branch_shift
    big_l = ell1 + ell2 + 1
    out = [1.0 + 0j]
    cur = 1.0 + 0j
    for n in range(1, _top_sector(ell1, ell2) + 1):
        num = np.exp((big_l - n) * lq) / z - np.exp(-(big_l - n) * lq) * z
        den = np.exp((big_l - n) * lq) * z - np.exp(-(big_l - n) * lq) / z
        if abs(den) < POLE_TOL:
            raise PoleAtSector(n)
        cur *= -num / den
        out.append(cur)
    return np.array(out)


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


def _classical_triple(ell) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    d = int(round(2 * ell)) + 1
    sp = np.zeros((d, d), complex)
    sm = np.zeros((d, d), complex)
    for k in range(1, d):
        sm[k - 1, k] = k
    for k in range(d - 1):
        sp[k + 1, k] = 2 * ell - k
    return sp, sm, np.arange(d) - ell


def _assemble_rational(ell1, ell2, u: complex, r0: complex) -> np.ndarray:
    sp1, _, _ = _classical_triple(ell1)
    sp2, _, _ = _classical_triple(ell2)
    d1, d2 = sp1.shape[0], sp2.shape[0]
    sp = kron(sp1, np.eye(d2)) + kron(np.eye(d1), sp2)
    eig = eigenvalue_sequence(ell1, ell2, u, mode="xxx", r0=r0)
    cols, diag = [], []
    for n in range(min(d1, d2)):
        c = np.zeros((d1, d2), complex)
        for j in range(n + 1):
            c[j, n - j] = math.comb(n, j) * (-1) ** (n - j)
        v = c.ravel()
        for m in range(d1 + d2 - 2 * n - 1):
            cols.append(v)
            diag.append(eig.values[n])
            v = sp @ v
    phi = np.array(cols).T
    if np.linalg.cond(phi) > COND_LIMIT:
        raise SingularBasis("eigenvector matrix is ill-conditioned at this point")
    return phi @ np.diag(diag) @ np.linalg.inv(phi)


def _sector_solve(eig: REigenvalues, sec_u: list[EigenSector], sec_mu: list[EigenSector],
                  q: DeformationParameter, basis: str, r0: complex) -> RMatrix:
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
    return RMatrix(matrix=m, u=eig.u, q=q, mode="xxz", ell1=eig.ell1, ell2=eig.ell2,
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
    it is built here otherwise.
    """
    if mode == "xxx":
        m = _assemble_rational(ell1, ell2, u, r0)
        return RMatrix(matrix=m, u=complex(u), q=None, mode="xxx", ell1=complex(ell1),
                       ell2=complex(ell2), basis_tag="monomial",
                       normalization=f"R_0 = {r0}")
    if q is None:
        raise ParameterDomainError("xxz mode needs a deformation parameter")
    eig = eigenvalue_sequence(ell1, ell2, u, q, mode="xxz", r0=r0)
    if space is None:
        space = ProductSpace.of_spins(ell1, ell2, q, basis)
    return _sector_solve(eig, space.sectors(u), space.sectors(-u), q, basis, r0)


def assemble_R_pair(ell1, ell2, u: complex, q: DeformationParameter | None = None,
                    mode: str = "xxz", r0: complex = 1.0,
                    basis: str = "orthonormal") -> tuple[RMatrix, RMatrix]:
    """(R(u), R(-u)), equal to two :func:`assemble_R` calls.

    In xxz mode both solves share one product space and its sector builds
    at u and at -u.
    The checks R(u) needs run before those only R(-u) needs, so the first
    error raised is the one the two separate calls would raise.
    """
    if mode == "xxx":
        return (assemble_R(ell1, ell2, u, q, mode, r0, basis),
                assemble_R(ell1, ell2, -u, q, mode, r0, basis))
    if q is None:
        raise ParameterDomainError("xxz mode needs a deformation parameter")
    eig_u = eigenvalue_sequence(ell1, ell2, u, q, mode="xxz", r0=r0)
    space = ProductSpace.of_spins(ell1, ell2, q, basis)
    sec_u, sec_mu = space.sectors(u), space.sectors(-u)
    r_u = _sector_solve(eig_u, sec_u, sec_mu, q, basis, r0)
    eig_mu = eigenvalue_sequence(ell1, ell2, -u, q, mode="xxz", r0=r0)
    return r_u, _sector_solve(eig_mu, sec_mu, sec_u, q, basis, r0)


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
