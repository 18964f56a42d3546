"""Spectral-parameter-twisted tensor products and their eigen-sectors.

Product basis is x1-major ascending: index (j, k) -> j*d2 + k for the
monomial x1^j x2^k.  Printed conventions that list vectors by descending
weight are recovered by reversing the index order (see
:func:`weight_reversed`).
"""
from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .errors import (BadSpin, CompletenessFailure, DimensionMismatch, ParameterDomainError,
                     SingularBasis)
from .qcore import DeformationParameter, _nan_max, qnum
from .rep import OperatorTriple, _half_integer_or_none, build_spin_rep, casimir_matrix

# the largest condition number an eigenvector weight block may have
COND_LIMIT = 1e12
# the largest lowest-weight residual, and the smallest relative chain size,
# that a sector's raising chain may have
CHAIN_TOL = 1e-10
# how many spaces ProductSpace.of_spins keeps, each with its spectral form:
# callers visit one (spins, q, basis) at a time, so two catch every repeat
_SPACE_MEMO_SIZE = 2
# how many block layouts _BlockLayout.of_dims keeps, one per (d1, d2)
_LAYOUT_MEMO_SIZE = 16


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


def _require_shared_q(q1: DeformationParameter, q2: DeformationParameter) -> None:
    """Tensor factors must share q and its log branch."""
    if abs(q1.value - q2.value) > 1e-12 or abs(q1.log_branch - q2.log_branch) > 1e-12:
        raise DimensionMismatch("tensor factors must share the deformation parameter")


class ProductSpace:
    """The tensor product of two factor representations over one q.

    Holds the product ``weights`` and ``from_monomial`` and, for each
    coproduct kind, the four Kronecker pieces that do not depend on u
    (S1-/+ x q^{+-S2} and q^{-+S1} x S2-/+); the pieces of both kinds are
    built together the first time either kind is used.  A twisted coproduct
    at any u is then two sums weighted by q^{u/2}, so one space serves every
    u, every kind and every caller of one sampled point.  For two finite spins it also holds the
    :class:`SpectralForm` of R, built the first time it is asked for.
    Its arrays are read-only, since :meth:`of_spins` shares one space
    among all its callers.
    """

    def __init__(self, rep1: OperatorTriple, rep2: OperatorTriple):
        _require_shared_q(rep1.q, rep2.q)
        self.parents = (rep1, rep2)
        self.q = rep1.q
        self.weights = _read_only(np.add.outer(rep1.weights, rep2.weights).ravel())
        self.from_monomial = None
        if rep1.from_monomial is not None or rep2.from_monomial is not None:
            d1 = rep1.from_monomial if rep1.from_monomial is not None else np.ones(rep1.dim)
            d2 = rep2.from_monomial if rep2.from_monomial is not None else np.ones(rep2.dim)
            self.from_monomial = _read_only(kron(d1, d2))
        self._pieces: dict[str, tuple[np.ndarray, ...]] = {}
        self._form: SpectralForm | None = None

    @staticmethod
    def of_spins(ell1, ell2, q: DeformationParameter,
                 basis: str = "monomial") -> "ProductSpace":
        """The space of two finite spins in one single-spin basis.

        Memoised on (2 l1, 2 l2, q, basis) for the last
        :data:`_SPACE_MEMO_SIZE` keys, so every caller at one point shares
        one space and its spectral form.  The factors are built from the
        spins 2l/2, so every spelling of a spin (0.5, 0.5 + 0j) gives the
        same space.
        """
        return _spin_space(_two_spin(ell1), _two_spin(ell2), q, basis)

    def _kind_pieces(self, kind: str) -> tuple[np.ndarray, ...]:
        if kind not in ("delta", "deltabar"):
            raise ParameterDomainError(f"unknown coproduct kind {kind!r}")
        if not self._pieces:
            # the eight pieces of both kinds, as one broadcast Kronecker
            # product of stacked factors (kron's entries, bit for bit)
            rep1, rep2 = self.parents
            q1 = {s: rep1.qs(s) for s in (1, -1)}
            q2 = {s: rep2.qs(s) for s in (1, -1)}
            left = np.array([(rep1.sm, q1[-s], rep1.sp, q1[-s]) for s in (1, -1)])
            right = np.array([(q2[s], rep2.sm, q2[s], rep2.sp) for s in (1, -1)])
            d = rep1.dim * rep2.dim
            pieces = _read_only((left[..., :, None, :, None] * right[..., None, :, None, :])
                                .reshape(2, 4, d, d))
            self._pieces = {"delta": tuple(pieces[0]), "deltabar": tuple(pieces[1])}
        return self._pieces[kind]

    def coproduct(self, kind: str = "delta", u: complex = 0.0) -> OperatorTriple:
        """The tensor-product generators of ``kind`` twisted by the spectral
        parameter u:

            "delta":     S-_u = q^{u/2+S2} S1- + q^{-u/2-S1} S2-,
                         S+_u = q^{-u/2+S2} S1+ + q^{u/2-S1} S2+;
            "deltabar":  the q -> 1/q twin (all twist exponents negated).
        """
        sm1, sm2, sp1, sp2 = self._kind_pieces(kind)
        qu = self.q.pow(u / 2)
        if kind == "delta":
            sm = qu * sm1 + sm2 / qu
            sp = sp1 / qu + qu * sp2
        else:
            sm = sm1 / qu + qu * sm2
            sp = qu * sp1 + sp2 / qu
        rep1, rep2 = self.parents
        return OperatorTriple(sp=sp, sm=sm, weights=self.weights, q=self.q,
                              basis_tag=f"{rep1.basis_tag}*{rep2.basis_tag}",
                              ell=None, from_monomial=self.from_monomial)

    def _chains(self, u: complex, kinds: tuple[str, ...]) -> np.ndarray:
        """The raising chains of every sector of each coproduct kind in
        ``kinds`` at u, raised together.

        Returns c of shape (len(kinds), d1+d2-1, d1*d2, k), k = min(d1, d2),
        with c[f][m][:, n] = (S+_u)^m v_n for kind f and v_n the
        lowest-weight vector of sector n from the closed product formula; one
        stacked raising step serves every chain.  Raises
        :class:`CompletenessFailure` when S-_u v_n is not zero, or when the
        chain of sector n vanishes (or overflows) before its full length
        d1+d2-1-2n, each measured against :data:`CHAIN_TOL`; the kinds are
        tested in order, each lowest-weight condition before its chains.
        """
        rep1, rep2 = self.parents
        if rep1.ell is None or rep2.ell is None:
            raise ParameterDomainError("eigen-sectors need two finite spins")
        gens = [self.coproduct(kind, u) for kind in kinds]
        families = ["barred" if kind == "deltabar" else "unbarred" for kind in kinds]
        d1, d2 = rep1.dim, rep2.dim
        k, steps = min(d1, d2), d1 + d2 - 1
        lw = np.array([_lowest_weights(rep1.ell, rep2.ell, u, self.q, d1, d2,
                                       family == "barred", k).T for family in families])
        if self.from_monomial is not None:
            lw = self.from_monomial[:, None] * lw
        scale = np.maximum(1.0, np.abs(lw).max(axis=1))
        resid = np.abs(np.array([g.sm for g in gens]) @ lw).max(axis=1) / scale
        lw_ok = (resid <= CHAIN_TOL).all(axis=1)
        # the kinds before the first failing lowest-weight condition
        raised = len(kinds) if lw_ok.all() else int(np.argmin(lw_ok))
        chains = np.empty((raised, steps, d1 * d2, k), complex)
        chains[:, 0] = lw[:raised]
        sp = np.array([g.sp for g in gens])[:raised]
        for m in range(1, steps):
            chains[:, m] = sp @ chains[:, m - 1]
        size = np.abs(chains).max(axis=2) / scale[:raised, None]
        broken = self._layout().live & ~((size >= CHAIN_TOL) & (size < np.inf))
        for f in range(raised):
            if broken[f].any():
                n, m = (int(i) for i in np.argwhere(broken[f].T)[0])
                raise CompletenessFailure(
                    n, families[f], float(size[f, m, n]),
                    f"raising chain of sector {n} of the {families[f]} family breaks at "
                    f"step {m} of {steps - 2 * n} (relative size {size[f, m, n]:.2e})")
        if raised < len(kinds):
            family, r = families[raised], resid[raised]
            n = int(np.argmin(r <= CHAIN_TOL))
            raise CompletenessFailure(
                n, family, float(r[n]),
                f"lowest-weight condition fails at sector {n} of the {family} family "
                f"(residual {r[n]:.2e})")
        return chains

    def _layout(self) -> _BlockLayout:
        return _BlockLayout.of_dims(*(rep.dim for rep in self.parents))

    def _unit_blocks(self, chains: np.ndarray):
        """The weight blocks of ``chains`` with unit columns, the column norms
        and the condition number of every block."""
        blocks = self._layout().cut(chains)
        norms = np.linalg.norm(blocks, axis=1, keepdims=True)
        unit = blocks / norms
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.linalg.svd(unit, compute_uv=False)
            cond = s[:, 0] / s[:, -1]
        return unit, norms, cond

    def sectors(self, u: complex, kind: str = "delta") -> list[np.ndarray]:
        """All eigen-sectors of the coproduct ``kind`` at u.

        Entry n is the raising chain of sector n, of shape (d1+d2-1-2n, d1*d2):
        row m is (S+_u)^m applied to the lowest-weight vector, row 0.  The
        chains come from :meth:`_chains` and must pass the weight-block test
        of :class:`SpectralForm` against :data:`COND_LIMIT`, which raises
        :class:`SingularBasis`.  The other kind's sectors are
        ``sectors(u, other kind)``.
        """
        chains = self._chains(u, (kind,))[0]
        self._layout().require_conditioned(self._unit_blocks(chains)[2], COND_LIMIT)
        steps = chains.shape[0]
        return [chains[:steps - 2 * n, :, n] for n in range(chains.shape[2])]

    def spectral_form(self) -> SpectralForm:
        """The u-independent spectral form of R on this space of two spins,
        built from the chains at u = 0 the first time it is asked for.

        Both families come from one :meth:`_chains` pass; at the rational
        point (q on the zero log branch) the barred chains are the unbarred
        ones, so one family is built.  The conditioning is
        recorded, not tested: callers test it against their limit.
        """
        if self._form is None:
            kinds = ("delta",) if self.q.log_branch == 0 else ("delta", "deltabar")
            chains = self._chains(0.0, kinds)
            unit, norms, cond = self._unit_blocks(chains[0])
            layout = self._layout()
            left = unit if len(kinds) == 1 else layout.cut(chains[1]) / norms
            if not np.isfinite(cond).all():
                # such a block fails every limit; the identity stands in for
                # it so that the batched inverse runs
                unit = np.where(np.isfinite(cond)[:, None, None], unit, np.eye(unit.shape[1]))
            right = np.linalg.inv(unit)
            self._form = SpectralForm(left=left, right=right, cond=cond, layout=layout)
        return self._form


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _two_spin(ell) -> int:
    """2l for a finite spin l; :class:`BadSpin` otherwise."""
    two_ell = _half_integer_or_none(ell)
    if two_ell is None:
        raise BadSpin(f"2*ell must be a nonnegative integer (got ell={ell})")
    return two_ell


@functools.lru_cache(maxsize=_SPACE_MEMO_SIZE)
def _spin_space(two_ell1: int, two_ell2: int, q: DeformationParameter,
                basis: str) -> ProductSpace:
    """The space behind :meth:`ProductSpace.of_spins`."""
    return ProductSpace(build_spin_rep(two_ell1 / 2, q, basis),
                        build_spin_rep(two_ell2 / 2, q, basis))


@dataclasses.dataclass(frozen=True)
class _BlockLayout:
    """Where the weight blocks of a d1 x d2 product sit.

    Block b (b = 0..d1+d2-2, weight b - (d1+d2-2)/2) spans the ``sizes[b]``
    monomials x1^j x2^(b-j), in ascending j.  Sector n has one vector in
    block b for each n < sizes[b]: its (b-n)-th descendant, so ``live[m, n]``
    marks the steps m < d1+d2-1-2n of the chain of sector n.  Blocks are
    padded to k x k, k = min(d1, d2), with the identity outside the
    ``inside`` mask.  For the entries inside, in C order, ``dst`` is the
    flat position in the d x d matrix and ``twist`` is j' - j for the entry
    that maps x1^j' x2^. to x1^j x2^.: the power of q^u that the twist
    T_u = q^{-u(S1-S2)/2} puts on it.  Layouts are memoised on (d1, d2),
    so their arrays are read-only.
    """

    sizes: np.ndarray
    live: np.ndarray
    inside: np.ndarray
    take: tuple
    dst: np.ndarray
    twist: np.ndarray

    def __post_init__(self):
        for arr in (self.sizes, self.live, self.inside, *self.take, self.dst, self.twist):
            arr.setflags(write=False)

    @classmethod
    @functools.lru_cache(maxsize=_LAYOUT_MEMO_SIZE)
    def of_dims(cls, d1: int, d2: int) -> "_BlockLayout":
        k, nb = min(d1, d2), d1 + d2 - 1
        b = np.arange(nb)[:, None]
        n = np.arange(k)
        j = np.maximum(0, b - d2 + 1) + n
        sizes = np.minimum(b, d1 - 1)[:, 0] - j[:, 0] + 1
        row_ok = n < sizes[:, None]
        rows = np.where(row_ok, j * d2 + b - j, 0)
        inside = row_ok[:, :, None] & row_ok[:, None, :]
        return cls(sizes=sizes, live=b < nb - 2 * n, inside=inside,
                   take=(b[:, :, None] - n, rows[:, :, None], n),
                   dst=(rows[:, :, None] * (d1 * d2) + rows[:, None, :])[inside],
                   twist=(j[:, None, :] - j[:, :, None])[inside])

    def cut(self, chains: np.ndarray) -> np.ndarray:
        """The padded weight blocks of chains c[m][:, n] (see :meth:`ProductSpace._chains`)."""
        return np.where(self.inside, chains[self.take], np.eye(self.inside.shape[1]))

    def require_conditioned(self, cond: np.ndarray, limit: float) -> None:
        """Raise :class:`SingularBasis` for the worst block whose condition
        number is above ``limit`` or not a number."""
        bad = np.flatnonzero(~(cond <= limit))
        if bad.size:
            b = int(bad[np.argmax(cond[bad])])
            weight = b - (len(self.sizes) - 1) / 2
            size = int(self.sizes[b])
            raise SingularBasis(
                f"eigenvector block of weight {weight:g} (size {size}) has condition number "
                f"{cond[b]:.3e}, above {limit:.0e}",
                weight=weight, size=size, cond=float(cond[b]))


@dataclasses.dataclass(frozen=True)
class SpectralForm:
    """The u-independent part of R on a product of two spins.

    The twist is a diagonal similarity, Delta_u = T_u Delta_0 T_u^{-1} with
    T_u = q^{-u(S1-S2)/2}, and the barred coproduct at -u carries the same
    T_u.  So the chains at u = 0 give R at every u:

        R(u) = T_u (sum_b PhiBar_b D(u) Phi_b^{-1}) T_u^{-1},

    where Phi_b holds the unbarred chain vectors of weight block b and D(u)
    the sector eigenvalues.  ``right`` is the inverse of each block with
    unit columns, ``left`` the barred block over the same column norms, and
    ``cond`` the condition number of each unit-column block.  The three
    arrays are read-only.
    """

    left: np.ndarray
    right: np.ndarray
    cond: np.ndarray
    layout: _BlockLayout

    def __post_init__(self):
        for arr in (self.left, self.right, self.cond):
            arr.setflags(write=False)


def _lowest_weights(ell1, ell2, u: complex, q: DeformationParameter, d1: int, d2: int,
                    barred: bool, count: int) -> np.ndarray:
    """Rows n < count: the monomial coefficients of the degree-n
    lowest-weight polynomial, all from one product recurrence."""
    s = -1.0 if barred else 1.0
    c = np.zeros((count, d1, d2), complex)
    c[0, 0, 0] = 1.0
    for i in range(1, count):
        # scalar powers: numpy's vectorised complex product may round differently
        a = q.pow(s * (ell1 + 1 - i - u / 2))
        b = q.pow(s * (u / 2 + i - 1 - ell2))
        c[i, 1:, :] += a * c[i - 1, :-1, :]
        c[i, :, 1:] -= b * c[i - 1, :, :-1]
    return c.reshape(count, d1 * d2)


def lowest_weight_coeffs(ell1, ell2, n: int, u: complex, q: DeformationParameter,
                         d1: int, d2: int, barred: bool = False) -> np.ndarray:
    """Monomial coefficients of the degree-n lowest-weight polynomial.

    The unbarred vector is the product over i = 1..n of
    (q^{l1+1-i-u/2} x1 - q^{u/2+i-1-l2} x2); the barred one replaces q by 1/q.
    """
    return _lowest_weights(ell1, ell2, u, q, d1, d2, barred, n + 1)[n]


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


def tensor_casimir(space: ProductSpace, u: complex, kind: str = "delta"
                   ) -> CasimirSpectrumReport:
    """The spectrum of the Casimir of the coproduct ``kind`` at u on the
    sectors of the same kind and u, both taken from ``space``.

    On sector n the eigenvalue is [n-l1-l2][n-l1-l2-1], independent of the
    descendant index m; the report records the residual and the spread of
    Rayleigh estimates across each chain.  C acts on a sector's whole chain
    in one stacked mat-vec, and the residuals and Rayleigh quotients of the
    chain are read as arrays.
    """
    q = space.q
    c = casimir_matrix(space.coproduct(kind, u))
    rep1, rep2 = space.parents
    entries = []
    for n, chain in enumerate(space.sectors(u, kind)):
        lam = qnum(n - rep1.ell - rep2.ell, q) * qnum(n - rep1.ell - rep2.ell - 1, q)
        # row m of cv is c @ chain[m], and each row's residual is
        # qcore.residual(cv[m], lam * chain[m], chain[m])
        cv = np.matmul(c, chain[:, :, None])[:, :, 0]
        gap = np.abs(cv - lam * chain).max(axis=1)
        resid = gap / np.maximum(1.0, np.abs(chain).max(axis=1))
        rayleigh = np.vecdot(chain, cv) / np.vecdot(chain, chain).real
        spread = _nan_max(*(abs(r - rayleigh[0]) for r in rayleigh))
        entries.append(SectorEigenvalue(n, complex(lam), float(resid.max()),
                                        float(spread)))
    return CasimirSpectrumReport(entries)


def weight_reversed(arr: np.ndarray) -> np.ndarray:
    """Reverse every axis: maps ascending-power ordering to the
    descending-weight ordering used in printed tables."""
    return np.flip(arr, axis=tuple(range(arr.ndim)))
