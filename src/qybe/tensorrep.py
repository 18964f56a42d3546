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

from .errors import (CompletenessFailure, DimensionMismatch, ParameterDomainError, QybeError,
                     SingularBasis, _raise_first)
from .qcore import DeformationParameter, _cmul, _nan_max, _qnum_rows
from .rep import (OperatorTriple, _diag, _Factors, _spin_factors, _two_spin, build_spin_rep,
                  casimir_matrix)

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


def kron(a: np.ndarray, b: np.ndarray, nd: int | None = None) -> np.ndarray:
    """Kronecker product over the last ``nd`` axes: 1 for vectors, 2 for
    matrices, and by default ``a.ndim``, for two vectors or two matrices.
    Leading axes are a stack and broadcast.

    One broadcast product: every entry is the single product a_ij * b_kl
    that ``np.kron`` forms, so the result is the same bit for bit, without
    ``np.kron``'s generic axis handling, which dominates at these sizes.
    """
    if (a.ndim if nd is None else nd) == 1:
        p = a[..., :, None] * b[..., None, :]
        return p.reshape(*p.shape[:-2], -1)
    p = a[..., :, None, :, None] * b[..., None, :, None, :]
    return p.reshape(*p.shape[:-4], p.shape[-4] * p.shape[-3], p.shape[-2] * p.shape[-1])


def _q_powers(weights: np.ndarray, log_branch: np.ndarray, a) -> np.ndarray:
    """diag(q^{a w}) of the weights w at each log q of a stack: (S, d, d),
    each slice equal to :meth:`OperatorTriple.qs` at its q."""
    return _diag(np.exp((np.asarray(a) * weights) * log_branch[:, None]))


def _require_shared_q(q1: DeformationParameter, q2: DeformationParameter) -> None:
    """Tensor factors must share q and its log branch."""
    if abs(q1.value - q2.value) > 1e-12 or abs(q1.log_branch - q2.log_branch) > 1e-12:
        raise DimensionMismatch("tensor factors must share the deformation parameter")


def _sector_chains(chains: np.ndarray) -> list[np.ndarray]:
    """Entry n is the raising chain of sector n, the live steps of the
    chains c[..., m, :, n] (see :meth:`_SpaceStack.chains`)."""
    steps, k = chains.shape[-3], chains.shape[-1]
    return [chains[..., :steps - 2 * n, :, n] for n in range(k)]


class _SpaceStack:
    """The tensor product of two factors at S sampled q values, every array
    with a leading sample axis (the weights, which do not depend on q,
    excepted).

    Each method evaluates all samples in one stacked pass and gives slice s
    equal, bit for bit, to what a stack of the one sample s gives: products
    that a single sample forms from complex scalars keep scalar rounding
    (:func:`qcore._cmul`, :func:`qcore._qnum_rows`), and batched matmul,
    SVD and inverse treat each slice as its own matrix.  Methods that can
    fail for a sample return, next to their arrays, one error or None per
    sample (the first the sample meets), so a caller raises the error of
    the lowest failing sample; a failed sample's arrays are not meaningful.
    :class:`ProductSpace` is the stack of one, and the sampled suites of
    :mod:`verify` stack their samples here.  Its arrays are read-only, since
    the suites of one pass, and the callers of a memoised
    :class:`ProductSpace`, share one stack.
    """

    def __init__(self, qs, f1: _Factors, f2: _Factors):
        self.qs = tuple(qs)
        self.factors = (f1, f2)
        self.log_branch = _read_only(np.array([q.log_branch for q in self.qs], complex))
        self.rational = all(q.log_branch == 0 for q in self.qs)
        self.weights = _read_only(np.add.outer(f1.weights, f2.weights).ravel())
        self.dims = (f1.weights.size, f2.weights.size)
        self.from_monomial = None
        if f1.from_monomial is not None or f2.from_monomial is not None:
            d1, d2 = (f.from_monomial if f.from_monomial is not None
                      else np.ones((len(self.qs), f.weights.size)) for f in (f1, f2))
            self.from_monomial = _read_only(kron(d1, d2, 1))
        self.layout = _BlockLayout.of_dims(*self.dims)
        self._pieces: dict[str, tuple[np.ndarray, ...]] = {}
        self._form: tuple[SpectralForm, list] | None = None

    @staticmethod
    def of_spins(ell1, ell2, qs, basis: str) -> "_SpaceStack":
        """The stack of two finite spins in one single-spin basis at every q
        of ``qs``, built from the spins 2l/2 as :meth:`ProductSpace.of_spins`
        builds them; two equal spins share one factor representation."""
        two_ell1, two_ell2 = _two_spin(ell1), _two_spin(ell2)
        f1 = _spin_factors(two_ell1 / 2, qs, basis)
        return _SpaceStack(qs, f1, f1 if two_ell2 == two_ell1
                           else _spin_factors(two_ell2 / 2, qs, basis))

    @functools.cached_property
    def factor_powers(self) -> tuple[dict, dict]:
        """q^{S} and q^{-S} of each factor, keyed by the exponent's sign:
        (S, d, d) diagonal stacks, built once for the pieces and the
        relations of the stack."""
        return tuple({a: _read_only(_q_powers(f.weights, self.log_branch, a)) for a in (1, -1)}
                     for f in self.factors)

    def kind_pieces(self, kind: str) -> tuple[np.ndarray, ...]:
        """The four u-independent Kronecker pieces of coproduct ``kind``:
        S1- x q^{+-S2}, q^{-+S1} x S2-, S1+ x q^{+-S2} and q^{-+S1} x S2+."""
        if kind not in ("delta", "deltabar"):
            raise ParameterDomainError(f"unknown coproduct kind {kind!r}")
        if not self._pieces:
            # the eight pieces of both kinds, as one broadcast Kronecker
            # product of stacked factors (kron's entries, bit for bit)
            f1, f2 = self.factors
            q1, q2 = self.factor_powers
            left = np.array([(f1.sm, q1[-s], f1.sp, q1[-s]) for s in (1, -1)])
            right = np.array([(q2[s], f2.sm, q2[s], f2.sp) for s in (1, -1)])
            pieces = _read_only(kron(left, right, 2))
            self._pieces = {"delta": tuple(pieces[0]), "deltabar": tuple(pieces[1])}
        return self._pieces[kind]

    def coproduct(self, kind: str, us) -> tuple[np.ndarray, np.ndarray]:
        """S+_u and S-_u of ``kind`` (see :meth:`ProductSpace.coproduct`)
        at u_s for every sample s, as two (S, d, d) arrays."""
        sm1, sm2, sp1, sp2 = self.kind_pieces(kind)
        qu = np.exp(np.array([(u / 2) * q.log_branch for u, q in zip(us, self.qs)],
                             complex))[:, None, None]
        if kind == "delta":
            return sp1 / qu + qu * sp2, qu * sm1 + sm2 / qu
        return qu * sp1 + sp2 / qu, sm1 / qu + qu * sm2

    def chains(self, us, kinds: tuple[str, ...], gens: list | None = None
               ) -> tuple[np.ndarray, list]:
        """The raising chains of every sector of each coproduct kind in
        ``kinds`` at u_s, for every sample s, raised together; ``gens``, when
        given, holds the :meth:`coproduct` of each kind at ``us``.

        Returns c of shape (S, len(kinds), d1+d2-1, d1*d2, k), k = min(d1, d2),
        with c[s, f, m][:, n] = (S+_u)^m v_n for kind f and v_n the
        lowest-weight vector of sector n from the closed product formula, and
        each sample's error or None: a :class:`CompletenessFailure` where
        S-_u v_n is not zero, or the chain of sector n vanishes before its
        full length d1+d2-1-2n, each measured against :data:`CHAIN_TOL`, and a
        :class:`ParameterDomainError` where the chain is not finite, since a
        power of q overflows; a sample's kinds are tested in order, each
        lowest-weight condition before its chains.
        """
        f1, f2 = self.factors
        if f1.ell is None or f2.ell is None:
            raise ParameterDomainError("eigen-sectors need two finite spins")
        if gens is None:
            gens = [self.coproduct(kind, us) for kind in kinds]
        families = ["barred" if kind == "deltabar" else "unbarred" for kind in kinds]
        (d1, d2), count = self.dims, len(self.qs)
        k, steps = min(d1, d2), d1 + d2 - 1
        with np.errstate(over="ignore", invalid="ignore"):
            lw = np.stack([_lowest_weights(f1.ell, f2.ell, us, self.qs, d1, d2,
                                           family == "barred", k).transpose(0, 2, 1)
                           for family in families], axis=1)
            if self.from_monomial is not None:
                lw = self.from_monomial[:, None, :, None] * lw
            scale = np.maximum(1.0, np.abs(lw).max(axis=2))
            resid = np.abs(np.stack([sm for _, sm in gens], axis=1) @ lw).max(axis=2) / scale
            chains = np.empty((count, len(kinds), steps, d1 * d2, k), complex)
            chains[:, :, 0] = lw
            sp = np.stack([sp for sp, _ in gens], axis=1)
            for m in range(1, steps):
                chains[:, :, m] = sp @ chains[:, :, m - 1]
            size = np.abs(chains).max(axis=3) / scale[:, :, None, :]
        broken = self.layout.live & ~((size >= CHAIN_TOL) & (size < np.inf))
        lw_ok = (resid <= CHAIN_TOL).all(axis=2)
        errors = [None] * count
        if broken.any() or not lw_ok.all():
            for s in np.flatnonzero(~lw_ok.all(axis=1) | broken.any(axis=(1, 2, 3))):
                errors[s] = _chain_error(families, resid[s], lw_ok[s], size[s], broken[s])
        return chains, errors

    def unit_blocks(self, chains: np.ndarray, errors: list):
        """The weight blocks of chains (S, d1+d2-1, d1*d2, k) with unit
        columns, the column norms and the condition number of every block;
        the unit blocks of a failed sample are the identity.  A sample
        whose column norms overflow, its chains finite, fails here: its
        entry of ``errors``, if None, becomes a :class:`ParameterDomainError`."""
        blocks = self.layout.cut(chains)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            norms = np.linalg.norm(blocks, axis=-2, keepdims=True)
            unit = blocks / norms
            for sample in np.flatnonzero(np.isinf(norms).any(axis=(1, 2, 3))):
                errors[sample] = errors[sample] or ParameterDomainError(
                    "the eigenvector chains are too large to normalise: a power of q overflows")
            failed = [s for s, e in enumerate(errors) if e is not None]
            if failed:
                unit[failed] = np.eye(unit.shape[-1])
            s = np.linalg.svd(unit, compute_uv=False)
            cond = s[..., 0] / s[..., -1]
        return unit, norms, cond

    def sectors(self, us, kind: str, gens: tuple | None = None) -> tuple[np.ndarray, list]:
        """The chains c[s, m, :, n] of every sector of the coproduct ``kind``
        at u_s (see :meth:`chains`), which must also pass the weight-block
        test of :class:`SpectralForm` against :data:`COND_LIMIT`, and each
        sample's first error: that of :meth:`chains`, then the
        :class:`ParameterDomainError` of :meth:`unit_blocks`, then
        :class:`SingularBasis`.  ``gens``, when given, is the
        :meth:`coproduct` of ``kind`` at ``us``."""
        chains, errors = self.chains(us, (kind,), None if gens is None else [gens])
        chains = chains[:, 0]
        cond = self.unit_blocks(chains, errors)[2]
        for s in np.flatnonzero((~(cond <= COND_LIMIT)).any(axis=1)):
            errors[s] = errors[s] or self.layout.conditioning_error(cond[s], COND_LIMIT)
        return chains, errors

    def spectral_form(self) -> tuple[SpectralForm, list]:
        """The u-independent spectral form of R at every sample, built from
        the chains at u = 0 the first time it is asked for, and each sample's
        error of :meth:`chains` or :meth:`unit_blocks`, or None.

        Both families come from one :meth:`chains` pass; at the rational
        point (q on the zero log branch) the barred chains are the unbarred
        ones, so one family is built.  The conditioning is recorded, not
        tested: callers test it against their limit.
        """
        if self._form is None:
            kinds = ("delta",) if self.rational else ("delta", "deltabar")
            chains, errors = self.chains([0.0] * len(self.qs), kinds)
            unit, norms, cond = self.unit_blocks(chains[:, 0], errors)
            layout = self.layout
            with np.errstate(divide="ignore", invalid="ignore"):
                left = unit if len(kinds) == 1 else layout.cut(chains[:, 1]) / norms
            if not np.isfinite(cond).all():
                # such a block fails every limit; the identity stands in for
                # it so that the batched inverse runs
                unit = np.where(np.isfinite(cond)[..., None, None], unit, np.eye(unit.shape[-1]))
            right = np.linalg.inv(unit)
            self._form = (SpectralForm(left=left, right=right, cond=cond, layout=layout), errors)
        return self._form


def _chain_error(families, resid, lw_ok, size, broken) -> QybeError:
    """The error of one sample that :meth:`_SpaceStack.chains` flagged:
    the first broken chain among the kinds before its first failing
    lowest-weight condition, else that condition.  A chain that breaks by
    not being finite overflows, a :class:`ParameterDomainError`; one that
    vanishes is a :class:`CompletenessFailure`."""
    raised = len(families) if lw_ok.all() else int(np.argmin(lw_ok))
    steps = size.shape[1]
    for f in range(raised):
        if broken[f].any():
            n, m = (int(i) for i in np.argwhere(broken[f].T)[0])
            if not np.isfinite(size[f, m, n]):
                return ParameterDomainError(
                    f"raising chain of sector {n} of the {families[f]} family is not finite at "
                    f"step {m} of {steps - 2 * n}: a power of q overflows")
            return CompletenessFailure(
                n, families[f], float(size[f, m, n]),
                f"raising chain of sector {n} of the {families[f]} family breaks at "
                f"step {m} of {steps - 2 * n} (relative size {size[f, m, n]:.2e})")
    family, r = families[raised], resid[raised]
    n = int(np.argmin(r <= CHAIN_TOL))
    return CompletenessFailure(
        n, family, float(r[n]),
        f"lowest-weight condition fails at sector {n} of the {family} family "
        f"(residual {r[n]:.2e})")


class ProductSpace:
    """The tensor product of two factor representations over one q.

    Holds the product ``weights`` and ``from_monomial`` and, for each
    coproduct kind, the four Kronecker pieces that do not depend on u
    (S1-/+ x q^{+-S2} and q^{-+S1} x S2-/+); the pieces of both kinds are
    built together the first time either kind is used.  A twisted coproduct
    at any u is then two sums weighted by q^{u/2}, so one space serves every
    u, every kind and every caller of one sampled point.  For two finite
    spins its stack also holds the :class:`SpectralForm` of R, built the
    first time it is asked for.  Its arrays are read-only, since
    :meth:`of_spins` shares one space among all its callers.  It is the
    stack of one of :class:`_SpaceStack`, which does the numerics, and
    raises the errors that the stack records.
    """

    def __init__(self, rep1: OperatorTriple, rep2: OperatorTriple):
        _require_shared_q(rep1.q, rep2.q)
        self.parents = (rep1, rep2)
        self.q = rep1.q
        self._stack = _SpaceStack((rep1.q,), _Factors.of_triple(rep1), _Factors.of_triple(rep2))
        self.weights = self._stack.weights
        fm = self._stack.from_monomial
        self.from_monomial = None if fm is None else fm[0]

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

    def coproduct(self, kind: str = "delta", u: complex = 0.0) -> OperatorTriple:
        """The tensor-product generators of ``kind`` twisted by the spectral
        parameter u:

            "delta":     S-_u = q^{u/2+S2} S1- + q^{-u/2-S1} S2-,
                         S+_u = q^{-u/2+S2} S1+ + q^{u/2-S1} S2+;
            "deltabar":  the q -> 1/q twin (all twist exponents negated).
        """
        sp, sm = self._stack.coproduct(kind, [u])
        rep1, rep2 = self.parents
        return OperatorTriple(sp=sp[0], sm=sm[0], weights=self.weights, q=self.q,
                              basis_tag=f"{rep1.basis_tag}*{rep2.basis_tag}",
                              ell=None, from_monomial=self.from_monomial)

    def sectors(self, u: complex, kind: str = "delta") -> list[np.ndarray]:
        """All eigen-sectors of the coproduct ``kind`` at u.

        Entry n is the raising chain of sector n, of shape (d1+d2-1-2n, d1*d2):
        row m is (S+_u)^m applied to the lowest-weight vector, row 0.  The
        chains come from :meth:`_SpaceStack.sectors`, and so does the error
        raised: :class:`CompletenessFailure`, :class:`ParameterDomainError`
        where a power of q overflows or, from the weight-block test of
        :class:`SpectralForm` against :data:`COND_LIMIT`,
        :class:`SingularBasis`.  The other kind's sectors are
        ``sectors(u, other kind)``.
        """
        chains, errors = self._stack.sectors([u], kind)
        _raise_first(errors)
        return _sector_chains(chains[0])


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@functools.lru_cache(maxsize=_SPACE_MEMO_SIZE)
def _spin_space(two_ell1: int, two_ell2: int, q: DeformationParameter,
                basis: str) -> ProductSpace:
    """The space behind :meth:`ProductSpace.of_spins`; raises
    :class:`ParameterDomainError`, before the space is built, where a
    power of q overflows in the generators or q^S of a factor."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        reps = [build_spin_rep(two_ell / 2, q, basis) for two_ell in (two_ell1, two_ell2)]
        finite = all(np.isfinite(m).all() for rep in reps for m in (rep.sp, rep.sm, rep.qs(1)))
    if not finite:
        raise ParameterDomainError("the generator matrices are not finite: a power of q overflows")
    return ProductSpace(*reps)


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
    T_u = q^{-u(S1-S2)/2} puts on it; ``inside_flat`` is where those entries
    sit in the flattened padded blocks.  Layouts are memoised on (d1, d2),
    so their arrays are read-only.
    """

    sizes: np.ndarray
    live: np.ndarray
    inside: np.ndarray
    take: tuple
    dst: np.ndarray
    twist: np.ndarray
    inside_flat: np.ndarray
    dim: int

    def __post_init__(self):
        for arr in (self.sizes, self.live, self.inside, *self.take, self.dst, self.twist,
                    self.inside_flat):
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
                   twist=(j[:, None, :] - j[:, :, None])[inside],
                   inside_flat=np.flatnonzero(inside), dim=d1 * d2)

    def cut(self, chains: np.ndarray) -> np.ndarray:
        """The padded weight blocks of chains c[..., m, :, n] (see
        :meth:`_SpaceStack.chains`), leading axes kept."""
        return np.where(self.inside, chains[(..., *self.take)], np.eye(self.inside.shape[1]))

    def conditioning_error(self, cond: np.ndarray, limit: float) -> SingularBasis | None:
        """:class:`SingularBasis` for the worst block whose condition number
        is above ``limit`` or not a number, or None."""
        bad = np.flatnonzero(~(cond <= limit))
        if not bad.size:
            return None
        b = int(bad[np.argmax(cond[bad])])
        weight = b - (len(self.sizes) - 1) / 2
        size = int(self.sizes[b])
        return SingularBasis(
            f"eigenvector block of weight {weight:g} (size {size}) has condition number "
            f"{cond[b]:.3e}, above {limit:.0e}",
            weight=weight, size=size, cond=float(cond[b]))


@dataclasses.dataclass(frozen=True)
class SpectralForm:
    """The u-independent part of R on a product of two spins at each of S
    samples (see :meth:`_SpaceStack.spectral_form`): ``left`` and ``right``
    have shape (S, d1+d2-1, k, k), k = min(d1, d2), and ``cond`` (S, d1+d2-1).

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


def _lowest_weights(ell1, ell2, us, qs, d1: int, d2: int, barred: bool,
                    count: int) -> np.ndarray:
    """For each sample (u_s, q_s), rows n < count: the monomial coefficients
    of the degree-n lowest-weight polynomial, all from one product
    recurrence; shape (S, count, d1*d2).

    The unbarred polynomial is the product over i = 1..n of
    (q^{l1+1-i-u/2} x1 - q^{u/2+i-1-l2} x2); the barred one replaces q by 1/q.
    """
    s = -1.0 if barred else 1.0
    c = np.zeros((len(qs), count, d1, d2), complex)
    c[:, 0, 0, 0] = 1.0
    if count > 1:
        # exponents as per-sample Python products, as DeformationParameter.pow forms them
        powers = np.exp(np.array(
            [[s * (ell1 + 1 - i - u / 2) * q.log_branch for i in range(1, count)]
             + [s * (u / 2 + i - 1 - ell2) * q.log_branch for i in range(1, count)]
             for u, q in zip(us, qs)], complex))
        for i in range(1, count):
            a = powers[:, i - 1, None, None]
            b = powers[:, count + i - 2, None, None]
            c[:, i, 1:, :] += a * c[:, i - 1, :-1, :]
            c[:, i, :, 1:] -= b * c[:, i - 1, :, :-1]
    return c.reshape(len(qs), count, d1 * d2)


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
    Rayleigh estimates across each chain.  The stack of one of
    :func:`_casimir_sectors`.
    """
    c = casimir_matrix(space.coproduct(kind, u))
    rep1, rep2 = space.parents
    sectors = [chain[None] for chain in space.sectors(u, kind)]
    return _casimir_sectors(c[None], sectors, rep1.ell, rep2.ell, (space.q,))[0]


def _casimir_sectors(c: np.ndarray, sectors: list[np.ndarray], ell1, ell2,
                     qs) -> list[CasimirSpectrumReport]:
    """The :func:`tensor_casimir` report of each sample of a stack: ``c`` is
    (S, d, d), entry n of ``sectors`` the chains (S, L_n, d) of sector n.

    C acts on a sector's whole chain, for every sample, in one stacked
    mat-vec; row m's residual is ``qcore.residual(C v_m, lambda v_m, v_m)``.
    """
    count = len(sectors)
    rows = [[x for n in range(count) for x in (n - ell1 - ell2, n - ell1 - ell2 - 1)]] * len(qs)
    qn = _qnum_rows(rows, qs)
    lam = _cmul(qn[:, 0::2], qn[:, 1::2])
    resid = np.empty(lam.shape)
    spread = np.empty(lam.shape)
    for n, chain in enumerate(sectors):
        cv = np.matmul(c[:, None], chain[..., None])[..., 0]
        gap = np.abs(cv - lam[:, n, None, None] * chain).max(axis=2)
        resid[:, n] = (gap / np.maximum(1.0, np.abs(chain).max(axis=2))).max(axis=1)
        rayleigh = np.vecdot(chain, cv) / np.vecdot(chain, chain).real
        dev = rayleigh - rayleigh[:, :1]
        # np.hypot is the builtin abs of a complex scalar, bit for bit
        spread[:, n] = np.hypot(dev.real, dev.imag).max(axis=1)
    return [CasimirSpectrumReport([SectorEigenvalue(n, *entry) for n, entry
                                   in enumerate(zip(lam_s, resid_s, spread_s))])
            for lam_s, resid_s, spread_s in zip(lam.tolist(), resid.tolist(), spread.tolist())]


def weight_reversed(arr: np.ndarray) -> np.ndarray:
    """Reverse every axis: maps ascending-power ordering to the
    descending-weight ordering used in printed tables."""
    return np.flip(arr, axis=tuple(range(arr.ndim)))
