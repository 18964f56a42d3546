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
from .qcore import DeformationParameter, _check_finite, _nan_max, _qnums, _QStack, _relative
from .rep import OperatorTriple, _Bands, _spin_factors, _two_spin, casimir_matrix

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


def _require_shared_q(q1: DeformationParameter, q2: DeformationParameter) -> None:
    """Tensor factors must share q and its log branch."""
    if abs(q1.value - q2.value) > 1e-12 or abs(q1.log_branch - q2.log_branch) > 1e-12:
        raise DimensionMismatch("tensor factors must share the deformation parameter")


_KINDS = ("delta", "deltabar")
# the family name of each kind in chain errors
_FAMILY_NAMES = ("unbarred", "barred")


def _kind_index(kind: str) -> int:
    if kind not in _KINDS:
        raise ParameterDomainError(f"unknown coproduct kind {kind!r}")
    return _KINDS.index(kind)


def _family_arrays(families) -> tuple[np.ndarray, np.ndarray]:
    """The kind index (F,) of each family (kind, us) of ``families``, 0 for
    Delta and 1 for Delta-bar, and the us as an (S, F) array: what
    :meth:`ProductSpace.coproducts` and :meth:`ProductSpace.chains` read of
    the families."""
    kinds = np.array([_kind_index(kind) for kind, _ in families])
    return kinds, np.array([us for _, us in families], complex).T


def _twisted_terms(f1: _Bands, f2: _Bands, kinds: np.ndarray, us: np.ndarray) -> np.ndarray:
    """The coproduct kernel, the one place the formula of
    :meth:`ProductSpace.coproduct` is written: the terms of the twisted
    generators of V1 x V2 for each sample of the band stacks ``f1``, ``f2``
    and each family of the kinds and us of :func:`_family_arrays`.
    t[s, f, a, 0] (d1, d2) holds the S1 terms and t[s, f, a, 1] the S2
    terms of generator a ^ kind_f (0 for S-, 1 for S+), one per source label
    (k1, k2): slot a = 0 holds those that q^{u/2} multiplies, slot 1 those
    it divides.  Each is a band entry times the other factor's q-power, then
    times or over q^{u/2}: an entry of a Kronecker piece S1 x q^{S2} or
    q^{-S1} x S2, bit for bit.
    """
    (count, d1), d2 = f1.lift.shape, f2.lift.shape[1]
    p1, p2 = f1.powers, f2.powers
    terms = np.empty((count, kinds.size, 2, 2, d1, d2), complex)
    # Delta weights the S1 terms by q^{S2} and the S2 terms by q^{-S1}, Delta-bar the other way
    bands1, bands2 = (np.stack([f.lower, f.lift], axis=1)[:, kinds[:, None] ^ np.arange(2)]
                      for f in (f1, f2))
    np.multiply(bands1[..., None], p2[:, kinds, None, None], out=terms[:, :, :, 0])
    np.multiply(p1[:, 1 - kinds, None, :, None], bands2[:, :, :, None], out=terms[:, :, :, 1])
    qu = np.exp(us / 2 * f1.qs.log_branch[:, None])[..., None, None, None]
    flat = terms.reshape(count, kinds.size, 4, d1, d2)
    np.multiply(qu, flat[:, :, ::3], out=flat[:, :, ::3])
    np.divide(flat[:, :, 1:3], qu, out=flat[:, :, 1:3])
    return terms


def _sector_chains(chains: np.ndarray) -> list[np.ndarray]:
    """Entry n is the raising chain of sector n, the live steps of the
    chains c[..., m, :, n] (see :meth:`ProductSpace.chains`)."""
    steps, k = chains.shape[-3], chains.shape[-1]
    return [chains[..., :steps - 2 * n, :, n] for n in range(k)]


class ProductSpace:
    """The tensor product of two factor representations at S values of q,
    every array with a leading sample axis (the weights, which do not depend
    on q, excepted).

    Its factors are two band stacks (``rep._Bands``), spin or cyclic, and a
    twisted coproduct at any u is built from them by one call of the
    coproduct kernel :func:`_twisted_terms`, scattered into dense matrices,
    so one space serves every u, every kind and every caller of its
    samples, and the generators of several families (kind, us) come from
    one broadcast.  For two finite spins it also holds the
    :class:`SpectralForm` of R, built the first time it is asked for, or by
    a :meth:`chain_pass` that raises a sector family with it.

    The stacked methods evaluate all samples, and all families, in one pass
    and give slice s equal, bit for bit, to what a space of the one sample s
    gives, family by family: every product is elementwise along the sample
    and family axes, and batched matmul, SVD and inverse treat each slice
    as its own matrix.  Methods that can fail for a sample return, next to
    their arrays, one error or None per sample (the first the sample
    meets), so a caller raises the error of the lowest failing sample; a
    failed sample's arrays are not meaningful.
    :meth:`coproduct` and :meth:`sectors` need a space of one q (else
    :class:`DimensionMismatch`) and raise those errors.  Its arrays are
    read-only, since the suites of one pass of :mod:`verify`, and the
    callers of the memoised :meth:`of_spins`, share one space.
    """

    def __init__(self, rep1, rep2):
        """``rep1`` and ``rep2`` are two :class:`OperatorTriple` over one q,
        each with S+ and S- on their bands (else :class:`ParameterDomainError`),
        or two band stacks (``rep._Bands``) over the same q values."""
        if isinstance(rep1, OperatorTriple):
            _require_shared_q(rep1.q, rep2.q)
            rep1, rep2 = _Bands.of_triple(rep1), _Bands.of_triple(rep2)
        f1, f2 = self.factors = (rep1, rep2)
        self.qs = f1.qs
        self.log_branch = self.qs.log_branch
        self.rational = self.qs.rational
        self.weights = _read_only(np.add.outer(f1.weights, f2.weights).ravel())
        self.dims = (f1.weights.size, f2.weights.size)
        self.from_monomial = None
        if f1.from_monomial is not None or f2.from_monomial is not None:
            d1, d2 = (f.from_monomial if f.from_monomial is not None
                      else np.ones((len(self.qs), f.weights.size)) for f in (f1, f2))
            self.from_monomial = _read_only((d1[:, :, None] * d2[:, None, :]).reshape(len(d1), -1))
        self.layout = _BlockLayout.of_dims(*self.dims)
        self._form: tuple[SpectralForm, list] | None = None

    @staticmethod
    def of_spins(ell1, ell2, q: DeformationParameter,
                 basis: str = "monomial") -> "ProductSpace":
        """The space of two finite spins in one single-spin basis at one q:
        :meth:`stack_of_spins` at ``(q,)``.

        Memoised on (2 l1, 2 l2, q, basis) for the last
        :data:`_SPACE_MEMO_SIZE` keys, so every caller at one point shares
        one space and its spectral form.  Raises :class:`ParameterDomainError`,
        before any chain is built, where a power of q overflows in the
        generators or q^S of a factor.
        """
        return _spin_space(_two_spin(ell1), _two_spin(ell2), q, basis)

    @staticmethod
    def stack_of_spins(ell1, ell2, qs: _QStack, basis: str) -> "ProductSpace":
        """The space of two finite spins in one single-spin basis at every q
        of the stack ``qs``, unmemoised.  The factors are built from the
        spins 2l/2, so every spelling of a spin (0.5, 0.5 + 0j) gives the
        same space, and two equal spins share one factor representation."""
        two_ell1, two_ell2 = _two_spin(ell1), _two_spin(ell2)
        f1 = _spin_factors(two_ell1 / 2, qs, basis)
        return ProductSpace(f1, f1 if two_ell2 == two_ell1
                            else _spin_factors(two_ell2 / 2, qs, basis))

    def coproducts(self, families) -> tuple[np.ndarray, np.ndarray]:
        """S+_u and S-_u (see :meth:`coproduct`) of each family (kind, us) at
        u_s for every sample s, as two (S, F, d, d) arrays: the terms of
        :func:`_twisted_terms` scattered to their targets, k1 and k2 moved
        mod d1 and mod d2 (:attr:`_BlockLayout.moves`)."""
        kinds, us = _family_arrays(families)
        (count, size), dim = us.shape, self.layout.dim
        terms = _twisted_terms(*self.factors, kinds, us).reshape(count, size, 2, 2, -1)
        # S+ and S- apart, since one array of both is past the allocator's
        # mmap threshold at d = 49, and its page faults cost more than two
        gens = [np.zeros((count, size, dim * dim), complex) for _ in range(2)]
        for g, t in np.ndindex(2, 2):
            # where a factor has dimension 1, both terms land on one entry and add
            gens[g][..., self.layout.moves[g, t]] += terms[:, np.arange(size), g ^ kinds, t]
        return tuple(gen.reshape(count, size, dim, dim) for gen in gens[::-1])

    def coproduct(self, kind: str = "delta", u: complex = 0.0) -> OperatorTriple:
        """The tensor-product generators of ``kind`` twisted by the spectral
        parameter u:

            "delta":     S-_u = q^{u/2+S2} S1- + q^{-u/2-S1} S2-,
                         S+_u = q^{-u/2+S2} S1+ + q^{u/2-S1} S2+;
            "deltabar":  the q -> 1/q twin (all twist exponents negated).

        A u that is not finite raises :class:`ParameterDomainError`.
        """
        _check_finite(u=u)
        if len(self.qs) != 1:
            raise DimensionMismatch("coproduct and sectors need a product space of one q")
        sp, sm = self.coproducts([(kind, [u])])
        f1, f2 = self.factors
        fm = self.from_monomial
        return OperatorTriple(sp=sp[0, 0], sm=sm[0, 0], weights=self.weights, q=self.qs[0],
                              basis_tag=f"{f1.basis_tag}*{f2.basis_tag}", ell=None,
                              from_monomial=None if fm is None else fm[0])

    def chains(self, families, gens: tuple | None = None) -> tuple[np.ndarray, list]:
        """The raising chains of every sector of each family (kind, us) of
        ``families`` at u_s, for every sample s, all raised in one pass: one
        lowest-weight recurrence and one raising loop over the stacked
        generators.  ``gens``, when given, is the :meth:`coproducts` of the
        families.

        Returns c of shape (S, F, d1+d2-1, d1*d2, k), k = min(d1, d2), with
        c[s, f, m][:, n] = (S+_u)^m v_n for family f and v_n the lowest-weight
        vector of sector n from the closed product formula, and one list per
        family of each sample's error or None: a :class:`CompletenessFailure`
        where S-_u v_n is not zero, or the chain of sector n vanishes before
        its full length d1+d2-1-2n, each measured against :data:`CHAIN_TOL`,
        and a :class:`ParameterDomainError` where the chain is not finite,
        since a power of q overflows; a family's lowest-weight condition is
        tested before its chains.  Every step is elementwise along the family
        axis, so each family's chains are those of a pass of it alone.
        """
        f1, f2 = self.factors
        if f1.ell is None or f2.ell is None:
            raise ParameterDomainError("eigen-sectors need two finite spins")
        sp, sm = self.coproducts(families) if gens is None else gens
        kinds, us = _family_arrays(families)
        (d1, d2), count = self.dims, len(self.qs)
        k, steps = min(d1, d2), d1 + d2 - 1
        with np.errstate(over="ignore", invalid="ignore"):
            lw = _lowest_weights(f1.ell, f2.ell, us, 1.0 - 2.0 * kinds, self.qs, d1, d2, k)
            lw = lw.swapaxes(2, 3)
            chains = np.empty((count, kinds.size, steps, d1 * d2, k), complex)
            if self.from_monomial is None:
                chains[:, :, 0] = lw
            else:
                np.multiply(self.from_monomial[:, None, :, None], lw, out=chains[:, :, 0])
            lw = chains[:, :, 0]
            scale = np.maximum(1.0, np.abs(lw).max(axis=2))
            resid = np.abs(sm @ lw).max(axis=2) / scale
            for m in range(1, steps):
                np.matmul(sp, chains[:, :, m - 1], out=chains[:, :, m])
            size = np.abs(chains).max(axis=3) / scale[:, :, None, :]
            # a live step is sound where its relative size is in [CHAIN_TOL, inf)
            sizes = np.where(self.layout.live, size, CHAIN_TOL)
            sound = resid.max() <= CHAIN_TOL and CHAIN_TOL <= sizes.min() and sizes.max() < np.inf
        errors = [[None] * count for _ in kinds]
        if sound:
            return chains, errors
        broken = ~((sizes >= CHAIN_TOL) & (sizes < np.inf))
        lw_ok = (resid <= CHAIN_TOL).all(axis=2)
        for s, f in np.argwhere(~lw_ok | broken.any(axis=(2, 3))).tolist():
            errors[f][s] = _chain_error(_FAMILY_NAMES[kinds[f]], resid[s, f], lw_ok[s, f],
                                        size[s, f], broken[s, f])
        return chains, errors

    def unit_blocks(self, blocks: np.ndarray, errors: list):
        """The weight blocks (S, G, d1+d2-1, k, k) of G families (see
        :meth:`_BlockLayout.cut`) with unit columns, the column norms and the
        condition number of every block; ``errors`` holds each family's
        errors, one per sample, and the unit blocks of a failed sample are
        the identity.  A sample whose column norms overflow, its chains
        finite, fails here: its entry of ``errors``, if None, becomes a
        :class:`ParameterDomainError`.

        A block of size 1 is diag(x, 1, ..., 1) with unit columns, so its
        condition number is max(|x|, 1) / min(|x|, 1) in closed form, not a
        number where x is NaN or 0; only the blocks of size 2 or more go to
        the SVD."""
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            norms = np.linalg.norm(blocks, axis=-2, keepdims=True)
            unit = blocks / norms
            overflow = np.isinf(norms)
            if overflow.any():
                for s, g in np.argwhere(overflow.any(axis=(2, 3, 4))).tolist():
                    errors[g][s] = errors[g][s] or ParameterDomainError(
                        "the eigenvector chains are too large to normalise: a power of q overflows")
            for g, stage in enumerate(errors):
                failed = [s for s, e in enumerate(stage) if e is not None]
                if failed:
                    unit[failed, g] = np.eye(unit.shape[-1])
            k = unit.shape[-1]
            # the blocks of size 1: the two end blocks, or every block where k = 1
            ends = slice(None) if k == 1 else slice(None, None, unit.shape[-3] - 1)
            cond = np.empty(unit.shape[:-2])
            x = np.abs(unit[..., ends, 0, 0])
            # max(|x|, 1) / min(|x|, 1), bit for bit, as dividing by 1 is exact
            np.maximum(x, 1 / x, out=cond[..., ends])
            if k > 1:
                s = np.linalg.svd(unit[..., 1:-1, :, :], compute_uv=False)
                np.divide(s[..., 0], s[..., -1], out=cond[..., 1:-1])
        return unit, norms, cond

    def chain_pass(self, sector: tuple | None = None, form: bool = True, read=()):
        """One pass that raises, in order, Delta and Delta-bar at u = 0 for the
        spectral form, when ``form`` and the form is not built yet (at the
        rational point, q on the zero log branch, the barred chains are the
        unbarred ones, so Delta alone), then ``sector``, a family (kind, us),
        when given: one :meth:`chains` pass, one cut of the chains into
        weight blocks, one :meth:`unit_blocks` call that conditions the
        form's unbarred family and the sector family together, and one
        :meth:`coproducts` broadcast for those families and the families
        ``read``.

        It keeps the spectral form it builds.  It gives the sector family's
        chains (S, d1+d2-1, d1*d2, k) and each sample's first error: that of
        :meth:`chains`, then the :class:`ParameterDomainError` of
        :meth:`unit_blocks`, then :class:`SingularBasis` from the
        weight-block test of :class:`SpectralForm` against
        :data:`COND_LIMIT` (or None without ``sector``), and the
        :meth:`coproducts` of the families ``read`` (or None without any).
        """
        families = []
        if form and self._form is None:
            zeros = [0.0] * len(self.qs)
            families = [("delta", zeros)] + ([] if self.rational else [("deltabar", zeros)])
        families += [] if sector is None else [sector]
        raised = len(families)
        families += [family for family in read if family not in families]
        if not families:
            return None, None
        sp, sm = self.coproducts(families)
        at = [families.index(family) for family in read]
        gens = (sp[:, at], sm[:, at]) if read else None
        if not raised:
            return None, gens
        chains, errors = self.chains(families[:raised], (sp[:, :raised], sm[:, :raised]))
        formed = raised - (sector is not None)
        stages = []
        if formed:
            # each sample's first error over the form's families
            stages.append([next(filter(None, first), None) for first in zip(*errors[:formed])])
        if sector is not None:
            stages.append(errors[formed])
        layout = self.layout
        blocks = layout.cut(chains)
        # the form's unbarred family, first, and the sector family, last
        unit, norms, cond = self.unit_blocks(blocks[:, ::max(formed, 1)], stages)
        # a condition number that is not a number fails the limit too
        within = cond <= COND_LIMIT
        conditioned = within.all()
        if formed:
            with np.errstate(divide="ignore", invalid="ignore"):
                left = unit[:, 0] if formed == 1 else blocks[:, 1] / norms[:, 0]
            right = unit[:, 0]
            if not conditioned and not np.isfinite(cond[:, 0]).all():
                # such a block fails every limit; the identity stands in for
                # it so that the batched inverse runs
                right = np.where(np.isfinite(cond[:, 0])[..., None, None], right,
                                 np.eye(unit.shape[-1]))
            self._form = (SpectralForm(left=left, right=np.linalg.inv(right), cond=cond[:, 0],
                                       layout=layout), stages[0])
        if sector is None:
            return None, gens
        errors = stages[-1]
        if not conditioned:
            cond = cond[:, -1]
            for s in np.flatnonzero((~within[:, -1]).any(axis=1)):
                errors[s] = errors[s] or layout.conditioning_error(cond[s], COND_LIMIT)
        return (chains[:, -1], errors), gens

    def sector_stack(self, us, kind: str = "delta") -> tuple[np.ndarray, list]:
        """The chains c[s, m, :, n] of every sector of the coproduct ``kind``
        at u_s (see :meth:`chains`) and each sample's first error, from a
        :meth:`chain_pass` of that one family."""
        return self.chain_pass((kind, us), form=False)[0]

    def sectors(self, u: complex, kind: str = "delta") -> list[np.ndarray]:
        """All eigen-sectors of the coproduct ``kind`` at u.

        Entry n is the raising chain of sector n, of shape (d1+d2-1-2n, d1*d2):
        row m is (S+_u)^m applied to the lowest-weight vector, row 0.  The
        chains come from :meth:`sector_stack`, and so does the error raised:
        :class:`CompletenessFailure`, :class:`ParameterDomainError` where a
        power of q overflows or, from the weight-block test of
        :class:`SpectralForm` against :data:`COND_LIMIT`,
        :class:`SingularBasis`.  The other kind's sectors are
        ``sectors(u, other kind)``.  A u that is not finite raises
        :class:`ParameterDomainError`.
        """
        _check_finite(u=u)
        if len(self.qs) != 1:
            raise DimensionMismatch("coproduct and sectors need a product space of one q")
        chains, errors = self.sector_stack([u], kind)
        _raise_first(errors)
        return _sector_chains(chains[0])

    def spectral_form(self) -> tuple[SpectralForm, list]:
        """The u-independent spectral form of R at every sample, built from
        the chains at u = 0 the first time it is asked for, by a
        :meth:`chain_pass` of its families alone unless one built it before,
        and each sample's error of :meth:`chains` or :meth:`unit_blocks`, or
        None.  The conditioning is recorded, not tested: callers test it
        against their limit.
        """
        if self._form is None:
            self.chain_pass()
        return self._form


def _chain_error(family: str, resid, lw_ok, size, broken) -> QybeError:
    """The error of one family of one sample that :meth:`ProductSpace.chains`
    flagged: its failing lowest-weight condition, else its first broken
    chain.  A chain that breaks by not being finite overflows, a
    :class:`ParameterDomainError`; one that vanishes is a
    :class:`CompletenessFailure`."""
    if not lw_ok:
        n = int(np.argmin(resid <= CHAIN_TOL))
        return CompletenessFailure(
            n, family, float(resid[n]),
            f"lowest-weight condition fails at sector {n} of the {family} family "
            f"(residual {resid[n]:.2e})")
    steps = size.shape[0]
    n, m = (int(i) for i in np.argwhere(broken.T)[0])
    if not np.isfinite(size[m, n]):
        return ParameterDomainError(
            f"raising chain of sector {n} of the {family} family is not finite at "
            f"step {m} of {steps - 2 * n}: a power of q overflows")
    return CompletenessFailure(
        n, family, float(size[m, n]),
        f"raising chain of sector {n} of the {family} family breaks at "
        f"step {m} of {steps - 2 * n} (relative size {size[m, n]:.2e})")


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@functools.lru_cache(maxsize=_SPACE_MEMO_SIZE)
def _spin_space(two_ell1: int, two_ell2: int, q: DeformationParameter,
                basis: str) -> ProductSpace:
    """The space behind :meth:`ProductSpace.of_spins`; raises
    :class:`ParameterDomainError`, before any chain is built, where a
    power of q overflows in the generators or q^S of a factor."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        space = ProductSpace.stack_of_spins(two_ell1 / 2, two_ell2 / 2, _QStack.of((q,)), basis)
        finite = all(np.isfinite(m).all() for f in space.factors
                     for m in (f.lift, f.lower, f.powers))
    if not finite:
        raise ParameterDomainError("the generator matrices are not finite: a power of q overflows")
    return space


def _targets(d1: int, d2: int, step1: int, step2: int) -> np.ndarray:
    """For every column x1^j x2^k of a d1 x d2 product, the flat position in
    the d x d matrix of the row x1^(j + step1 mod d1) x2^(k + step2 mod d2)."""
    j, k = np.divmod(np.arange(d1 * d2), d2)
    return ((j + step1) % d1 * d2 + (k + step2) % d2) * (d1 * d2) + np.arange(d1 * d2)


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
    sit in the flattened padded blocks.  ``moves[g, t]`` is where term t of
    generator g (:func:`_twisted_terms`) of each column lands in the flat
    d x d matrix: k1 (S1 term) or k2 (S2 term) moved by -1 for S-, 1 for S+,
    mod d1 or d2; ``exchanges`` is where S1- S2+ (row 0) and S1+ S2- (row 1)
    move each column, k1 and k2 moved together, mod d1 and d2.  Layouts are
    memoised on (d1, d2), so their arrays are read-only.
    """

    sizes: np.ndarray
    live: np.ndarray
    inside: np.ndarray
    take: tuple
    dst: np.ndarray
    twist: np.ndarray
    inside_flat: np.ndarray
    moves: np.ndarray
    exchanges: np.ndarray
    dim: int

    def __post_init__(self):
        for arr in (self.sizes, self.live, self.inside, *self.take, self.dst, self.twist,
                    self.inside_flat, self.moves, self.exchanges):
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
                   inside_flat=np.flatnonzero(inside),
                   moves=np.array([[_targets(d1, d2, step, 0), _targets(d1, d2, 0, step)]
                                   for step in (-1, 1)]),
                   exchanges=np.array([_targets(d1, d2, -1, 1), _targets(d1, d2, 1, -1)]),
                   dim=d1 * d2)

    def cut(self, chains: np.ndarray) -> np.ndarray:
        """The padded weight blocks of chains c[..., m, :, n] (see
        :meth:`ProductSpace.chains`), leading axes kept."""
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
    samples (see :meth:`ProductSpace.spectral_form`): ``left`` and ``right``
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


def _lowest_weights(ell1, ell2, us, signs, qs: _QStack, d1: int, d2: int,
                    count: int) -> np.ndarray:
    """For each sample s and family f, at (u_sf, q_s) with ``us`` of shape
    (S, F) and q_s from the stack ``qs``, rows n < count: the monomial
    coefficients of the degree-n lowest-weight polynomial, all from one
    product recurrence; shape (S, F, count, d1*d2).

    The unbarred polynomial (sign +1) is the product over i = 1..n of
    (q^{l1+1-i-u/2} x1 - q^{u/2+i-1-l2} x2); the barred one (sign -1)
    replaces q by 1/q.
    """
    us = np.asarray(us, complex)
    c = np.zeros((*us.shape, count, d1, d2), complex)
    c[..., 0, 0, 0] = 1.0
    n = np.arange(1, count)
    u = us[..., None] / 2
    lb = qs.log_branch[:, None, None, None]
    sign = np.asarray(signs)[:, None, None]
    powers = np.exp(sign * np.stack([ell1 + 1 - n - u, u + n - 1 - ell2], axis=2) * lb)
    for i in range(1, count):
        a = powers[..., 0, i - 1, None, None]
        b = powers[..., 1, i - 1, None, None]
        c[..., i, 1:, :] += a * c[..., i - 1, :-1, :]
        c[..., i, :, 1:] -= b * c[..., i - 1, :, :-1]
    return c.reshape(*us.shape, count, d1 * d2)


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
    _check_finite(u=u)
    c = casimir_matrix(space.coproduct(kind, u))
    chains, errors = space.sector_stack([u], kind)
    _raise_first(errors)
    f1, f2 = space.factors
    rows = _casimir_sectors(c[None], chains, space.layout.live, f1.ell, f2.ell, space.qs)
    return CasimirSpectrumReport([SectorEigenvalue(n, *entry) for n, entry
                                  in enumerate(zip(*(row[0].tolist() for row in rows)))])


def _casimir_sectors(c: np.ndarray, chains: np.ndarray, live: np.ndarray, ell1, ell2,
                     qs: _QStack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What the :func:`tensor_casimir` report of each sample of a stack
    holds, as three (S, k) arrays: the expected eigenvalue, the residual and
    the spread of every sector.  ``c`` is (S, d, d), and ``chains``
    (S, d1+d2-1, d, k) holds the chains of every sector padded to full
    length, with ``live`` (d1+d2-1, k) marking the steps of each (see
    :meth:`ProductSpace.chains`).

    C acts on every chain vector of every sample in one stacked mat-vec;
    row m's residual is ``qcore.residual(C v_m, lambda v_m, v_m)``, and each
    sector's residual and spread are the largest over its own steps.
    """
    x = np.arange(chains.shape[-1]) - ell1 - ell2
    qn = _qnums(np.stack([x, x - 1])[None], qs)
    lam = qn[:, 0] * qn[:, 1]
    # v[s, m, n] is step m of the chain of sector n
    v = chains.swapaxes(-1, -2)
    # the padding steps hold vectors that vanish, some exactly
    with np.errstate(divide="ignore", invalid="ignore"):
        cv = np.matmul(c[:, None, None], v[..., None])[..., 0]
        gap = np.abs(cv - lam[:, None, :, None] * v).max(axis=3)
        resid = np.where(live, _relative(gap, np.abs(v).max(axis=3)), 0.0).max(axis=1)
        rayleigh = np.vecdot(v, cv) / np.vecdot(v, v).real
        spread = np.where(live, np.abs(rayleigh - rayleigh[:, :1]), 0.0).max(axis=1)
    return lam, resid, spread


def weight_reversed(arr: np.ndarray) -> np.ndarray:
    """Reverse every axis: maps ascending-power ordering to the
    descending-weight ordering used in printed tables."""
    return np.flip(arr, axis=tuple(range(arr.ndim)))
