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
                     SingularBasis)
from .qcore import (DeformationParameter, _check_finite, _nan_max, _qnums, _QStack, _relative,
                    _require_finite)
from .rep import OperatorTriple, _Bands, _casimir_diagonals, _spin_factors, _two_spin

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
    :meth:`ProductSpace.chain_pass` reads of the families."""
    kinds = np.array([_kind_index(kind) for kind, _ in families])
    return kinds, np.array([us for _, us in families], complex).T


def _twisted_terms(f1: _Bands, f2: _Bands, kinds: np.ndarray, us: np.ndarray,
                   gathered: tuple | None = None) -> np.ndarray:
    """The coproduct kernel, the one place the formula of
    :meth:`ProductSpace.coproduct` is written: the terms of the twisted
    generators of V1 x V2 for each sample of the band stacks ``f1``, ``f2``
    and each entry, a generator (0 for S-, 1 for S+) of the coproduct of a
    kind (0 for Delta, 1 for Delta-bar) at u_s.  t[0, s, e] holds the S1
    terms of entry e and t[1, s, e] its S2 terms, one per source label
    (k1, k2), the d1 x d2 grid of them by default.  Each is a band entry
    times the other factor's q-power, then times q^{u/2} where t is the
    entry's slot, generator ^ kind, and over it elsewhere: an entry of a
    Kronecker piece S1 x q^{S2} or q^{-S1} x S2, bit for bit.

    By default the entries are the two generators of each family of the
    kinds and us of :func:`_family_arrays`, e = (f, a) with generator
    a ^ kind_f in slot a.  ``gathered``, when given, is a pair (gens,
    labels): the generator of each entry e, one per kind, with ``us``
    (S, 1) or (S, E), and a pair of integer arrays (k1, k2), each indexed
    [e, t] over two trailing axes, those of k1 broadcast to those of k2:
    the source labels of the terms to form in place of the grid.  The
    bands and q-powers are gathered at them, one flat take each, before
    they multiply.
    """
    if gathered is None:
        kinds, us = kinds[:, None], us[..., None]
        gens = kinds ^ np.arange(2)
    else:
        gens, (k1, k2) = gathered
    slots = gens ^ kinds
    bands1 = np.stack([f1.lower, f1.lift], axis=1)
    bands2 = bands1 if f2 is f1 else np.stack([f2.lower, f2.lift], axis=1)
    # [t]: the two factors of term t, each an array (S, 2, d) and the rows it is read at;
    # Delta weights the S1 terms by q^{S2} and the S2 terms by q^{-S1}, Delta-bar the other way
    left = (bands1, gens), (f1.powers, 1 - kinds)
    right = (f2.powers, kinds), (bands2, gens)
    count = len(us)
    if gathered is None:
        terms = np.empty((2, count, *slots.shape, f1.lift.shape[1], f2.lift.shape[1]), complex)
        for t, ((m1, rows1), (m2, rows2)) in enumerate(zip(left, right)):
            np.multiply(m1[:, rows1, :, None], m2[:, rows2, None, :], out=terms[t])
    else:
        terms = np.empty((2, count, len(k2), *k2.shape[2:]), complex)
        for t, ((m1, rows1), (m2, rows2)) in enumerate(zip(left, right)):
            # the right factor is taken into the terms, and the left multiplies it there; the
            # labels are in range, and "clip" lets numpy take into the terms without a buffer
            np.take(m2.reshape(count, -1), rows2[:, None, None] * m2.shape[-1] + k2[:, t], axis=1,
                    out=terms[t], mode="clip")
            np.multiply(np.take(m1.reshape(count, -1), rows1[:, None, None] * m1.shape[-1]
                                + k1[:, t], axis=1), terms[t], out=terms[t])
    qu = np.exp(us / 2 * f1.qs.log_branch.reshape(-1, *(1,) * (us.ndim - 1)))[..., None, None]
    # q^{u/2} multiplies the term t = slot of each entry and divides the other
    times = (np.arange(2).reshape(2, 1, *(1,) * slots.ndim) == slots)[..., None, None]
    np.multiply(qu, terms, out=terms, where=times)
    np.divide(terms, qu, out=terms, where=~times)
    return terms


def _sector_chains(chains: np.ndarray) -> list[np.ndarray]:
    """Entry n is the raising chain of sector n, the live steps of the
    chains c[..., m, :, n] (see :meth:`ProductSpace._chains`)."""
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
    as its own matrix.  They return arrays and raise as soon as a sample
    fails a test, with the error of the lowest sample that fails it, so a
    space of one sample raises that sample's first error (the harness of
    :mod:`verify` replays a failed stack one sample at a time).
    :meth:`coproduct` and :meth:`sectors` need a space of one q (else
    :class:`DimensionMismatch`).  Its arrays are read-only, since the suites
    of one pass of :mod:`verify`, and the callers of the memoised
    :meth:`of_spins`, share one space.
    """

    def __init__(self, rep1, rep2):
        """``rep1`` and ``rep2`` are two :class:`OperatorTriple` over one q,
        each with S+ and S- on their bands (else :class:`ParameterDomainError`),
        or two band stacks (``rep._Bands``) over the same q values, each with
        one weight vector, not one per sample (else :class:`ParameterDomainError`)."""
        if isinstance(rep1, OperatorTriple):
            _require_shared_q(rep1.q, rep2.q)
            rep1, rep2 = _Bands.of_triple(rep1), _Bands.of_triple(rep2)
        f1, f2 = self.factors = (rep1, rep2)
        if any(f.weights.ndim > 1 and len(f.weights) > 1 for f in self.factors):
            raise ParameterDomainError("a product space takes one weight vector per factor")
        self.qs = f1.qs
        self.weights = _read_only(np.add.outer(f1.weights, f2.weights).ravel())
        self.dims = (f1.lift.shape[1], f2.lift.shape[1])
        self.from_monomial = None
        if f1.from_monomial is not None or f2.from_monomial is not None:
            d1, d2 = (f.from_monomial if f.from_monomial is not None
                      else np.ones((len(self.qs), f.weights.size)) for f in (f1, f2))
            self.from_monomial = _read_only((d1[:, :, None] * d2[:, None, :]).reshape(len(d1), -1))
        self.layout = _BlockLayout.of_dims(*self.dims)
        self._form: SpectralForm | None = None

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

    def coproduct(self, kind: str = "delta", u: complex = 0.0) -> OperatorTriple:
        """The tensor-product generators of ``kind`` twisted by the spectral
        parameter u:

            "delta":     S-_u = q^{u/2+S2} S1- + q^{-u/2-S1} S2-,
                         S+_u = q^{-u/2+S2} S1+ + q^{u/2-S1} S2+;
            "deltabar":  the q -> 1/q twin (all twist exponents negated).

        They are the :meth:`chain_pass` read of that one family.  A u that is
        not finite raises :class:`ParameterDomainError`, and so does, naming
        u, a u so large that a power of q overflows in the matrices.
        """
        self._require_one_q(u)
        sp, sm = self.chain_pass(form=False, read=[(kind, [u])])[1]
        _require_finite("the coproduct is not finite at", sp, sm, us=[u])
        f1, f2 = self.factors
        fm = self.from_monomial
        return OperatorTriple(sp=sp[0, 0], sm=sm[0, 0], weights=self.weights, q=self.qs[0],
                              basis_tag=f"{f1.basis_tag}*{f2.basis_tag}", ell=None,
                              from_monomial=None if fm is None else fm[0])

    def _require_one_q(self, u: complex) -> None:
        """The guard of the calls at one u: a finite u, and a space of one q."""
        _check_finite(u=u)
        if len(self.qs) != 1:
            raise DimensionMismatch("coproduct and sectors need a product space of one q")

    @functools.cached_property
    def _casimir_diagonal(self) -> np.ndarray:
        """The diagonal part [S][S-1] of the Casimir at every q, (S, d, d)."""
        return _read_only(_casimir_diagonals(self.weights, self.qs))

    def _chains(self, kinds: np.ndarray, us: np.ndarray, sp: np.ndarray,
                sm: np.ndarray) -> np.ndarray:
        """The chain stage of :meth:`chain_pass`: the raising chains of every
        sector of F families, of the kind indices ``kinds`` (F,) at the us
        (S, F) of :func:`_family_arrays`, for every sample s, all raised in
        one pass from their coproducts ``sp`` and ``sm`` (S, F, d, d), under
        the errstate of the pass: one lowest-weight recurrence and one
        raising loop over the stacked generators.

        Returns c of shape (S, F, d1+d2-1, d1*d2, k), k = min(d1, d2), with
        c[s, f, m][:, n] = (S+_u)^m v_n for family f and v_n the lowest-weight
        vector of sector n from the closed product formula.  Raises, for the
        lowest failing sample and its first failing family, a
        :class:`ParameterDomainError` naming u where S-_u or a v_n is not
        finite at a finite u, a :class:`CompletenessFailure` where S-_u v_n
        is not zero, or the chain of sector n vanishes before its full length
        d1+d2-1-2n, each measured against :data:`CHAIN_TOL`, or a
        :class:`ParameterDomainError` where the chain is not finite, since a
        power of q overflows; a family's lowest-weight vectors are tested
        before its chains.  Every step is elementwise along the family axis,
        so each family's chains are those of a pass of it alone.
        """
        f1, f2 = self.factors
        if f1.ell is None or f2.ell is None:
            raise ParameterDomainError("eigen-sectors need two finite spins")
        (d1, d2), count = self.dims, len(self.qs)
        k, steps = min(d1, d2), d1 + d2 - 1
        lw = _lowest_weights(f1.ell, f2.ell, us, 1.0 - 2.0 * kinds, self.qs, d1, d2, k)
        chains = np.empty((count, kinds.size, steps, d1 * d2, k), complex)
        if self.from_monomial is None:
            chains[:, :, 0] = lw.swapaxes(2, 3)
        else:
            np.multiply(self.from_monomial[:, None, :, None], lw.swapaxes(2, 3),
                        out=chains[:, :, 0])
        for m in range(1, steps):
            np.matmul(sp, chains[:, :, m - 1], out=chains[:, :, m])
        size = np.abs(chains).max(axis=3)
        # the largest lowest-weight entry, step 0 of the sizes, or 1
        scale = np.maximum(1.0, size[:, :, :1])
        resid = np.abs(sm @ chains[:, :, 0]).max(axis=2) / scale[:, :, 0]
        size /= scale
        # a live step is sound where its relative size is in [CHAIN_TOL, inf)
        sizes = np.where(self.layout.live, size, CHAIN_TOL)
        if resid.max() <= CHAIN_TOL and CHAIN_TOL <= sizes.min() and sizes.max() < np.inf:
            return chains
        broken = ~((sizes >= CHAIN_TOL) & (sizes < np.inf))
        lw_ok = (resid <= CHAIN_TOL).all(axis=2)
        # S-_u or a lowest-weight vector that is not finite at a finite u overflows
        overflow = np.isfinite(us) & ~np.isfinite(np.concatenate([sm, lw], axis=2)).all(axis=(2, 3))
        s, f = np.argwhere(overflow | ~lw_ok | broken.any(axis=(2, 3)))[0].tolist()
        family = _FAMILY_NAMES[kinds[f]]
        if overflow[s, f]:
            _require_finite(f"the {family} family is not finite at", sm[s, f], lw[s, f],
                            us=[us[s, f]])
        raise _chain_error(family, resid[s, f], lw_ok[s, f], size[s, f], broken[s, f])

    @np.errstate(over="ignore", divide="ignore", invalid="ignore")
    def chain_pass(self, sector: tuple | None = None, form: bool = True, read=()):
        """The one pass that raises chains.  It raises, in order, Delta and
        Delta-bar at u = 0 for the spectral form, when ``form`` and the form
        is not built yet (at the rational point, q on the zero log branch,
        the barred chains are the unbarred ones, so Delta alone), then
        ``sector``, a family (kind, us), when given: the kinds and us of
        those families and the families ``read`` derived once
        (:func:`_family_arrays`), one scatter of their coproducts (the one
        dense scatter), one :meth:`_chains` pass, one cut of the chains
        into weight blocks (one flat take, :meth:`_BlockLayout.cut`), one
        :func:`_unit_blocks` call that conditions the form's unbarred family
        and the sector family together, and one test of those blocks
        against :data:`COND_LIMIT`, which raises :class:`SingularBasis` for
        the worst block of the lowest failing sample.  The pass runs with
        numpy's overflow, division and invalid-value warnings off, since its
        own tests find what is not finite.

        It keeps the spectral form it builds.  It gives the sector family's
        chains (S, d1+d2-1, d1*d2, k), or None without ``sector``, and S+_u
        and S-_u (S, F, d, d) of the F families ``read``, or None without
        any; a family read that equals one before it, as u = -0.0 does 0.0,
        is that one.  A sample fails on its chains, then on an overflow, then
        on its blocks.
        """
        families = []
        if form and self._form is None:
            zeros = [0.0] * len(self.qs)
            families = [("delta", zeros)] + ([] if self.qs.rational else [("deltabar", zeros)])
        families += [] if sector is None else [sector]
        raised = len(families)
        families += [family for family in read if family not in families]
        if not families:
            return None, None
        kinds, us = _family_arrays(families)
        sp, sm = self.layout.generators(_twisted_terms(*self.factors, kinds, us), kinds)
        gens = None
        if read:
            at = [families.index(family) for family in read]
            # the families read follow those raised, so they are mostly one slice, not a copy
            if at == list(range(at[0], at[0] + len(at))):
                at = slice(at[0], at[0] + len(at))
            gens = sp[:, at], sm[:, at]
        if not raised:
            return None, gens
        chains = self._chains(kinds[:raised], us[:, :raised], sp[:, :raised], sm[:, :raised])
        formed = raised - (sector is not None)
        blocks = self.layout.cut(chains)
        # the form's unbarred family, first, and the sector family, last
        unit, norms, cond = _unit_blocks(blocks[:, ::max(formed, 1)])
        # a condition number that is not a number fails the limit too
        failed = ~(cond <= COND_LIMIT)
        if failed.any():
            s, g = np.argwhere(failed.any(axis=2))[0].tolist()
            raise self.layout.conditioning_error(cond[s, g], COND_LIMIT)
        if formed:
            left = unit[:, 0] if formed == 1 else blocks[:, 1] / norms[:, 0]
            self._form = SpectralForm(left=left, right=np.linalg.inv(unit[:, 0]),
                                      layout=self.layout)
        return (None if sector is None else chains[:, -1]), gens

    def sectors(self, u: complex, kind: str = "delta") -> list[np.ndarray]:
        """All eigen-sectors of the coproduct ``kind`` at u.

        Entry n is the raising chain of sector n, of shape (d1+d2-1-2n, d1*d2):
        row m is (S+_u)^m applied to the lowest-weight vector, row 0.  The
        chains come from a :meth:`chain_pass` of that one family, and so does
        the error raised: :class:`CompletenessFailure`,
        :class:`ParameterDomainError` where a power of q overflows or, from
        the weight-block test against :data:`COND_LIMIT`,
        :class:`SingularBasis`.  The other kind's sectors are
        ``sectors(u, other kind)``.  A u that is not finite raises
        :class:`ParameterDomainError`.
        """
        self._require_one_q(u)
        return _sector_chains(self.chain_pass((kind, [u]), form=False)[0][0])

    def spectral_form(self) -> SpectralForm:
        """The u-independent spectral form of R at every sample, built from
        the chains at u = 0 the first time it is asked for, by a
        :meth:`chain_pass` of its families alone unless one built it before;
        that pass raises the form's errors, and a form that fails is not
        kept, so every call raises them."""
        if self._form is None:
            self.chain_pass()
        return self._form


def _chain_error(family: str, resid, lw_ok, size, broken) -> QybeError:
    """The error of one family of one sample that :meth:`ProductSpace._chains`
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


def _unit_blocks(blocks: np.ndarray):
    """The weight blocks (S, G, d1+d2-1, k, k) of G families (see
    :meth:`_BlockLayout.cut`) with unit columns, the column norms and the
    condition number of every block, under the errstate of
    :meth:`ProductSpace.chain_pass`.  Where the column norms of a block
    overflow, its chains finite, a :class:`ParameterDomainError` is raised.

    A block of size 1 is diag(x, 1, ..., 1) with unit columns, so its
    condition number is max(|x|, 1) / min(|x|, 1) in closed form, not a
    number where x is NaN or 0; only the blocks of size 2 or more go to
    the SVD."""
    # the column norms, as np.linalg.norm forms them
    norms = np.sqrt(np.add.reduce((blocks.conj() * blocks).real, axis=-2, keepdims=True))
    # the chains are finite here, so only an infinite norm overflows; a NaN fails the limit
    if np.isinf(norms).any():
        _require_finite("the eigenvector chains are too large to normalise", norms)
    unit = blocks / norms
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
        for f in space.factors:
            f.require_finite()
    return space


def _targets(d1: int, d2: int, step1: int, step2: int) -> np.ndarray:
    """For every column x1^j x2^k of a d1 x d2 product, the flat position in
    the d x d matrix of the row x1^(j + step1 mod d1) x2^(k + step2 mod d2)."""
    j, k = np.divmod(np.arange(d1 * d2), d2)
    return ((j + step1) % d1 * d2 + (k + step2) % d2) * (d1 * d2) + np.arange(d1 * d2)


@dataclasses.dataclass(frozen=True)
class _BlockLayout:
    """Where the weight blocks of a d1 x d2 product sit, and the flat indices
    of every gather and scatter of the spin-pair pass.

    Block b (b = 0..d1+d2-2, weight b - (d1+d2-2)/2) spans the ``sizes[b]``
    monomials x1^j x2^(b-j), in ascending j.  Sector n has one vector in
    block b for each n < sizes[b]: its (b-n)-th descendant, so ``live[m, n]``
    marks the steps m < d1+d2-1-2n of the chain of sector n.  Blocks are
    padded to k x k, k = min(d1, d2), with the identity ``padding`` where
    ``outside`` is set; ``gather[b, i, n]`` is where entry i of the vector
    of sector n in block b sits in a family's flattened chains
    (d1+d2-1, d, k), 0 outside.  For the entries inside, in C order,
    ``dst`` is the flat position in the d x d matrix and
    ``twist`` is j' - j for the entry that maps x1^j' x2^. to x1^j x2^.: the
    power of q^u that the twist T_u = q^{-u(S1-S2)/2} puts on it;
    ``inside_flat`` is where those entries sit in the flattened padded
    blocks.  ``scatter[t, kind]`` is where term t of each (slot a, column)
    of a family of that kind (:func:`_twisted_terms`) lands in the family's
    S- and S+, flattened together (2, d, d): the term of generator
    g = a ^ kind, k1 (S1 term, t = 0) or k2 (S2 term) moved by -1 for S-,
    1 for S+, mod d1 or d2.  ``exchanges`` is where S1- S2+
    (row 0) and S1+ S2- (row 1) move each column, k1 and k2 moved together,
    mod d1 and d2, and ``identity`` is the d x d identity.  Layouts are
    memoised on (d1, d2), so their arrays are read-only.
    """

    sizes: np.ndarray
    live: np.ndarray
    outside: np.ndarray
    padding: np.ndarray
    gather: np.ndarray
    dst: np.ndarray
    twist: np.ndarray
    inside_flat: np.ndarray
    scatter: np.ndarray
    exchanges: np.ndarray
    identity: np.ndarray
    dim: int

    def __post_init__(self):
        for arr in (self.sizes, self.live, self.outside, self.padding, self.gather, self.dst,
                    self.twist, self.inside_flat, self.scatter, self.exchanges, self.identity):
            arr.setflags(write=False)

    @classmethod
    @functools.lru_cache(maxsize=_LAYOUT_MEMO_SIZE)
    def of_dims(cls, d1: int, d2: int) -> "_BlockLayout":
        k, nb, dim = min(d1, d2), d1 + d2 - 1, d1 * d2
        b = np.arange(nb)[:, None]
        n = np.arange(k)
        j = np.maximum(0, b - d2 + 1) + n
        sizes = np.minimum(b, d1 - 1)[:, 0] - j[:, 0] + 1
        row_ok = n < sizes[:, None]
        rows = np.where(row_ok, j * d2 + b - j, 0)
        inside = row_ok[:, :, None] & row_ok[:, None, :]
        # [g, t]: term t of generator g (0 for S-, 1 for S+) of every column
        moves = np.array([[_targets(d1, d2, step, 0), _targets(d1, d2, 0, step)]
                          for step in (-1, 1)])
        gens = np.arange(2)[:, None] ^ np.arange(2)  # [kind, a]: the generator in slot a
        # [t, kind, a, column]
        scatter = gens[:, :, None] * dim * dim + moves[gens].transpose(2, 0, 1, 3)
        return cls(sizes=sizes, live=b < nb - 2 * n, outside=~inside,
                   padding=np.eye(k),
                   gather=np.where(inside, ((b[:, :, None] - n) * dim + rows[:, :, None]) * k + n,
                                   0),
                   dst=(rows[:, :, None] * dim + rows[:, None, :])[inside],
                   twist=(j[:, None, :] - j[:, :, None])[inside],
                   inside_flat=np.flatnonzero(inside), scatter=scatter,
                   exchanges=np.array([_targets(d1, d2, -1, 1), _targets(d1, d2, 1, -1)]),
                   identity=np.eye(dim), dim=dim)

    def generators(self, terms: np.ndarray, kinds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """S+ and S- of each family, two (S, F, d, d) views of one buffer of
        both, from the terms (2, S, F, 2, d1, d2) of :func:`_twisted_terms`
        of the families' kinds, by one scatter onto +0.0, or one scatter-add
        where both factors have dimension 1; ``terms`` is written over."""
        count, size = terms.shape[1:3]
        gens = np.zeros((count, size, 2, self.dim, self.dim), complex)
        # [t, f, a, column]
        targets = np.arange(size)[:, None, None] * (2 * self.dim ** 2) + self.scatter[:, kinds]
        flat, terms = gens.reshape(count, -1), terms.reshape(2, count, -1)
        if self.dim == 1:
            # both factors of dimension 1: the two terms of a generator land on one entry and add
            np.add.at(flat, (slice(None), targets.reshape(2, -1)), terms.swapaxes(0, 1))
        else:
            # as an addition onto the +0.0 would, a -0.0 term lands as +0.0
            flat[:, targets.reshape(2, -1)] = np.add(terms, 0.0, out=terms).swapaxes(0, 1)
        return gens[:, :, 1], gens[:, :, 0]

    def cut(self, chains: np.ndarray) -> np.ndarray:
        """The padded weight blocks of chains c[..., m, :, n] (see
        :meth:`ProductSpace._chains`), leading axes kept: one flat take and
        the identity padding."""
        blocks = chains.reshape(*chains.shape[:-3], -1)[..., self.gather]
        np.copyto(blocks, self.padding, where=self.outside)
        return blocks

    def conditioning_error(self, cond: np.ndarray, limit: float) -> SingularBasis:
        """:class:`SingularBasis` for the worst block whose condition number
        is above ``limit`` or not a number, of which there is one at least."""
        bad = np.flatnonzero(~(cond <= limit))
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
    have shape (S, d1+d2-1, k, k), k = min(d1, d2).

    The twist is a diagonal similarity, Delta_u = T_u Delta_0 T_u^{-1} with
    T_u = q^{-u(S1-S2)/2}, and the barred coproduct at -u carries the same
    T_u.  So the chains at u = 0 give R at every u:

        R(u) = T_u (sum_b PhiBar_b D(u) Phi_b^{-1}) T_u^{-1},

    where Phi_b holds the unbarred chain vectors of weight block b and D(u)
    the sector eigenvalues.  ``right`` is the inverse of each block with
    unit columns and ``left`` the barred block over the same column norms,
    both read-only.
    """

    left: np.ndarray
    right: np.ndarray
    layout: _BlockLayout

    def __post_init__(self):
        for arr in (self.left, self.right):
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
    :func:`_casimir_sectors`, over one :meth:`ProductSpace.chain_pass` of
    that family, which raises what :meth:`ProductSpace.sectors` raises.
    """
    space._require_one_q(u)
    chains, (sp, sm) = space.chain_pass((kind, [u]), form=False, read=[(kind, [u])])
    rows = _casimir_sectors(space, chains, sp[:, 0], sm[:, 0])
    return CasimirSpectrumReport([SectorEigenvalue(n, *entry) for n, entry
                                  in enumerate(zip(*(row[0].tolist() for row in rows)))])


def _casimir_sectors(space: ProductSpace, chains: np.ndarray, sp: np.ndarray,
                     sm: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What the :func:`tensor_casimir` report of each sample of ``space``
    holds, as three (S, k) arrays: the expected eigenvalue, the residual and
    the spread of every sector.  ``chains`` (S, d1+d2-1, d, k) holds the
    chains of every sector padded to full length, with the layout's
    ``live`` (d1+d2-1, k) marking the steps of each (see
    :meth:`ProductSpace._chains`), and ``sp`` and ``sm`` (S, d, d) are the
    coproduct that raised them.

    C = S+ S- plus the space's Casimir diagonal acts on every chain vector
    of every sample in one stacked mat-vec, with numpy's warnings off;
    row m's residual is ``qcore.residual(C v_m, lambda v_m, v_m)``, and each
    sector's residual and spread are the largest over its own steps.
    """
    f1, f2 = space.factors
    live = space.layout.live
    x = np.arange(chains.shape[-1]) - f1.ell - f2.ell
    qn = _qnums(np.array([[x, x - 1]]), space.qs)
    lam = qn[:, 0] * qn[:, 1]
    # v[s, m, n] is step m of the chain of sector n
    v = chains.swapaxes(-1, -2)
    # C may overflow, and the padding steps hold vectors that vanish, some exactly
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        c = sp @ sm + space._casimir_diagonal
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
