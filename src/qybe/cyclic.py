"""Cyclic representations at odd roots of unity.

The N-dimensional basis {theta_k} extends the monomials {x^k} of the spin
representations: indices run mod N, and the generators act by the spin
formulas at (alpha, beta, lam) in place of (2l, 0, 0),

    S- theta_k = q^{-lam/2} [k - beta] theta_{k-1},
    S+ theta_k = q^{ lam/2} [alpha - k] theta_{k+1},
    q^{aS} theta_k = q^{a (k - (alpha+beta)/2)} theta_k,

so a stack of them is the band record ``rep._Bands`` of the spin layer,
its wrap entries S+ theta_{N-1} and S- theta_0 no longer 0.  On a product
theta_{k1, k2} every twisted generator moves the weight sector
(k1 + k2) mod N by one, so the tensor checks run on its N sector blocks,
each two diagonals of the terms of the coproduct kernel
(:func:`_sector_diagonals`), never on the dense N^2 x N^2 coproducts.  The
shift laws apply each block as its two diagonals; the tensor powers
multiply the blocks around the cycle of sectors from shared windows, 23
block products at N = 7 (:func:`_around_the_cycle`), each entry a
two-term sum.  The partial R is solved on one sector (:func:`_partial_rs`).

The kernels behind the central elements, the tensor powers, the shift
laws, the eigenvalue family and the partial R take S samples at one q
along a leading axis; each public function is the stack of one of its
kernel, and every slice equals the sample alone bit for bit.  Every
product of two complex arrays there broadcasts one factor or has no
temporary right operand, so numpy never computes it into a large
temporary operand with the factors swapped, which can move the last bit.
"""
from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np

from .errors import (InconsistentConstraints, NotScalar, OrderMismatch,
                     ParameterDomainError, SamplerExhausted, ShiftLawViolation)
from .qcore import (MAX_DRAWS, DeformationParameter, _check_finite, _nan_max, _QStack,
                    _relative, _require_finite_at, qnum, sample_params)
from .rep import OperatorTriple, _Bands, _diag
from .tensorrep import _require_shared_q, _twisted_terms


@dataclasses.dataclass(frozen=True)
class CyclicRepSpec:
    """Three-parameter cyclic representation data at order N.

    ``q`` defaults to :meth:`DeformationParameter.root_of_unity` of N; a
    given q must have ``order`` N.
    """

    alpha: complex
    beta: complex
    lam: complex
    n: int
    q: DeformationParameter | None = None

    def __post_init__(self):
        _check_finite(alpha=self.alpha, beta=self.beta, lam=self.lam)
        if self.q is None:
            object.__setattr__(self, "q", DeformationParameter.root_of_unity(self.n))
        elif self.q.order != self.n:
            raise ParameterDomainError(f"q is not a root of unity of order {self.n}")

    @property
    def ell(self) -> complex:
        """Derived spin label (alpha + beta) / 2."""
        return (self.alpha + self.beta) / 2


class _Params(NamedTuple):
    """The parameters of S specs, each an (S,) array; they stand in for a
    spec wherever only alpha, beta and lam are read."""

    alpha: np.ndarray
    beta: np.ndarray
    lam: np.ndarray


def _params(specs) -> _Params:
    return _Params(*np.array([(s.alpha, s.beta, s.lam) for s in specs], complex).T)


def _rep_bands(specs) -> _Bands:
    """The bands of every spec's representation, in one stacked pass, with
    weights (S, N); the specs share N and q, which the stack holds once."""
    n, q = specs[0].n, specs[0].q
    k = np.arange(n)
    alpha, beta, lam = (x[:, None] for x in _params(specs))
    x = lam / 2 * q.log_branch
    return _Bands(lift=np.exp(x) * qnum(alpha - k, q), lower=np.exp(-x) * qnum(k - beta, q),
                  weights=k - (alpha + beta) / 2, from_monomial=None, ell=None, basis_tag="theta",
                  qs=_QStack.of((q,)))


def _halves(bands: _Bands) -> tuple[_Bands, _Bands]:
    """The factors V1 and V2, as views, of a :func:`_rep_bands` stack of 2 S."""
    half = len(bands.lift) // 2
    return tuple(dataclasses.replace(bands, lift=bands.lift[rows], lower=bands.lower[rows],
                                     weights=bands.weights[rows])
                 for rows in (slice(half), slice(half, None)))


def build_cyclic_rep(spec: CyclicRepSpec) -> OperatorTriple:
    """Generator matrices of the cyclic representation on {theta_k}; the
    stack of one of :func:`_rep_bands`."""
    bands = _rep_bands([spec])
    sp, sm = bands.dense()[0]
    return OperatorTriple(sp=sp, sm=sm, weights=bands.weights[0], q=spec.q,
                          basis_tag="theta", ell=None, from_monomial=None)


def _scalar_part(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The scalars of a stack of block-diagonal matrices, each given as the
    stack of its diagonal blocks, shape (..., B, N, N), and their relative
    off-scalar residuals; both of shape ``m.shape[:-3]``.

    A scalar is the mean of its B N diagonal entries, summed in the order
    in which ``sum()`` of one matrix's diagonal sums them, and its residual
    is :func:`qcore.residual` of the blocks against it.
    """
    d = np.diagonal(m, axis1=-2, axis2=-1)
    s = d.sum(axis=(-2, -1)) / (d.shape[-2] * d.shape[-1])
    # the blocks less the scalar on their diagonals, in one copy of the blocks
    off = m.copy()
    np.einsum("...ii->...i", off)[...] -= s[..., None, None]
    gaps = np.abs(off).max(axis=(-3, -2, -1))
    return s, _relative(gaps, np.abs(s))


@dataclasses.dataclass(frozen=True)
class CentralElements:
    alpha_plus: complex
    alpha_minus: complex
    qns_scalar: complex
    max_offscalar_residual: float
    alpha_minus_product_route: complex


class _Central(NamedTuple):
    """The central elements of S representations: ``scalars`` and
    ``offscalar_residuals`` (S, 3), of (S+)^N, (S-)^N and q^{NS}, and
    ``routes`` (S,), the q-number-product route to (S-)^N."""

    scalars: np.ndarray
    offscalar_residuals: np.ndarray
    routes: np.ndarray


def _central_elements(specs, bands: _Bands) -> _Central:
    """:func:`central_elements` of every spec, unguarded, from the stack
    ``bands`` of their representations: one ``matrix_power`` of all the
    S+ and S-, and the q-number products of the cross-check along one axis."""
    n, q = specs[0].n, specs[0].q
    mats = np.concatenate([np.linalg.matrix_power(bands.dense(), n),
                           _diag(q.pow(n * bands.weights))[:, None]], axis=1)
    scalars, resids = _scalar_part(mats[:, :, None])
    params = _params(specs)
    # phi_product(beta, q).product of every spec, times -q^{-N lam/2}
    prods = np.prod(qnum(params.beta[:, None] + np.arange(n), q), axis=-1)
    return _Central(scalars, resids, -np.exp(-n * params.lam / 2 * q.log_branch) * prods)


def central_elements(spec: CyclicRepSpec, tol: float = 1e-10) -> CentralElements:
    """Scalars of (S+)^N, (S-)^N and q^{NS}, verified to be central.

    (S-)^N is cross-checked against the independent q-number-product route
    q^{-N lam/2} * (-1) * prod_{j=0}^{N-1} [beta + j].  The stack of one
    of :func:`_central_elements`.
    """
    central = _central_elements([spec], _rep_bands([spec]))
    (ap, am, aq), resids = central.scalars[0].tolist(), central.offscalar_residuals[0].tolist()
    worst = _nan_max(*resids)
    if not worst <= tol:
        raise NotScalar(worst, f"extended-center candidate has off-scalar residual {worst:.3e}")
    return CentralElements(alpha_plus=ap, alpha_minus=am, qns_scalar=aq,
                           max_offscalar_residual=worst,
                           alpha_minus_product_route=central.routes[0].item())


def _require_same_q(spec1: CyclicRepSpec, spec2: CyclicRepSpec) -> None:
    """Cyclic factors must share their order N, and q with its log branch."""
    if spec1.n != spec2.n:
        raise OrderMismatch(f"orders differ: {spec1.n} vs {spec2.n}")
    _require_shared_q(spec1.q, spec2.q)


# the four twisted generators, in the order of every stack over them, and
# the steps by which each moves the weight sector
_GENERATORS = ("sm_u", "sp_u", "sm_bar_u", "sp_bar_u")
_STEPS = np.array([-1, 1, -1, 1])
# the coproduct kind of each (0 for Delta, 1 for Delta-bar) and whether it raises (0 for S-,
# 1 for S+), as the coproduct kernel reads them
_KIND_INDEX = np.array([0, 0, 1, 1])
_RAISING = np.array([0, 1, 0, 1])
# [g, t, 1, 1]: the step by which term t of each moves the label k1
_SHIFTS = (_STEPS[:, None] * np.array([1, 0]))[..., None, None]


def _sector_diagonals(reps1: _Bands, reps2: _Bands, us) -> tuple[np.ndarray, np.ndarray]:
    """The two nonzero diagonals of every sector-transition block of the four
    twisted generators on V1 x V2, for every sample of the stacks at its u.

    Each of sm_u, sp_u, sm_bar_u and sp_bar_u (steps -1, 1, -1, 1) is N
    blocks of N x N: block i maps sector i * step_g mod N to
    (i + 1) * step_g, on the basis vectors theta_{k1, c - k1} of sector c
    ordered by k1.  ``on`` and ``off``, each (S, 4, N, N), hold at
    [s, g, i, r] the entries of block i at [r, r], the S2 term, and at
    [r, (r - step_g) mod N], the S1 term, so row r of a block applied to v
    is on[r] v[r] + off[r] v[r - step].  They are the terms of the coproduct
    kernel :func:`tensorrep._twisted_terms` at the labels of
    :func:`_sector_labels`, so bit for bit the entries of the dense
    generators.
    """
    terms = _twisted_terms(reps1, reps2, _KIND_INDEX, np.asarray(us, complex)[:, None], _RAISING,
                           _sector_labels(reps1.lift.shape[1]))
    return terms[1], terms[0]


def _sector_labels(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The source labels (k1, k2) of the terms of :func:`_sector_diagonals`,
    indexed [g, t, i, r]: the S2 term (t = 1) of row r of block i acts on
    the column k1 = r of the sector i * step_g, whose k2 is i * step_g - r,
    and the S1 term (t = 0) on the column k1 = r - step_g, whose k2 is one
    step on."""
    r = np.arange(n)
    return (r - _SHIFTS) % n, (_STEPS[:, None, None, None] * r[:, None] + _SHIFTS - r) % n


def _sector_bands(reps1: _Bands, reps2: _Bands, us) -> np.ndarray:
    """The sector-transition blocks of :func:`_sector_diagonals` as dense
    N x N matrices, shape (S, 4, N, N, N): [s, g, i] is block i of
    generator g, bit for bit the slice of the dense generator."""
    on, off = _sector_diagonals(reps1, reps2, us)
    count, n = on.shape[0], on.shape[-1]
    k = np.arange(n)
    g = np.arange(4)[:, None, None]
    bands = np.zeros((count, 4, n, n, n), complex)
    bands[:, g, k[:, None], k, (k - _STEPS[:, None, None]) % n] = off
    bands[:, g, k[:, None], k, k] = on
    return bands


def _around_the_cycle(bands: np.ndarray) -> np.ndarray:
    """The N-th power of every generator of a stack of sector bands, as the
    stack of its diagonal blocks: block c is P_c = B_{c+N-1} ... B_{c+1} B_c,
    the product of the generator's N blocks once around the cycle of
    sectors from sector c (indices mod N, N odd).

    The N products share their windows W(s, L) = B_{s+L-1} ... B_s.  The
    windows from every other start, s = 0, 2, ..., N - 3, grow left only,
    B @ W, to length N - 2, and each then gives W(s, N - 1), which misses
    block s - 1; W(0, N - 2) also gives W(N - 1, N - 1) = W(0, N - 2) @ B_{N-1},
    which misses block N - 2.  A window that misses block c gives both
    P_c = W @ B_c and P_{c+1} = B_c @ W: (N - 3)(N - 1)/2 + (N + 1)/2 + N
    block products for the N (N - 1) of the sequential chain, 23 for 42 at
    N = 7, each a band block times a window, so each entry a two-term sum.
    Each level is two or three batched products written into one of two
    buffers allocated once per pass: the powers, which also hold every
    other level of the growing windows, and the (N + 1)/2 windows of
    length N - 1, which hold the others.
    """
    n = bands.shape[2]
    half = (n - 1) // 2
    powers = np.empty_like(bands)
    windows = np.empty((*bands.shape[:2], half + 1, n, n), complex)
    # grown[:, :, j] is W(2j, length); N - 3 is even, so the last level is in powers
    grown = bands[:, :, 0:n - 1:2]
    for length in range(1, n - 2):
        out = (powers, windows)[length % 2][:, :, :half]
        # the next block of W(2j, length) is 2j + length, past the end of the cycle from j = split
        split = (n - length + 1) // 2
        np.matmul(bands[:, :, length::2], grown[:, :, :split], out=out[:, :, :split])
        np.matmul(bands[:, :, 2 * split + length - n::2][:, :, :half - split], grown[:, :, split:],
                  out=out[:, :, split:])
        grown = out
    # windows[:, :, j] is W(2j, N - 1), which misses block 2j - 1
    np.matmul(bands[:, :, n - 2], grown[:, :, 0], out=windows[:, :, 0])
    np.matmul(bands[:, :, 0:n - 3:2], grown[:, :, 1:], out=windows[:, :, 1:half])
    np.matmul(grown[:, :, 0], bands[:, :, n - 1], out=windows[:, :, half])
    np.matmul(bands[:, :, n - 1], windows[:, :, 0], out=powers[:, :, 0])
    np.matmul(bands[:, :, 1::2], windows[:, :, 1:], out=powers[:, :, 2::2])
    np.matmul(windows[:, :, 1:], bands[:, :, 1::2], out=powers[:, :, 1::2])
    return powers


@dataclasses.dataclass(frozen=True)
class TensorPowerReport:
    scalars: dict
    offscalar_residuals: dict
    closed_form_errors: dict

    @property
    def max_offscalar_residual(self) -> float:
        return _nan_max(*self.offscalar_residuals.values())


class _TensorPowers(NamedTuple):
    """The N-th powers of the four twisted generators of S samples:
    ``scalars`` and ``offscalar_residuals`` (S, 4), in the order sm_u,
    sp_u, sm_bar_u, sp_bar_u, and ``closed_form_errors`` (S, 2), of sm_u
    and sp_u."""

    scalars: np.ndarray
    offscalar_residuals: np.ndarray
    closed_form_errors: np.ndarray


def _tensor_power_reports(specs1, specs2, us, reps1: _Bands,
                          reps2: _Bands) -> _TensorPowers:
    """:func:`tensor_power_scalars` of every sample, unguarded, as arrays
    along the sample axis, from the stacks of its representations: the
    sector bands of all samples go around the cycle together
    (:func:`_around_the_cycle`, 23 block products at N = 7, each entry a
    two-term sum), and the closed forms
    (S+-)^N = (q - 1/q)^{-N} (q^x0 (q^x1 - q^x2) + q^x3 (q^x4 - q^x5))
    of (S-_u)^N and (S+_u)^N are arrays along the sample axis."""
    # the closed forms after the powers, so that their arrays do not add to the peak
    scalars, resids = _scalar_part(_around_the_cycle(_sector_bands(reps1, reps2, us)))
    n, q = specs1[0].n, specs1[0].q
    (a1, b1, l1), (a2, b2, l2), u = _params(specs1), _params(specs2), np.asarray(us, complex)
    x = np.array([(n * (u - a2 - b2 - l1) / 2, -n * b1, n * b1,
                   n * (-u + a1 + b1 - l2) / 2, -n * b2, n * b2),
                  (n * (-u - a2 - b2 + l1) / 2, n * a1, -n * a1,
                   n * (u + a1 + b1 + l2) / 2, n * a2, -n * a2)])
    p = np.exp(x * q.log_branch)
    closed = (((p[:, 1] - p[:, 2]) * p[:, 0] + (p[:, 4] - p[:, 5]) * p[:, 3])
              * (q.value - 1 / q.value) ** (-n)).T
    return _TensorPowers(scalars, resids,
                         _relative(np.abs(scalars[:, :2] - closed), np.abs(closed)))


def tensor_power_scalars(spec1: CyclicRepSpec, spec2: CyclicRepSpec, u: complex,
                         tol: float = 1e-9) -> TensorPowerReport:
    """N-th powers of all four twisted generators, with closed-form scalars.

    The unbarred powers telescope to
    (S-_u)^N = q^{N(u/2+S2)} (S1-)^N + q^{-N(u/2+S1)} (S2-)^N  (and the
    raising analogue), which yields explicit scalars in the parameters.
    Each N-th power is block-diagonal over the sectors k1 + k2 mod N, each
    block the product of the generator's N sector blocks
    (:func:`_sector_bands`) once around the cycle.  The stack of one of
    :func:`_tensor_power_reports`.  It raises :class:`ParameterDomainError`
    naming u where a scalar or closed form overflows, then at the first
    generator whose off-scalar residual is above ``tol``, in the order sm_u,
    sp_u, sm_bar_u, sp_bar_u.
    """
    _require_same_q(spec1, spec2)
    _check_finite(u=u)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        powers = _tensor_power_reports([spec1], [spec2], [u],
                                       *_halves(_rep_bands([spec1, spec2])))
    _require_finite_at(u, "the tensor powers are", powers.scalars, powers.closed_form_errors)
    report = TensorPowerReport(*(dict(zip(_GENERATORS, x[0].tolist())) for x in powers))
    for name, r in report.offscalar_residuals.items():
        if not r <= tol:
            raise NotScalar(r, f"(S^N) off-scalar residual {r:.3e} for {name}")
    return report


# ---------------------------------------------------------------------------
# eigenstate families

def _ratio_exponent(spec1, spec2, u, barred: bool):
    """The q-exponent of :func:`family_ratio`; of arrays along the sample
    axis for two :class:`_Params` and an array of u."""
    a1, b1, l1 = spec1.alpha, spec1.beta, spec1.lam
    a2, b2, l2 = spec2.alpha, spec2.beta, spec2.lam
    if barred:
        return 2 - u + (a1 + a2 - b1 - b2 + l2 - l1) / 2
    return u - 2 + (b1 + b2 - a1 - a2 + l2 - l1) / 2


def family_ratio(spec1: CyclicRepSpec, spec2: CyclicRepSpec, u: complex,
                 barred: bool = False) -> complex:
    """Geometric coefficient ratio along the support cycle of the family;
    :class:`ParameterDomainError` names u where it overflows."""
    _require_same_q(spec1, spec2)
    _check_finite(u=u)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratio = complex(spec1.q.pow(_ratio_exponent(spec1, spec2, u, barred)))
    _require_finite_at(u, "the family ratio is", ratio)
    return ratio


def family_closure_defect(spec1: CyclicRepSpec, spec2: CyclicRepSpec,
                          u: complex) -> tuple[float, float]:
    """Distance from the existence condition ratio^N = 1 (both families).

    The coefficients run along a closed N-cycle of basis labels, so a
    geometric ratio is consistent only when its N-th power is 1.
    :class:`ParameterDomainError` names u where a defect overflows.
    """
    defects = tuple(abs(family_ratio(spec1, spec2, u, barred) ** spec1.n - 1)
                    for barred in (False, True))
    _require_finite_at(u, "the closure defects are", defects)
    return defects


def _sector_index(n: int) -> np.ndarray:
    """[m, k]: the index of theta_{(m-k) mod N, k} in the x1-major basis of
    V1 x V2, the k-th basis vector of the weight sector m."""
    k = np.arange(n)
    return ((k[:, None] - k) % n) * n + k


def _family_vectors(n: int, ratios) -> np.ndarray:
    """Rows phi_0 .. phi_{N-1} of the family of each ratio, shape
    (len(ratios), N, N^2): phi_m = sum_k ratio^k theta_{(m-k) mod N, k}."""
    k = np.arange(n)
    fam = np.zeros((len(ratios), n, n * n), complex)
    powers = np.power(np.asarray(ratios, complex)[:, None], k)
    fam[:, k[:, None], _sector_index(n)] = powers[:, None]
    return fam


@dataclasses.dataclass(frozen=True)
class CyclicEigenFamily:
    phi: list[np.ndarray]
    phibar: list[np.ndarray]
    ratio: complex
    barred_ratio: complex
    shift_residuals: dict


# the four shift relations, in the order of every stack over them and of
# the checks of eigenstate_family; relation i is a law of generator i
_RELATIONS = ("lower", "raise", "lower_bar", "raise_bar")


def _prefactors(specs1, specs2, us, m: np.ndarray) -> np.ndarray:
    """:func:`shift_prefactor` of the four relations at every m, for every
    sample: shape (S, 4, *m.shape)."""
    q = specs1[0].q
    p1, p2, u = _params(specs1), _params(specs2), np.asarray(us, complex)
    x = (u - p1.lam + p2.beta - p2.alpha) / 2
    y = (u + p1.lam + p2.beta - p2.alpha) / 2
    pre = np.exp(np.stack([-1 + x, 1 - x, 1 - y, -1 + y], axis=1) * q.log_branch)
    axes = (1,) * m.ndim
    b1, b2, top = (z.reshape(-1, *axes) for z in (p1.beta, p2.beta, p1.alpha + p2.alpha + 1))
    down, up = qnum(m + 1 - b1 - b2, q), qnum(top - m, q)
    return pre.reshape(-1, 4, *axes) * np.stack([down, up, down, up], axis=1)


def shift_prefactor(relation: str, spec1: CyclicRepSpec, spec2: CyclicRepSpec,
                    u: complex, m):
    """Exact q-exponent prefactor of one of the four shift relations.

    A ``complex`` for an int m; an array of the prefactors for an array of
    m.  The stack of one of :func:`_prefactors`, so an int m gives the bits
    of its entry in an array.  :class:`ParameterDomainError` names u where
    a prefactor overflows.
    """
    if relation not in _RELATIONS:
        raise ParameterDomainError(f"unknown relation {relation!r}")
    _check_finite(u=u)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        c = _prefactors([spec1], [spec2], [u], np.atleast_1d(m))[0, _RELATIONS.index(relation)]
    _require_finite_at(u, "the prefactors are", c)
    return c if np.ndim(m) else complex(c[0])


def _shift_residuals(specs1, specs2, us) -> tuple[list, np.ndarray]:
    """The family ratios [rho, sigma] of every sample and the residuals of
    its 4N shift laws, shape (S, 4, N), in one stacked pass.

    phi_m lies in the sector m, so each law is evaluated there: block i of
    its generator, which acts on the sector m = i * step, applied to phi_m
    restricted to the sector, whose coefficient of theta_{k1, m - k1} is
    ratio^{(m - k1) mod N}, against the prefactor times phi_{m + step} on
    the next sector.  The block is applied as its two nonzero diagonals
    (:func:`_sector_diagonals`): row r of the image is
    on[r] phi_m[r] + off[r] phi_m[r - step], a two-term sum, and
    phi_m[r - step] is phi_{m + step}[r], so the pass takes 2 N^2 products
    per generator and sample and forms no N x N block.
    """
    n, q = specs1[0].n, specs1[0].q
    p1, p2, u = _params(specs1), _params(specs2), np.asarray(us, complex)
    ratios = np.exp(np.stack([_ratio_exponent(p1, p2, u, barred) for barred in (False, True)],
                             axis=1) * q.log_branch)
    on, off = _sector_diagonals(*_halves(_rep_bands(specs1 + specs2)), us)
    m = np.arange(n)
    g = np.arange(4)[:, None]
    steps = _STEPS[:, None]
    turn = m * steps % n  # [g, i]: the sector of block i, and the block of the sector i
    # [s, g, i, k1]: the family of generator g on the sector of block i and on the next one
    powers = np.power(ratios[..., None], m)[:, [0, 0, 1, 1]]
    there = powers[:, g[..., None], (turn[..., None] + steps[..., None] - m) % n]
    c = _prefactors(specs1, specs2, us, m)[:, g, turn]
    # on[r] here[r] + off[r] there[r] - c there[r], in the buffers of the diagonals; here is
    # read once, so it is not kept past its product
    here = (turn[..., None] - m) % n
    image = np.multiply(on, powers[:, g[..., None], here], out=on)
    image += np.multiply(off, there, out=off)
    image -= np.multiply(c[..., None], there, out=off)
    r = np.abs(image).max(axis=-1)
    r /= np.maximum(np.maximum(1.0, np.abs(powers).max(axis=-1, keepdims=True)), np.abs(c))
    return ratios.tolist(), r[:, g, turn]


def eigenstate_family(spec1: CyclicRepSpec, spec2: CyclicRepSpec, u: complex,
                      tol: float = 1e-9, enforce: bool = True) -> CyclicEigenFamily:
    """The N + N vectors phi_m, phibar_m and their shift-relation residuals.

    phi_m lives on {theta_{(m-k) mod N, k}} with geometric coefficients;
    the twisted lowering/raising operators shift m by one with explicit
    prefactors (see :func:`shift_prefactor`).  The residuals are the stack
    of one of :func:`_shift_residuals`.  When the closure condition
    ratio^N = 1 fails the laws break at the cycle seam; with ``enforce`` the
    first violation is raised, in the order lower, raise, lower_bar,
    raise_bar with m ascending; otherwise residuals are just reported.
    :class:`ParameterDomainError` names u where a vector or residual overflows.
    """
    _require_same_q(spec1, spec2)
    _check_finite(u=u)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratios, resids = _shift_residuals([spec1], [spec2], [u])
        rho, sig = ratios[0]
        phi, phibar = _family_vectors(spec1.n, (rho, sig))
    _require_finite_at(u, "the family vectors and their shift residuals are", resids, phi, phibar)
    for name, r in zip(_RELATIONS, resids[0]):
        if enforce and not (r <= tol).all():
            j = int(np.argmin(r <= tol))
            dm, db = family_closure_defect(spec1, spec2, u)
            raise ShiftLawViolation(
                name, j, float(r[j]),
                f"shift relation '{name}' fails at m={j} (residual {r[j]:.3e}); "
                f"closure defects |ratio^N - 1| = ({dm:.2e}, {db:.2e})")
    return CyclicEigenFamily(phi=list(phi), phibar=list(phibar), ratio=rho, barred_ratio=sig,
                             shift_residuals={(name, j): x for name, r in
                                              zip(_RELATIONS, resids[0].tolist())
                                              for j, x in enumerate(r)})


def sample_compatible_params(n: int, rng: np.random.Generator,
                             q: DeformationParameter | None = None
                             ) -> tuple[CyclicRepSpec, CyclicRepSpec, complex]:
    """Random parameters satisfying the closure conditions of both families,
    for two specs at q (by default :meth:`DeformationParameter.root_of_unity`
    of N).

    Draws alpha_1, alpha_2, beta_1, lam_1 with :func:`qcore.sample_params`,
    sets lam_2 - lam_1 to an integer and u to a half-integer, then solves
    for beta_2 so that the family ratios are N-th roots of unity (this also
    keeps the families at -u on the admissible set, which the partial R
    construction needs).
    Integer choices with coinciding barred/unbarred ratios at u or -u are
    rejected so the two families stay linearly independent.
    """
    a1, a2, b1, l1 = sample_params(rng, 4)
    for _ in range(MAX_DRAWS):
        d = int(rng.integers(-2, 3))
        u = int(rng.integers(-3, 4)) / 2
        z = int(rng.integers(-1, 2))
        # ratios are q^z and q^{d-z} at u, q^{z-2u} and q^{d-z+2u} at -u
        if (2 * z - d) % n == 0 or round(2 * z - d - 4 * u) % n == 0:
            continue
        l2 = l1 + d
        b2 = 2 * (z - u + 2 - (l2 - l1) / 2) - b1 + a1 + a2
        if q is None:
            q = DeformationParameter.root_of_unity(n)
        return (CyclicRepSpec(a1, b1, l1, n, q), CyclicRepSpec(a2, b2, l2, n, q), complex(u))
    raise SamplerExhausted(f"compatible cyclic parameters at N={n}", MAX_DRAWS)


def cyclic_R_eigenvalues(spec1: CyclicRepSpec, spec2: CyclicRepSpec, u: complex) -> np.ndarray:
    """Geometric eigenvalue family R_m = q^{m (2 - u + alpha2 - beta2 - lam1)}, with R_0 = 1.
    The stack of one of :func:`_eigenvalue_steps`; :class:`ParameterDomainError`
    names u where an R_m overflows."""
    _require_same_q(spec1, spec2)
    _check_finite(u=u)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        r_m = _eigenvalue_steps([spec1], [spec2], [u])[1][0]
    _require_finite_at(u, "the eigenvalues are", r_m)
    return r_m


def _eigenvalue_steps(specs1, specs2, us) -> tuple[np.ndarray, np.ndarray]:
    """The ratio q^{2 - u + alpha2 - beta2 - lam1} of :func:`cyclic_R_eigenvalues`
    for every sample, (S,), and its powers R_m, (S, N)."""
    p1, p2, u = _params(specs1), _params(specs2), np.asarray(us, complex)
    steps = np.exp((2 - u + p2.alpha - p2.beta - p1.lam) * specs1[0].q.log_branch)
    return steps, np.power(steps[:, None], np.arange(specs1[0].n))


@dataclasses.dataclass(frozen=True)
class PartialR:
    """The partial R of one sample: ``matrix`` on the N^2 basis of V1 x V2,
    zero outside the N weight-sector blocks, the rank of the joint family
    span, the residual of the defining action and the eigenvalues R_m."""

    matrix: np.ndarray
    span_rank: int
    max_residual: float
    eigenvalues: np.ndarray


def partial_R(spec1: CyclicRepSpec, spec2: CyclicRepSpec, u: complex) -> PartialR:
    """R on the span of the 2N family vectors, mapping phi_m(u) -> R_m phibar_m(-u)
    and phibar_m(u) -> R_m phi_m(-u).

    The family vectors are those of :func:`eigenstate_family`, built from
    the family ratios alone, with no product space.  Each pair phi_m,
    phibar_m lies in the weight sector m with the same coefficients in
    every sector, so R is block-diagonal over the sectors: block m is R_m
    times the sector-local solve of :func:`_partial_rs`, and every entry
    outside the blocks is 0.  The solve is exact on the joint span
    (pseudo-inverse of a full-column-rank pair); a residual above 1e-9 (or
    NaN) means the prescribed images contradict a linear dependence among
    the inputs.  A u so large that a power of a family ratio is not finite
    raises :class:`ParameterDomainError`.  The stack of one of :func:`_partial_rs`.
    """
    _require_same_q(spec1, spec2)
    _check_finite(u=u)
    solves = _partial_rs([spec1], [spec2], [u])
    rank, resid, r_m = solves.span_ranks[0], solves.max_residuals[0], solves.eigenvalues[0]
    if not resid <= 1e-9:
        raise InconsistentConstraints(
            resid, rank, f"defining relations conflict on the joint span (residual {resid:.3e})")
    n = spec1.n
    idx = _sector_index(n)
    matrix = np.zeros((n * n, n * n), complex)
    matrix[idx[:, :, None], idx[:, None]] = r_m[:, None, None] * solves.local[0]
    return PartialR(matrix=matrix, span_rank=rank, max_residual=resid, eigenvalues=r_m)


class _SectorSolves(NamedTuple):
    """The partial R of S samples by weight sector: ``local`` (S, N, N), the
    map M0 of each sample on the sector basis ordered by k2, which block m
    of R is R_m times; ``eigenvalues`` (S, N), the R_m; and the span rank
    and residual of each sample, two lists."""

    local: np.ndarray
    eigenvalues: np.ndarray
    span_ranks: list
    max_residuals: list


def _partial_rs(specs1, specs2, us) -> _SectorSolves:
    """:func:`partial_R` of every sample, unguarded and by sector: a
    conflicting sample keeps its residual and span rank, and no N^2 x N^2
    array is formed; a power of a family ratio that is not finite raises
    :class:`ParameterDomainError` naming the lowest such sample's u.

    In the sector m, phi_m and phibar_m at u have the coefficients rho^k
    and sigma^k of theta_{(m-k) mod N, k}, for every m, and their images
    R_m phibar_m and R_m phi_m at -u the coefficients R_m sigma'^k and
    R_m rho'^k.  So block m of R is R_m M0, where M0 = W0 V0^+ with the
    N x 2 pairs V0 = [rho^k, sigma^k] and W0 = [sigma'^k, rho'^k].  One
    batched SVD of the S pairs V0 gives each sample numpy's pseudo-inverse,
    cut off as for the dense stack of the 2N family vectors, whose singular
    values are those of V0, each N times, so the span rank is N times the
    rank of V0.  The residual is max_m |R_m (M0 V0) - R_m W0| over
    max(1, max_m |R_m W0|).  Every slice is its sample alone bit for bit.
    """
    n, q = specs1[0].n, specs1[0].q
    p1, p2, u = _params(specs1), _params(specs2), np.asarray(us, complex)
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = np.exp(np.stack([_ratio_exponent(p1, p2, x, barred) for x in (u, -u)
                                  for barred in (False, True)], axis=1) * q.log_branch)
        # [s, k, f]: ratio^k of phi(u), phibar(u), phi(-u), phibar(-u)
        powers = np.power(ratios[:, None], np.arange(n)[:, None])
    finite = np.isfinite(powers).all(axis=(1, 2))
    if not finite.all():
        raise ParameterDomainError(f"the family ratios are not finite at "
                                   f"u = {us[int(np.argmin(finite))]}: a power of q overflows")
    v, w = powers[..., :2], powers[..., [3, 2]]
    r_m = _eigenvalue_steps(specs1, specs2, us)[1]
    # one SVD gives the rank and numpy's pinv, step by step
    left, s, right = np.linalg.svd(v.conj(), full_matrices=False)
    cuts = 1e-8 * np.maximum(1.0, np.abs(v).max(axis=(1, 2)))[:, None]
    ranks = (n * np.count_nonzero(s > cuts, axis=1)).tolist()
    inv = 1 / np.where(s > 1e-15 * s.max(axis=1, keepdims=True), s, np.inf)
    local = w @ (np.swapaxes(right, 1, 2) @ (inv[:, :, None] * np.swapaxes(left, 1, 2)))
    # [s, m, k, f]: the images and targets of the family vectors in the sector m
    r = r_m[:, :, None, None]
    targets = r * w[:, None]
    gaps = np.abs(r * (local @ v)[:, None] - targets).max(axis=(1, 2, 3))
    resids = _relative(gaps, np.abs(targets).max(axis=(1, 2, 3)))
    return _SectorSolves(local, r_m, ranks, resids.tolist())
