"""Complex scalar kernel: deformation parameters, q-numbers, the residual, sampling.

All fractional powers of q go through a single fixed logarithm branch so
that expressions like q^{1/2} or q^{k-ell} are single-valued for the
lifetime of a parameter.
"""
from __future__ import annotations

import cmath
import dataclasses
import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateDenominator, ParameterDomainError, SamplerExhausted

GENERIC_GUARD_BOUND = 64
MAX_DRAWS = 1000
_ROOT_GUARD_TOL = 1e-8
# a q at least this far off the unit circle is no accidental root of unity:
# see DeformationParameter.generic
_OFF_CIRCLE = 2 * _ROOT_GUARD_TOL
_BRANCH_TOL = 1e-12
# the smallest |q - 1/q| that qnum divides by
_QNUM_DEN_TOL = 1e-10
# Python numbers take the cmath route in pow and qnum; arrays and other
# scalar types keep numpy's
_SCALARS = (int, float, complex)


@dataclasses.dataclass(frozen=True)
class ToleranceConfig:
    """Numeric policy shared by the verification suites."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    sample_count: int = 10
    rng_seed: int = 42

    def __post_init__(self):
        # the comparisons are false for NaN, so a NaN tolerance is rejected too
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ParameterDomainError(
                f"tolerances must be positive and finite (got abs_tol={self.abs_tol}, "
                f"rel_tol={self.rel_tol})")
        for name in ("sample_count", "rng_seed"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ParameterDomainError(f"{name} must be an integer (got {value!r})")
        if self.sample_count < 1:
            raise ParameterDomainError("sample_count must be at least 1")
        if self.rng_seed < 0:
            raise ParameterDomainError(f"rng_seed must be nonnegative (got {self.rng_seed})")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.rng_seed)


@dataclasses.dataclass(frozen=True)
class DeformationParameter:
    """A nonzero complex q together with a fixed log branch.

    ``order`` is None at generic q, and at a root of unity it is the odd
    N >= 3 with q^N = 1; it is the one datum that tells the two apart.
    Construct through :meth:`generic` or :meth:`root_of_unity`.
    """

    value: complex
    order: int | None = None
    log_branch: complex = 0j

    def __post_init__(self):
        if not (cmath.isfinite(self.value) and cmath.isfinite(self.log_branch)):
            raise ParameterDomainError(
                f"q and its log branch must be finite (got {self.value}, {self.log_branch})")
        if self.value == 0:
            raise ParameterDomainError("q must be nonzero")
        try:
            gap = abs(cmath.exp(self.log_branch) - self.value)
        except OverflowError:
            # e^log_branch is past the float range, so it is no finite q
            gap = math.inf
        if gap > _BRANCH_TOL * max(1.0, abs(self.value)):
            raise ParameterDomainError("log_branch is not a logarithm of q")
        n = self.order
        if n is not None:
            # N = 1 is q = 1, where q - 1/q vanishes
            if n % 2 == 0 or n < 3:
                raise ParameterDomainError(
                    f"root-of-unity order N must be odd and at least 3 (got {n})")
            if abs(self.value**n - 1) > _ROOT_GUARD_TOL:
                raise ParameterDomainError(f"q is not a root of unity of order {n}")

    @classmethod
    def generic(cls, value: complex) -> "DeformationParameter":
        value = complex(value)
        if value == 0:
            raise ParameterDomainError("q must be nonzero")
        # reject accidental roots of unity up to GENERIC_GUARD_BOUND: they
        # make q-number identities collapse to 0/0.  Off the unit circle by
        # _OFF_CIRCLE, every computed |q^n| stays off it by more than
        # _ROOT_GUARD_TOL (64 products round by at most 64 * 2^-52
        # relative), so only q near the circle has its powers checked.
        if abs(abs(value) - 1) <= _OFF_CIRCLE:
            w = value
            for n in range(1, GENERIC_GUARD_BOUND + 1):
                if abs(w - 1) < _ROOT_GUARD_TOL:
                    raise ParameterDomainError(
                        f"q is within {_ROOT_GUARD_TOL:g} of a root of unity of order {n}; "
                        "use root_of_unity or move q")
                w *= value
        return cls(value=value, log_branch=np.log(value))

    @classmethod
    def root_of_unity(cls, n: int) -> "DeformationParameter":
        """The primitive root q = exp(2 pi i / N); N is checked on construction,
        and :class:`ParameterDomainError` is raised for an N too large for a float."""
        # N = 0 would divide by zero before the check could reject it
        try:
            lb = 2j * np.pi / n if n else 0j
        except OverflowError:
            raise ParameterDomainError(f"root-of-unity order N is too large (got {n})") from None
        return cls(value=complex(np.exp(lb)), order=int(n), log_branch=lb)

    def pow(self, z):
        """q^z computed through the fixed branch; accepts scalars or arrays.

        A Python number goes through ``cmath.exp``, which gives the same
        bits as ``np.exp`` on finite input at a fraction of its dispatch
        cost; the result keeps numpy's scalar type.
        """
        if isinstance(z, _SCALARS):
            w = z * self.log_branch
            if cmath.isfinite(w):
                try:
                    return np.complex128(cmath.exp(w))
                except OverflowError:
                    pass  # np.exp returns inf with a warning instead
            return np.exp(w)
        return np.exp(np.asarray(z) * self.log_branch) if np.ndim(z) else np.exp(z * self.log_branch)

    def with_branch_shift(self, k: int = 1) -> "DeformationParameter":
        """Same q, log branch moved by 2 pi i k (for single-valuedness tests)."""
        return dataclasses.replace(self, log_branch=self.log_branch + 2j * np.pi * k)


# q = 1 on the zero log branch, where every power of q is exactly 1: the
# rational (xxx) mode is this point of the one q-deformed family.  It is
# built directly because generic() rejects q = 1, and its order is None,
# so the cyclic layer and phi_product refuse it.
RATIONAL = DeformationParameter(value=1 + 0j, log_branch=0j)


def qnum(n, q: DeformationParameter):
    """The q-number [n] = (q^n - q^{-n}) / (q - 1/q); n may be an array.

    On the zero log branch (:data:`RATIONAL`) it is its limit n itself.
    Where a power of q overflows it returns inf or NaN with numpy's warning,
    unchecked: ``verify._pole_gaps`` reads those gaps as no pole.
    """
    if not isinstance(n, _SCALARS) and np.ndim(n):
        n = np.asarray(n)
    if q.log_branch == 0:
        return n
    den = q.value - 1 / q.value
    if abs(den) < _QNUM_DEN_TOL:
        raise DegenerateDenominator("q - 1/q below tolerance; use the rational (undeformed) mode")
    return (q.pow(n) - q.pow(-n)) / den


@dataclasses.dataclass(frozen=True, eq=False)
class _QStack:
    """The S values of q of a stack of samples, with what the stacked
    kernels read of them, derived once per stack by :meth:`of`:
    ``log_branch`` (log q on each q's fixed branch) and ``den`` (q - 1/q),
    two read-only (S,) arrays; ``rational``, that every q is on the zero
    log branch (:data:`RATIONAL`); and ``degenerate``, that some q - 1/q is
    below the tolerance of :func:`qnum`.  It is the sequence of its
    :class:`DeformationParameter` values, and, as a tuple, ``stack * k``
    repeats them k times."""

    params: tuple
    log_branch: np.ndarray
    den: np.ndarray
    rational: bool
    degenerate: bool

    @classmethod
    def of(cls, qs) -> "_QStack":
        """The stack of the q values ``qs``; :class:`ParameterDomainError`
        where one is missing (None)."""
        qs = tuple(qs)
        if any(q is None for q in qs):
            raise ParameterDomainError(
                "a stacked kernel needs a deformation parameter at every sample "
                "(RATIONAL for the rational point)")
        dens = [q.value - 1 / q.value for q in qs]
        return cls(qs, np.array([q.log_branch for q in qs], complex), np.array(dens, complex),
                   all(q.log_branch == 0 for q in qs),
                   any(abs(den) < _QNUM_DEN_TOL for den in dens))

    def __post_init__(self):
        self.log_branch.setflags(write=False)
        self.den.setflags(write=False)

    def __len__(self) -> int:
        return len(self.params)

    def __getitem__(self, i):
        return self.params[i]

    def __iter__(self):
        return iter(self.params)

    def __mul__(self, k: int) -> "_QStack":
        return dataclasses.replace(self, params=self.params * k,
                                   log_branch=np.tile(self.log_branch, k), den=np.tile(self.den, k))


def _qnums(n, qs: _QStack) -> np.ndarray:
    """The q-number [n] at every q of the stack ``qs``: ``n`` holds the
    sample axis first, of length len(qs) or 1, and log q is broadcast
    along it, (exp(n log q) - exp(-n log q)) / (q - 1/q).  A stack at
    :data:`RATIONAL` gives n itself, as complex; a stack with a q - 1/q
    below tolerance raises :class:`DegenerateDenominator`."""
    n = np.asarray(n)
    if qs.rational:
        return np.broadcast_to(n, (len(qs), *n.shape[1:])).astype(complex)
    if qs.degenerate:
        raise DegenerateDenominator("q - 1/q below tolerance; use the rational (undeformed) mode")
    shape = (len(qs), *(1,) * (n.ndim - 1))
    x = n * qs.log_branch.reshape(shape)
    return (np.exp(x) - np.exp(-x)) / qs.den.reshape(shape)


def _check_finite(**values) -> None:
    """:class:`ParameterDomainError` naming the first of ``values`` that is
    not finite, so that no NaN or inf reaches a kernel."""
    for name, value in values.items():
        if not cmath.isfinite(value):
            raise ParameterDomainError(f"{name} must be finite (got {name}={value})")


def _require_finite(what, *values, us=None) -> None:
    """The one overflow check: where an entry of ``values`` is not finite, a
    :class:`ParameterDomainError` "<what> u = <u>: a power of q overflows",
    u being that of the lowest failing row when ``us`` holds the u of each
    leading row of the values, else "<what>: a power of q overflows".
    With ``us``, ``what`` may instead be a function of the lowest failing
    row that gives the words before the colon, for words that cost more to
    form than the check (:meth:`cyclic._Pairs.require_finite`).  Public
    functions run their kernels with numpy's warnings off and check here,
    as the partial-R suite's kernel does; the other suites' stacked kernels
    and :func:`qnum` do not."""
    if not all(np.isfinite(value).all() for value in values):
        if us is not None:
            ok = np.all([np.isfinite(np.reshape(v, (len(us), -1))).all(axis=1) for v in values], 0)
            row = int(np.argmin(ok))
            what = what(row) if callable(what) else f"{what} u = {complex(us[row])}"
        raise ParameterDomainError(f"{what}: a power of q overflows")


def residual(lhs, rhs, *inputs) -> float:
    """Infinity-norm difference normalized by the largest input entry, or by
    1 when that is smaller.  Operands are arrays or scalars; a NaN in
    lhs - rhs gives NaN."""
    scale = max([1.0] + [np.abs(m).max() for m in inputs])
    return float(np.abs(lhs - rhs).max() / scale)


def _relative(gaps: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """:func:`residual` of stacked abs-maxima, entry by entry: each gap over
    its scale, or over 1 where that is smaller; a NaN gives NaN."""
    return gaps / np.maximum(1.0, scales)


def _nan_max(*values: float) -> float:
    """max() that keeps a NaN: the builtin returns 0.0 for max(0.0, nan)."""
    for v in values:
        if math.isnan(v):
            return v
    return max(values)


class PhiProduct(NamedTuple):
    product: complex
    closed_form: complex
    residual: float


def phi_product(alpha: complex, q: DeformationParameter) -> PhiProduct:
    """Product of the N consecutive q-numbers [alpha], [alpha+1], ..., [alpha+N-1].

    Only defined at a root of unity, where it collapses to
    (q - 1/q)^{-N} (q^{alpha N} - q^{-alpha N}); both routes are returned
    together with their normalized disagreement, or :class:`ParameterDomainError` on overflow.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        phi = _phi_products([alpha], q)[0]
    _require_finite("the phi product is not finite", phi.product, phi.closed_form)
    return phi


def _phi_products(alphas, q: DeformationParameter) -> list[PhiProduct]:
    """:func:`phi_product` of every alpha of ``alphas`` at one q, both
    routes as arrays along the sample axis."""
    n = q.order
    if n is None:
        raise ParameterDomainError("phi_product requires a root of unity (q.order is None)")
    alphas = np.array(alphas, complex)
    prods = np.prod(qnum(alphas[:, None] + np.arange(n), q), axis=-1)
    x = alphas * n * q.log_branch
    closed = (np.exp(x) - np.exp(-x)) * (q.value - 1 / q.value) ** (-n)
    resids = _relative(np.abs(prods - closed), np.abs(closed))
    return [PhiProduct(*entry) for entry in zip(prods.tolist(), closed.tolist(), resids.tolist())]


# ---------------------------------------------------------------------------
# seeded sampling of test points

def sample_generic_q(rng: np.random.Generator, on_circle: bool = False
                     ) -> DeformationParameter:
    """Draw a generic q away from roots of unity and from q = +-1.

    log q gets imaginary part in (0.15, pi - 0.15) with a random sign, and
    real part in [-0.25, 0.25] (zero when on_circle).  Each draw takes its
    parts in one ``rng.random`` call, scaled as ``rng.uniform`` scales them,
    low + (high - low) x, so the stream is bit for bit that of one
    ``uniform`` call per part.
    """
    low, high = 0.15, np.pi - 0.15
    for _ in range(MAX_DRAWS):
        if on_circle:
            re, x = 0.0, rng.random()
        else:
            re, x = rng.random(2).tolist()
            re = -0.25 + 0.5 * re
        # integers(0, 2) draws the sign from the stream that choice([-1, 1]) reads
        im = (low + (high - low) * x) * (1.0 if rng.integers(0, 2) else -1.0)
        try:
            return DeformationParameter.generic(cmath.exp(complex(re, im)))
        except ParameterDomainError:
            continue
    raise SamplerExhausted("generic q", MAX_DRAWS)


def sample_u(rng: np.random.Generator, scale: float = 1.2) -> complex:
    """A complex spectral parameter in a centred box, both parts from one
    ``rng.uniform`` call."""
    return complex(*rng.uniform(-scale, scale, 2).tolist())


def sample_params(rng: np.random.Generator, count: int = 1) -> list[complex]:
    """Moderate complex parameter draws, each part normal with deviation 0.5
    (keeps root-of-unity powers well scaled), all from one ``rng.normal``
    call, real and imaginary part of each draw in turn."""
    parts = rng.normal(0, 0.5, 2 * count).tolist()
    return [complex(re, im) for re, im in zip(parts[0::2], parts[1::2])]
