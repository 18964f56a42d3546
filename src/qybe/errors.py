"""Exception types raised across the package."""


class QybeError(Exception):
    """Base class for all library errors."""


class ParameterDomainError(QybeError):
    """An input value lies outside the domain an operation supports."""


class SamplerExhausted(ParameterDomainError):
    """A rejection sampler found no admissible point within its draw limit."""

    def __init__(self, what: str, draws: int):
        self.draws = draws
        super().__init__(f"no admissible {what} in {draws} draws")


class DegenerateDenominator(QybeError):
    """q - 1/q is numerically zero; q-numbers are undefined."""


class BadSpin(QybeError):
    """Twice the spin must be a nonnegative integer."""


class DimensionMismatch(QybeError):
    """Tensor factors are incompatible (dimension or deformation parameter)."""


class CompletenessFailure(QybeError):
    """Collected eigenvectors do not span the full tensor product space.

    ``sector`` and ``family`` ("unbarred" or "barred") name the chain that
    failed and ``residual`` the number that failed it.
    """

    def __init__(self, sector: int, family: str, residual: float, message: str):
        self.sector = sector
        self.family = family
        self.residual = residual
        super().__init__(message)


class PoleAtSector(QybeError):
    """Spectral parameter sits at a pole of the R-operator."""

    def __init__(self, sector: int, message: str | None = None):
        self.sector = sector
        super().__init__(message or f"denominator vanishes at sector {sector}")


class SingularBasis(QybeError):
    """Eigenvector matrix is numerically rank-deficient.

    When one weight block of the eigenbasis is to blame, ``weight``, ``size``
    and ``cond`` are its weight, its dimension and its condition number.
    """

    def __init__(self, message: str, *, weight: float | None = None,
                 size: int | None = None, cond: float | None = None):
        self.weight = weight
        self.size = size
        self.cond = cond
        super().__init__(message)


class UnsupportedPair(QybeError):
    """No closed-form matrix is tabulated for this spin pair."""


class NotScalar(QybeError):
    """A matrix that must be a multiple of the identity is not."""

    def __init__(self, residual: float, message: str):
        self.residual = residual
        super().__init__(message)


class OrderMismatch(QybeError):
    """Cyclic tensor factors must share the same root-of-unity order."""


class ShiftLawViolation(QybeError):
    """A cyclic eigenstate shift relation fails beyond tolerance."""

    def __init__(self, relation: str, m: int, residual: float, message: str | None = None):
        self.relation = relation
        self.m = m
        self.residual = residual
        super().__init__(
            message or f"shift relation '{relation}' fails at m={m} (residual {residual:.3e})"
        )


class InconsistentConstraints(QybeError):
    """The two defining relations of the partial R conflict on the joint span
    (``residual``); ``span_rank`` is the rank of the 2N input vectors."""

    def __init__(self, residual: float, span_rank: int, message: str):
        self.residual = residual
        self.span_rank = span_rank
        super().__init__(message)

