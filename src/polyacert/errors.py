"""Exception types shared across the package.

Every certified code path fails loudly rather than degrade silently: a
bracket that cannot be verified, a floor that cannot be separated from an
integer boundary, or a certification step with a non-positive margin each
raise a dedicated exception carrying the offending data.
"""
from __future__ import annotations


class PolyacertError(Exception):
    """Base class for all package-specific errors."""


class NegativeInputError(PolyacertError, ValueError):
    """Square-root bracket requested for a negative radicand."""


class DomainError(PolyacertError, ValueError):
    """Argument outside the documented domain of an operation."""


class BadDimensionError(DomainError):
    """Dimension argument below the supported minimum."""


class GuessFailedError(PolyacertError):
    """A bracket built from a numeric guess failed to verify.

    Verification never trusts the numeric guess, so this only signals that
    the guess was off by more than the accuracy parameter.
    """


class UnresolvedFloorError(PolyacertError):
    """A floor term could not be separated from an integer boundary.

    Attributes:
        abscissa: where on the curve the term was evaluated
        interval: the tightest rational bracket that verified, or None if none did
    """

    def __init__(self, abscissa, interval):
        self.abscissa = abscissa
        self.interval = interval
        found = "no bracket verified" if interval is None else f"bracket {interval} straddles an integer"
        super().__init__(f"floor unresolved at abscissa {abscissa}: {found} after all refinements")


class IrrationalApertureError(PolyacertError, ValueError):
    """Certified sector counting needs the aperture as an exact rational multiple of pi."""


class ScanAmbiguousError(PolyacertError):
    """Two sign changes landed in one scan cell even after step halving."""


class AccuracyLossError(PolyacertError):
    """A floating-point special-function evaluation is not trustworthy."""


class EpsTooCoarseError(PolyacertError, ValueError):
    """Accuracy parameter too coarse for the requested construction."""


class StepFailedError(PolyacertError):
    """Certification step produced a non-positive margin.

    Attributes:
        lam: spectral parameter of the failing step
        e_lower: the non-positive certified margin
        partial: the certificate accumulated before the failure
    """

    def __init__(self, lam, e_lower, partial=None):
        self.lam = lam
        self.e_lower = e_lower
        self.partial = partial
        super().__init__(f"certification failed at lambda={lam}: margin {e_lower} <= 0")


class StallError(PolyacertError):
    """Certification stopped advancing before the target.

    Either a step size stayed non-positive after all eps retries, or the
    next step would take the certificate's counts past their work bound.

    Attributes:
        lam: spectral parameter of the step where it stopped
        eps: the last eps tried there
        partial: the certificate accumulated before the stall
    """

    def __init__(self, lam, eps, partial=None, reason: str = "step size stayed non-positive"):
        self.lam = lam
        self.eps = eps
        self.partial = partial
        super().__init__(f"{reason} at lambda={lam} (last eps {eps})")
