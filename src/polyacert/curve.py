"""The counting curve and the analytic quantities derived from it.

The central object is the dilated curve

    G(lam, z) = (1/pi) * (sqrt(lam^2 - z^2) - z*arccos(z/lam)),  0 <= z <= lam,

extended by zero for z > lam.  It is strictly decreasing and convex, starts
at lam/pi, ends at 0, and has slope bounded by 1/2 in absolute value.  The
weighted counts of shifted lattice points under this curve bound eigenvalue
counting functions of balls and the disk from the relevant sides.

Two evaluation regimes coexist:

* exploratory double-precision functions (:func:`g_value`, :func:`g_moment`,
  :func:`g_inverse_quarter`, ...) used for oracles, plots, and desk checks;
* the certified bracket :func:`g_bracket`, exact rationals that provably
  enclose the true value, used by every certified count (:func:`g_lower` is
  its lower end).
"""
from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from .errors import BadDimensionError, DomainError
from .rational import ZERO, as_rational, rational
from .verified import RationalInterval, arccos_bounds, pi_bounds, sqrt_bounds


class BoundKind(Enum):
    """Boundary condition selector with its lattice-count vertical shift."""

    DIRICHLET = "D"
    NEUMANN = "N"

    @property
    def shift(self) -> Fraction:
        """Exact vertical shift: 1/4 for Dirichlet, 3/4 for Neumann."""
        return rational(1, 4) if self is BoundKind.DIRICHLET else rational(3, 4)

    @classmethod
    def from_letter(cls, letter: str) -> "BoundKind":
        try:
            return cls(letter.upper())
        except ValueError:
            raise DomainError(f"boundary kind must be 'D' or 'N', got {letter!r}") from None


def g_value(lam: float, z: float) -> float:
    """Height of the curve at abscissa z (double precision, zero-extended).

    The true height is non-negative; cancellation just below z = lam can push
    the naive expression a few 1e-10 below zero, so the result is clamped.
    """
    if lam <= 0:
        raise DomainError(f"lam must be positive, got {lam}")
    if z < 0:
        raise DomainError(f"z must be non-negative, got {z}")
    if z >= lam:
        return 0.0
    return max(0.0, (math.sqrt(lam * lam - z * z) - z * math.acos(z / lam)) / math.pi)


def g_bracket(lam, z, eps) -> RationalInterval:
    """Certified rational bracket of g_value(lam, z) for rational 0 <= z <= lam.

    The numerator sqrt(lam^2 - z^2) - z*arccos(z/lam) is bracketed by verified
    sqrt and arccos endpoints (at z = 0 it is lam exactly).  It is
    non-negative on [0, lam], so its lower end over the pi upper bound and
    its upper end over the pi lower bound bracket the height.  The lower end
    may be negative near z = lam; callers flooring it with a positive shift
    must clamp.  The pi lower bound is positive at every eps (see
    :func:`pi_bounds`), so the upper end is always defined.
    """
    lam = as_rational(lam)
    z = as_rational(z)
    eps = as_rational(eps)
    if lam <= 0:
        raise DomainError(f"lam must be positive, got {lam}")
    if z < 0 or z > lam:
        raise DomainError(f"z must lie in [0, lam], got z={z}, lam={lam}")
    if z == 0:
        root, angle = RationalInterval(lam, lam), RationalInterval(ZERO, ZERO)
    else:
        root = sqrt_bounds(lam * lam - z * z, eps)
        angle = arccos_bounds(z / lam, eps)
    pi = pi_bounds(eps)
    lo = _over_pi(root.lo, z, angle.hi, pi.hi)
    hi = _over_pi(root.hi, z, angle.lo, pi.lo)
    return RationalInterval(lo, hi)


def _over_pi(root: Fraction, z: Fraction, angle: Fraction, pi: Fraction) -> Fraction:
    """(root - z*angle) / pi for pi > 0, built from the integer parts.

    The result is normalised once; three chained rational operations would
    reduce three times, a cost the lower-bound counts would pay on the upper
    end they discard.
    """
    root_d, z_d, angle_d = root.denominator, z.denominator, angle.denominator
    num = root.numerator * z_d * angle_d - z.numerator * angle.numerator * root_d
    return rational(num * pi.denominator, root_d * z_d * angle_d * pi.numerator)


def g_lower(lam, z, eps) -> Fraction:
    """Certified rational lower bound of g_value(lam, z): the lower end of :func:`g_bracket`."""
    return g_bracket(lam, z, eps).lo


def g_moment(lam: float, beta: float) -> float:
    """Closed form of the weighted area integral of z^beta times the curve height.

    Equals Gamma((beta+1)/2) * lam^(beta+2) / (4*sqrt(pi)*(beta+2)*Gamma((beta+4)/2));
    for beta = 0 this is lam^2/8, the plain area under the curve.
    """
    if lam <= 0:
        raise DomainError(f"lam must be positive, got {lam}")
    if beta < 0:
        raise DomainError(f"beta must be non-negative, got {beta}")
    if beta == 0:
        return lam * lam / 8  # the gamma factors cancel exactly
    return (
        math.gamma((beta + 1) / 2)
        * lam ** (beta + 2)
        / (4 * math.sqrt(math.pi) * (beta + 2) * math.gamma((beta + 4) / 2))
    )


def weyl_leading(d: int, lam: float) -> float:
    """Leading eigenvalue-count asymptotics for the unit ball: w_d * lam^d."""
    if d < 2:
        raise BadDimensionError(f"dimension must be >= 2, got {d}")
    if lam < 0:
        raise DomainError(f"lam must be non-negative, got {lam}")
    w = 1 / (2**d * math.gamma(d / 2 + 1) ** 2)
    return w * lam**d


def weyl_leading_bounds(d: int, lam, eps) -> RationalInterval:
    """Certified rational bracket of the leading term w_d * lam^d.

    For even d the coefficient is rational and the bracket degenerates to a
    point.  For odd d the coefficient is 2/((d!!)^2 * pi); the pi bracket
    appears in the denominator, so its upper end yields the lower bound.
    """
    if d < 2:
        raise BadDimensionError(f"dimension must be >= 2, got {d}")
    lam = as_rational(lam)
    if lam < 0:
        raise DomainError(f"lam must be non-negative, got {lam}")
    power = lam**d
    if d % 2 == 0:
        half = d // 2
        w = rational(1, 4**half * math.factorial(half) ** 2)
        exact = w * power
        return RationalInterval(exact, exact)
    odd_sq = math.prod(range(1, d + 1, 2)) ** 2
    pi = pi_bounds(eps)
    coeff = rational(2, odd_sq) * power
    return RationalInterval(coeff / pi.hi, coeff / pi.lo)


def g_inverse_quarter(lam: float) -> float:
    """The unique z with g_value(lam, z) = 1/4, by bisection.

    Defined for lam >= pi/4 (so the curve starts at or above 1/4).  The curve
    is strictly decreasing, hence bisection on [0, lam] converges
    unconditionally; 100 iterations push the relative error below 1e-12.
    """
    if lam < math.pi / 4:
        raise DomainError(f"g_inverse_quarter needs lam >= pi/4, got {lam}")
    lo, hi = 0.0, float(lam)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if g_value(lam, mid) >= 0.25:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, lam):
            break
    return 0.5 * (lo + hi)


def r1(sigma: float) -> float:
    """Smallest lam at which the quarter-level abscissa is >= lam*cos(sigma).

    Equals pi / (4*(sin(sigma) - sigma*cos(sigma))) for sigma in (0, pi/2].
    """
    if not 0 < sigma <= math.pi / 2 + 1e-15:
        raise DomainError(f"sigma must lie in (0, pi/2], got {sigma}")
    return math.pi / (4 * (math.sin(sigma) - sigma * math.cos(sigma)))


def a_value(kind: BoundKind, nu: float, lam: float) -> float:
    """Envelope for the number of Bessel (derivative) zeros below lam.

    Equals the curve height at nu plus the kind's shift when lam >= nu, and
    just the shift otherwise.
    """
    if nu < 0 or lam < 0:
        raise DomainError(f"nu and lam must be non-negative, got nu={nu}, lam={lam}")
    shift = float(kind.shift)
    if lam < nu:
        return shift
    return g_value(lam, nu) + shift if lam > 0 else shift


def r2_margin(lam: float) -> float:
    """Margin 3*g_inverse_quarter(lam) - lam*(1 + 4/pi) - 3 for lam >= 2.

    Non-negativity of this margin makes the analytic route to the Neumann
    inequality applicable at lam.
    """
    if lam < 2:
        raise DomainError(f"r2_margin needs lam >= 2, got {lam}")
    return 3 * g_inverse_quarter(lam) - lam * (1 + 4 / math.pi) - 3
