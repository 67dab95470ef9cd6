"""The counting curve and its certified evaluation.

The central object is the dilated curve

    G(lam, z) = (1/pi) * (sqrt(lam^2 - z^2) - z*arccos(z/lam)),  0 <= z <= lam,

extended by zero for z > lam.  It is strictly decreasing and convex, starts
at lam/pi, ends at 0, and has slope bounded by 1/2 in absolute value.  The
weighted counts of shifted lattice points under this curve bound eigenvalue
counting functions of balls and the disk from the relevant sides.

The certified bracket :func:`g_bracket` gives exact rationals that provably
enclose G, for the certified-exact counts, and its lower end alone,
:func:`g_lower`, serves the certified lower counts.
:func:`weyl_leading_bounds` brackets the leading Weyl term.  The one
double-precision function here, :func:`g_value`, is kept for the acceptance
suite, which imports it from here, and for :mod:`polyacert.analysis`; no
certified function calls it.  The rest of the double-precision analysis
(moments, the Weyl term, the oracles) lives in analysis.

A lower count evaluates g_lower at many abscissas for one (lam, eps), so
:func:`prepare_g_lower` builds everything that depends on (lam, eps) alone
once and returns the per-term core as a function of z's integer parts.
g_lower itself is that core prepared for a single abscissa, so the two
give the same rationals.  :func:`prepare_g_bracket` does the same for the
two-sided bracket, which the one-shot exact floor term prepares once per
rung of its ladder of accuracies, and g_bracket is its one-shot form.
Each core takes the radicand lam^2 - z^2 to the verified square-root ends
as a reduced integer pair, and the z/lam of the arccos ends as an
unnormalised one, so no term builds a ``Fraction``.

The hull walk's floor test prepares :func:`prepare_g_floor_ends` instead:
the same pi bracket, but a root from one integer square root, which needs
no guess, window search or squaring check, and arccos ends on a power of
two around the double guess, which need no window search.  Both two-sided
brackets are one closure, :func:`_prepare_two_sided`, given the root and
the arccos ends.  The walk's bracket lies inside g_bracket's, so the
one-shot floor term on g_bracket's rationals is an independent check of
the walk.
"""
from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from .errors import BadDimensionError, DomainError, GuessFailedError
from .rational import as_rational, rational
from .verified import (
    RationalInterval,
    _arccos_dyadic_ends,
    _arccos_ends,
    _arccos_eps,
    _arccos_upper_end,
    _sqrt_ends,
    _sqrt_lower_end,
    pi_bounds,
    sqrt_bounds,  # unused here: the benchmark's tracing test reads it as a curve attribute (ROADMAP item 2)
)


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


def _g_args(lam, z, eps) -> tuple[Fraction, Fraction, Fraction]:
    lam = as_rational(lam)
    z = as_rational(z)
    eps = as_rational(eps)
    # 0 < lam and 0 <= z <= lam, decided on the integer parts
    if lam.numerator <= 0:
        raise DomainError(f"lam must be positive, got {lam}")
    if z.numerator < 0 or z.numerator * lam.denominator > lam.numerator * z.denominator:
        raise DomainError(f"z must lie in [0, lam], got z={z}, lam={lam}")
    return lam, z, eps


def _radicand(ln: int, ld: int, zn: int, zd: int) -> tuple[int, int]:
    """lam^2 - z^2 for lam = ln/ld and z = zn/zd, as the coprime pair (n, d).

    It is reduced because the square root's guess scale depends on d.  The
    arccos argument z/lam is passed on as the integers (zn*ld, zd*ln) and
    never normalised.
    """
    n, d = ln * ln * zd * zd - zn * zn * ld * ld, ld * ld * zd * zd
    g = math.gcd(n, d)
    return n // g, d // g


def g_bracket(lam, z, eps) -> RationalInterval:
    """Certified rational bracket of g_value(lam, z) for rational 0 <= z <= lam.

    The numerator sqrt(lam^2 - z^2) - z*arccos(z/lam) is bracketed by verified
    sqrt and arccos endpoints (at z = 0 it is lam exactly).  It is
    non-negative on [0, lam], so its lower end over the pi upper bound and
    its upper end over the pi lower bound bracket the height.  The lower end
    may be negative near z = lam; callers flooring it with a positive shift
    must clamp.  The pi lower bound is positive at every eps (see
    :func:`pi_bounds`), so the upper end is always defined.  The ends come
    from the same per-term core as the exact floor terms,
    :func:`prepare_g_bracket`.
    """
    lam, z, eps = _g_args(lam, z, eps)
    lo, hi = prepare_g_bracket(lam, eps)(z.numerator, z.denominator)
    return RationalInterval(rational(*lo), rational(*hi))


def prepare_g_bracket(lam: Fraction, eps: Fraction):
    """g_bracket for one (lam, eps), prepared once: a function of z's integer parts.

    The returned ``ends(zn, zd)`` gives the integer pairs ((lo_num, lo_den),
    (hi_num, hi_den)), both denominators positive and neither pair
    normalised, whose quotients are the ends of g_bracket(lam, zn/zd, eps),
    for integers zn >= 0 and zd > 0 with zn/zd <= lam.  It is
    :func:`_prepare_two_sided` with sqrt_bounds's root ends and
    :func:`verified._arccos_ends`, so each call builds only its radicand and
    the verified ends of the root and the arccos, all on integers.

    lam > 0 and eps must be Fractions; a non-positive eps raises DomainError
    here, from pi_bounds, with g_bracket's message.
    """
    return _prepare_two_sided(lam, eps, _verified_root, _arccos_ends)


def _verified_root(ln: int, ld: int, eps: Fraction):
    """root(zn, zd): the verified ends of sqrt(lam^2 - z^2), as sqrt_bounds gives them at eps."""
    en, ed = eps.numerator, eps.denominator

    def root(zn: int, zd: int) -> tuple[tuple[int, int], tuple[int, int]]:
        return _sqrt_ends(*_radicand(ln, ld, zn, zd), en, ed)

    return root


def prepare_g_floor_ends(lam: Fraction, eps: Fraction):
    """prepare_g_bracket's ends with the root and the arccos ends on a power of two.

    The returned ``ends(zn, zd)`` has the contract of prepare_g_bracket's,
    with the same pi bracket and order of errors; the root comes from one
    integer square root (:func:`_isqrt_root`) and the arccos ends from
    :func:`verified._arccos_dyadic_ends`.  Each lies inside its
    counterpart's, so the bracket lies inside g_bracket's at the same eps.
    """
    return _prepare_two_sided(lam, eps, _isqrt_root, _arccos_dyadic_ends)


def _isqrt_root(ln: int, ld: int, eps: Fraction):
    """root(zn, zd): ends of sqrt(lam^2 - z^2) from one integer square root, no guess or check.

    With n = ln^2*zd^2 - zn^2*ld^2, the root is sqrt(n)/(ld*zd), and
    r = isqrt(n * 4^k) satisfies r <= sqrt(n)*2^k < r + 1, so the root lies
    in [r, r + 1]/(ld*zd*2^k), and is r/(ld*zd*2^k) itself when
    r^2 = n*4^k.  The floor property of isqrt proves both ends: no guess
    enters and no end is checked by squaring.  The scale 2^k > 4/eps keeps
    the ends within eps/4 of the root, inside sqrt_bounds's ends (at least
    eps away unless exact).  eps > 0, as pi_bounds has checked.
    """
    ln2, ld2 = ln * ln, ld * ld
    k = (eps.denominator // eps.numerator).bit_length() + 2  # 2^k > 4/eps

    def root(zn: int, zd: int) -> tuple[tuple[int, int], tuple[int, int]]:
        scaled = (ln2 * zd * zd - zn * zn * ld2) << 2 * k
        r, rd = math.isqrt(scaled), ld * zd << k
        return (r, rd), (r if r * r == scaled else r + 1, rd)

    return root


def _prepare_two_sided(lam: Fraction, eps: Fraction, prepare_root, arccos_ends):
    """The ends(zn, zd) of prepare_g_bracket and prepare_g_floor_ends, given their root and arccos ends.

    As in :func:`prepare_g_lower`, the pi bracket, the capped arccos eps and
    lam's integer parts are built once, root = prepare_root(ln, ld, eps)
    gives the ends of sqrt(lam^2 - z^2) and arccos_ends(a, b, en, ed) those
    of arccos(a/b), as integer pairs; at z = 0 the root is lam and the angle
    0.  A pi bracket that does not verify is asked for again in each call,
    after the ends of the root and the arccos, so a call raises the error of
    the first of the three that fails, in that order.
    """
    try:
        pi = pi_bounds(eps)
    except GuessFailedError:
        pi = None
    capped = _arccos_eps(eps)
    en, ed = capped.numerator, capped.denominator
    ln, ld = lam.numerator, lam.denominator
    root = prepare_root(ln, ld, eps)

    def ends(zn: int, zd: int) -> tuple[tuple[int, int], tuple[int, int]]:
        if zn == 0:
            root_lo = root_hi = ln, ld
            angle_lo = angle_hi = 0, 1
        else:
            root_lo, root_hi = root(zn, zd)
            angle_lo, angle_hi = arccos_ends(zn * ld, zd * ln, en, ed)
        bracket = pi if pi is not None else pi_bounds(eps)
        return (
            _over_pi(*root_lo, zn, zd, *angle_hi, bracket.hi),
            _over_pi(*root_hi, zn, zd, *angle_lo, bracket.lo),
        )

    return ends


def g_lower(lam, z, eps) -> Fraction:
    """Certified rational lower bound of g_value(lam, z): exactly ``g_bracket(lam, z, eps).lo``.

    Builds only the three ends that lower end uses: the lower end of the
    root, the upper end of the arccos and the upper end of pi.  The ends of
    the upper bound are neither built nor checked, which halves the cost of
    the lower-bound counts.  Raises what g_bracket raises on the same ends;
    an end that only g_bracket uses cannot make it raise.  The value comes
    from the same per-term core as the lower counts, :func:`prepare_g_lower`.
    """
    lam, z, eps = _g_args(lam, z, eps)
    return rational(*prepare_g_lower(lam, eps)(z.numerator, z.denominator))


def prepare_g_lower(lam: Fraction, eps: Fraction):
    """g_lower for one (lam, eps), prepared once: a function of z's integer parts.

    The returned ``parts(zn, zd)`` gives integers (num, den) with den > 0 and
    num/den = g_lower(lam, zn/zd, eps) for integers zn >= 0 and zd > 0 with
    zn/zd <= lam, not normalised, so a caller that only floors it never
    builds the quotient.  Everything that depends on (lam, eps) alone is
    built here, once: lam's and eps's integer parts, the arccos eps capped
    at 1/4 (as integers) and the upper end of pi.  Each call then builds
    only its own radicand, takes z/lam as the unnormalised integers
    (zn*ld, zd*ln), and verifies the root's lower end and the arccos's
    upper end; both ends stay integer pairs throughout.

    lam > 0 and eps > 0 must be Fractions that g_lower has checked; a
    non-positive eps raises DomainError here, from pi_bounds.
    """
    pi = pi_bounds(eps).hi
    capped = _arccos_eps(eps)
    en, ed = capped.numerator, capped.denominator
    sn, sd = eps.numerator, eps.denominator
    ln, ld = lam.numerator, lam.denominator

    def parts(zn: int, zd: int) -> tuple[int, int]:
        if zn == 0:
            root, angle = (ln, ld), (0, 1)
        else:
            root = _sqrt_lower_end(*_radicand(ln, ld, zn, zd), sn, sd)
            angle = _arccos_upper_end(zn * ld, zd * ln, en, ed)
        return _over_pi(*root, zn, zd, *angle, pi)

    return parts


def _over_pi(rn: int, rd: int, zn: int, zd: int, an: int, ad: int, pi: Fraction) -> tuple[int, int]:
    """(root - z*angle) / pi for root = rn/rd, z = zn/zd, angle = an/ad and pi > 0, as integers (num, den) with den > 0.

    Built from the integer parts and not normalised: a caller normalises
    once, where three chained rational operations would reduce three
    times, or floors it without building the quotient.
    """
    num = rn * zd * ad - zn * an * rd
    return num * pi.denominator, rd * zd * ad * pi.numerator


def weyl_leading_bounds(d: int, lam, eps) -> RationalInterval:
    """Certified rational bracket of the leading term w_d * lam^d.

    For even d the coefficient is rational and the bracket degenerates to a
    point.  For odd d the coefficient is 2/((d!!)^2 * pi); the pi bracket
    appears in the denominator, so its upper end yields the lower bound.
    """
    if d < 2:
        raise BadDimensionError(f"dimension must be >= 2, got {d}")
    lam = as_rational(lam)
    eps = as_rational(eps)
    if lam < 0:
        raise DomainError(f"lam must be non-negative, got {lam}")
    if eps <= 0:
        raise DomainError("eps must be positive")
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
