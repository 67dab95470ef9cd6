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
two-sided bracket plus a shift, which the one-shot exact floor term
prepares once per rung of its ladder of accuracies, and g_bracket is its
one-shot form at shift 0.  Each core takes the radicand lam^2 - z^2 to
the verified square-root ends as a reduced integer pair, and the z/lam of
the arccos ends as an unnormalised one, so no term builds a ``Fraction``.

Every exact floor prepares its brackets in one shape,
``prepare(lam, shift, eps) -> ends(zn, zd)``: the integer pairs of a
bracket of G + shift, with pi taken once, at preparation, so a pi bracket
that does not verify makes the preparation raise.  The hull walk's floor
test prepares :func:`prepare_g_floor_ends`: the same pi bracket, but on
one scale 2^k > 8/eps per accuracy, a root from one integer square root,
which needs no guess, window search or squaring check, and arccos ends on
2^k built by shifts from the double guess, which need no window search,
are checked on Taylor tables prescaled by 2^k and come back as bare
numerators, or None, and then the walk takes the reference bracket,
prepare_g_bracket's at the same accuracy.  Root and arccos ends on 2^k
share the denominator ld*zd*2^k, and pi's and the shift's integer parts
are folded into three integers once per accuracy, so each end of
G + shift is one subtraction, two products and a sum over one
denominator, which the walk floors by integer division.  With the
bracket comes its steepness bound, the arccos's upper end over pi's lower
end, which bounds -dG/dz = arccos(z/lam)/pi from above (None on the
reference bracket): the walk's tangent lemma and stop rule read it.  The
walk's bracket lies inside g_bracket's plus the shift, so the one-shot
floor term on g_bracket's rationals is an independent check of the walk.
"""
from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from .errors import BadDimensionError, DomainError
from .rational import ZERO, as_rational, rational
from .verified import (
    RationalInterval,
    _arccos_ends,
    _arccos_eps,
    _arccos_upper_end,
    _sqrt_ends,
    _sqrt_lower_end,
    pi_bounds,
    prepare_arccos_dyadic,
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
    :func:`prepare_g_bracket`, with shift 0.
    """
    lam, z, eps = _g_args(lam, z, eps)
    lo, hi = prepare_g_bracket(lam, ZERO, eps)(z.numerator, z.denominator)
    return RationalInterval(rational(*lo), rational(*hi))


def prepare_g_bracket(lam: Fraction, shift: Fraction, eps: Fraction):
    """g_bracket plus a shift for one (lam, shift, eps), prepared once: a function of z's integer parts.

    The returned ``ends(zn, zd)`` gives the integer pairs ((lo_num, lo_den),
    (hi_num, hi_den)), both denominators positive and neither pair
    normalised, whose quotients are the ends of
    g_bracket(lam, zn/zd, eps) + shift, for integers zn >= 0 and zd > 0
    with zn/zd <= lam; at shift 0 they are g_bracket's own pairs.  As in
    :func:`prepare_g_lower`, the pi bracket, the capped arccos eps and
    lam's and the shift's integer parts are built once; each call builds
    only its radicand and the verified ends of the root
    (:func:`verified._sqrt_ends`) and of the arccos
    (:func:`verified._arccos_ends`), all on integers.  At z = 0 the root
    is lam and the angle 0.

    lam > 0, shift and eps must be Fractions; a pi bracket that does not
    verify raises GuessFailedError here, and a non-positive eps
    DomainError, both from pi_bounds, before anything else is built.
    """
    pi, (en, ed), (ln, ld) = pi_bounds(eps), _arccos_eps(eps).as_integer_ratio(), lam.as_integer_ratio()
    (sn, sd), (shn, shd) = eps.as_integer_ratio(), shift.as_integer_ratio()

    def ends(zn: int, zd: int) -> tuple[tuple[int, int], tuple[int, int]]:
        if zn == 0:
            root_lo = root_hi = ln, ld
            angle_lo = angle_hi = 0, 1
        else:
            root_lo, root_hi = _sqrt_ends(*_radicand(ln, ld, zn, zd), sn, sd)
            angle_lo, angle_hi = _arccos_ends(zn * ld, zd * ln, en, ed)
        lo_n, lo_d = _over_pi(*root_lo, zn, zd, *angle_hi, pi.hi)
        hi_n, hi_d = _over_pi(*root_hi, zn, zd, *angle_lo, pi.lo)
        return (lo_n * shd + shn * lo_d, lo_d * shd), (hi_n * shd + shn * hi_d, hi_d * shd)

    return ends


def prepare_g_floor_ends(lam: Fraction, shift: Fraction, eps: Fraction):
    """The bracket of G + shift with the root and the arccos ends on a power of two: the hull walk's bracket.

    The returned ``ends(zn, zd)`` gives the integer pairs ((lo_num,
    lo_den), (hi_num, hi_den)), not normalised, of a bracket of
    G(lam, zn/zd) + shift, for integers zn >= 0 and zd > 0 with
    zn/zd <= lam, with prepare_g_bracket's pi bracket, taken here, and
    then the curve's steepness bound there: an integer pair (n, d) with
    n/d >= arccos(zn/(zd*lam))/pi = -dG/dz, or None.
    With 2^k > 8/eps for the capped arccos eps, n = ln^2*zd^2 - zn^2*ld^2
    and D = ld*zd*2^k, the root sqrt(n)/(ld*zd) lies in [r, r + 1]/D for
    r = isqrt(n * 4^k), and is r/D itself when r^2 = n*4^k: the floor
    property of isqrt proves both ends, with no guess and no squaring
    check, within eps/8 of the root and so inside sqrt_bounds's ends (at
    least eps away unless exact).  The arccos ends, and the scale 2^k
    itself, come from :func:`verified.prepare_arccos_dyadic`, prepared
    once.  When they come back, as numerators A over 2^k (0 at z = 0),
    each end of G + shift is (r - x*A)*P + D*Q over D*R for x = zn*ld,
    with pi's and the shift's integer parts folded in once: for the lower
    end A_hi, P = pi_hi_den*shift_den, Q = pi_hi_num*shift_num and
    R = pi_hi_num*shift_den, and the upper end alike; the steepness bound
    is A_hi*pi_lo_den over pi_lo_num*2^k, and exactly 1/2 at z = 0.  Where
    they come back None, the ends are those of
    prepare_g_bracket(lam, shift, eps), the reference bracket, prepared
    here too, and the steepness bound is None.  Each end of G lies inside
    its counterpart's in prepare_g_bracket, so the bracket lies inside
    g_bracket's plus the shift at the same eps.
    """
    pi, (en, ed), (ln, ld) = pi_bounds(eps), _arccos_eps(eps).as_integer_ratio(), lam.as_integer_ratio()
    (k, arccos), ln2, ld2, (sn, sd) = prepare_arccos_dyadic(en, ed), ln * ln, ld * ld, shift.as_integer_ratio()
    (pl_n, pl_d), (ph_n, ph_d) = pi.lo.as_integer_ratio(), pi.hi.as_integer_ratio()
    lo_p, lo_q, lo_r = ph_d * sd, ph_n * sn, ph_n * sd  # the lower end takes pi's upper end
    hi_p, hi_q, hi_r = pl_d * sd, pl_n * sn, pl_n * sd
    reference, steep_den = prepare_g_bracket(lam, shift, eps), pl_n << k

    def ends(zn: int, zd: int):
        x = zn * ld
        if x:
            angle = arccos(x, zd * ln)
            if angle is None:
                return (*reference(zn, zd), None)
            a_lo, a_hi = angle
            steep = a_hi * pl_d, steep_den
        else:
            a_lo = a_hi = 0
            steep = 1, 2  # arccos(0)/pi
        scaled, den = (ln2 * zd * zd - zn * zn * ld2) << 2 * k, ld * zd << k
        r = math.isqrt(scaled)
        r_hi = r if r * r == scaled else r + 1
        lo, hi = ((r - x * a_hi) * lo_p + den * lo_q, den * lo_r), ((r_hi - x * a_lo) * hi_p + den * hi_q, den * hi_r)
        return lo, hi, steep

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
