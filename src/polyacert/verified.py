"""Verified rational brackets for sqrt, cos, arccos, and pi.

Every function here returns a :class:`RationalInterval`, or one end of
one, whose correctness is established purely by exact rational
comparisons:

* square roots are verified by squaring both endpoints;
* cosine is sandwiched between its Taylor polynomials of degree 14 (below)
  and 12 (above), evaluated exactly;
* arccos brackets are verified through the cosine sandwich, using that cos
  is strictly decreasing: ``T12(hi) < x`` forces ``hi > arccos(x)`` and
  ``x < T14(lo)`` forces ``lo < arccos(x)``;
* pi is three times the arccos bracket of 1/2.

One integer kernel, :func:`_cos_taylor`, gives ``n! * q^n * T_n(p/q)`` over
``n! * q^n`` by a homogeneous Horner evaluation in ``p^2`` and ``q^2``.
:func:`cos_bounds` divides the two; the arccos check decides
``T12(hi) < x = a/b`` as ``num * b < a * den``, and the squaring checks
cross-multiply the same way.  The degree-12/14 sandwich is about 6e-9 wide
near pi/2, too coarse to verify brackets much below eps = 1e-9 there, so an
endpoint it cannot verify is checked again against the degree-28/30 pair,
which is rigorous on the same range and about 3e-27 wide there.  Arccos and
pi brackets thus verify down to about eps = 1e-15, where the
double-precision arccos guess runs out of accuracy.

Bracket endpoints are picked as the smallest-denominator rationals in
``[guess - 3*eps, guess - eps]`` and ``[guess + eps, guess + 3*eps]`` around a
numeric guess, so certified values stay small and fast to compute.  The guess
is only a hint, and correctness never depends on it.  The hull walk only
floors its brackets, so it takes its arccos ends on a power of two
2^j > 8/eps instead (:func:`prepare_arccos_dyadic`), built from the
guess's power-of-two denominator by shifts, between 3*eps/4 and eps from
the guess and so inside the windows' bracket, with no search and no
division, and checks them on Taylor coefficients prescaled by 2^j once
per process (:func:`_taylor_tables`), one multiply-add a Horner step.
They come back as bare numerators over 2^j, or as None where they do not
verify, and the caller then takes the reference bracket, on the windows'.

Guesses, windows and checks work on integers, and ``Fraction``s are built
only at the edge.  :func:`_window_below` and :func:`_window_above` take the
integer parts of guess and eps and return the coprime pair of their
candidate; :func:`_square_below` and :func:`_square_above` check the ends
of a square root of n/d, and :func:`_arccos_below` and :func:`_arccos_above`
those of an arccos of a/b, all on integers.  Each bracket has one integer
implementation, with a variant for callers that use one end only:
:func:`_sqrt_ends` and :func:`_sqrt_lower_end` take the reduced radicand
n/d and eps, :func:`_arccos_ends` and :func:`_arccos_upper_end` take
x = a/b, not normalised, and the capped eps.  All four return integer
pairs, and the prepared dyadic ends integers over 2^j, so the curve's
per-term cores build no ``Fraction`` at all; the public brackets
(:func:`sqrt_bounds`, :func:`sqrt_lower`, :func:`arccos_bounds` and
through it :func:`pi_bounds`) check their arguments and build their
``Fraction`` ends from those pairs.

Square-root guesses come from one integer square root (:func:`_root_guess`)
and lie within eps/2^20 below the root, so the first bracket always
verifies; an exact root is taken as both ends.  Arccos guesses come from
one function, :func:`_arccos_guess`: the C library's double ``acos`` of
``a / b``, whose integer true division is correctly rounded, so that is
the double nearest x whatever the common factor of a and b.  There is one
attempt per bracket, and one fallback from the dyadic ends to the windows
farther out: the Taylor polynomials decrease on [0, 5/2], so an end
nearer the guess cannot verify where one farther out failed.
Their eps is capped at 1/4, which keeps every window inside [0, 5/2] and
the lower window of arccos(1/2), hence every pi lower end, above 0.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .errors import DomainError, GuessFailedError, NegativeInputError
from .rational import _simplest_positive, as_rational, rational

DEFAULT_EPS = rational(1, 1000)

_ARCCOS_EPS_MAX = rational(1, 4)  # see the module note

# Taylor degrees of cos whose last term is positive (the polynomial lies above
# cos) and negative (below cos), coarse one first.  The terms x^(2k)/(2k)!
# decrease from k = 7 on for x <= 4, so every pair brackets cos on [0, 4].
_ABOVE_COS = (12, 28)
_BELOW_COS = (14, 30)

# (-1)^k * n!/(2k)! for k = n/2 down to 0: the integer coefficients of
# n! * T_n, highest power first.
_TAYLOR_INTS = {
    n: tuple((-1) ** k * (math.factorial(n) // math.factorial(2 * k)) for k in range(n // 2, -1, -1))
    for n in _ABOVE_COS + _BELOW_COS
}


class RationalInterval:
    """A pair of rationals lo <= hi certified to bracket a real value (immutable)."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        # lo > hi, decided on the integer parts (lo and hi may also be ints)
        if lo.numerator * hi.denominator > hi.numerator * lo.denominator:
            raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError(f"RationalInterval is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if other.__class__ is not RationalInterval:
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"RationalInterval(lo={self.lo!r}, hi={self.hi!r})"

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, value) -> bool:
        value = as_rational(value)
        return self.lo <= value <= self.hi


def _cos_taylor(p: int, q: int, n: int) -> tuple[int, int]:
    """(n! * q^n * T_n(p/q), n! * q^n) for the degree-n cos Taylor polynomial T_n (q > 0).

    The numerator is a homogeneous polynomial in p^2 and q^2, summed by
    Horner's rule from the highest power of p^2 down.
    """
    p2, q2 = p * p, q * q
    coeffs = _TAYLOR_INTS[n]
    acc, q2_pow = coeffs[0], 1
    for c in coeffs[1:]:
        q2_pow *= q2
        acc = acc * p2 + c * q2_pow
    return acc, coeffs[-1] * q2_pow  # coeffs[-1] is n!


def _window_below(gn: int, gd: int, en: int, ed: int) -> tuple[int, int]:
    """Smallest-denominator rational in [guess - 3*eps, guess - eps], or 0 if that window reaches 0.

    guess = gn/gd and eps = en/ed (gd, ed > 0, neither need be normalised);
    the result is a coprime pair (p, q), searched on the integer numerators
    over the common denominator.  Every value bracketed here is
    non-negative, so 0 is a valid lower end.
    """
    centre, step = gn * ed, en * gd
    if centre <= 3 * step:
        return 0, 1
    den = gd * ed
    return _simplest_positive(centre - 3 * step, den, centre - step, den)


def _window_above(gn: int, gd: int, en: int, ed: int) -> tuple[int, int]:
    """Smallest-denominator rational in [guess + eps, guess + 3*eps] (guess >= 0), as for _window_below."""
    centre, step = gn * ed, en * gd
    den = gd * ed
    return _simplest_positive(centre + step, den, centre + 3 * step, den)


def _sqrt_args(x, eps) -> tuple[Fraction, Fraction]:
    x = as_rational(x)
    eps = as_rational(eps)
    if x.numerator < 0:
        raise NegativeInputError(f"sqrt of negative value {x}")
    if eps.numerator <= 0:
        raise DomainError("eps must be positive")
    return x, eps


def sqrt_bounds(x, eps=DEFAULT_EPS) -> RationalInterval:
    """Rational bracket [r, R] of sqrt(x) with r^2 <= x <= R^2 and R - r <= 6*eps.

    Both endpoint inequalities are verified by exact squaring.  Raises
    NegativeInputError for x < 0.
    """
    x, eps = _sqrt_args(x, eps)
    lo, hi = _sqrt_ends(x.numerator, x.denominator, eps.numerator, eps.denominator)
    return RationalInterval(rational(*lo), rational(*hi))


def sqrt_lower(x, eps=DEFAULT_EPS) -> Fraction:
    """``sqrt_bounds(x, eps).lo``, without building or checking the upper end."""
    x, eps = _sqrt_args(x, eps)
    return rational(*_sqrt_lower_end(x.numerator, x.denominator, eps.numerator, eps.denominator))


def _root_guess(n: int, d: int, en: int, ed: int) -> tuple[int, int, bool]:
    """(r, s, exact) with r/s <= sqrt(n/d) < r/s + eps/2**20, and exact true iff r/s = sqrt(n/d).

    For coprime n >= 0 and d > 0 and eps = en/ed > 0, not necessarily
    normalised.  s = m*d with m = ceil(2**20/(eps*d)), so 1/s <= eps/2**20,
    and r = isqrt(n*d*m^2), so r <= sqrt(n*d)*m < r + 1.  As n and d are
    coprime, n*d*m^2 is a square only if n and d are, and then r/s is the
    root itself.
    """
    m = -(-(ed << 20) // (en * d))
    square = n * d * m * m
    r = math.isqrt(square)
    return r, m * d, r * r == square


def _sqrt_ends(n: int, d: int, en: int, ed: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Verified ends ((r, s), (p, q)) of sqrt(n/d), r/s <= sqrt(n/d) <= p/q, on integers.

    For coprime n >= 0 and d > 0 and eps = en/ed > 0, as sqrt_bounds and
    curve._radicand leave them; eps need not be normalised.  An exact root
    is returned as both ends, not normalised; otherwise the ends are
    coprime pairs.  The arguments are not checked again.
    """
    gn, gd, exact = _root_guess(n, d, en, ed)
    if exact:
        return (gn, gd), (gn, gd)
    lo, hi = _window_below(gn, gd, en, ed), _window_above(gn, gd, en, ed)
    if not (_square_below(n, d, *lo) and _square_above(n, d, *hi)):
        raise GuessFailedError(f"square-root bracket for {rational(n, d)} failed to verify")
    return lo, hi


def _sqrt_lower_end(n: int, d: int, en: int, ed: int) -> tuple[int, int]:
    """The lower end (r, s) of _sqrt_ends(n, d, en, ed), without building or checking the upper end."""
    gn, gd, exact = _root_guess(n, d, en, ed)
    if exact:
        return gn, gd
    lo = _window_below(gn, gd, en, ed)
    if not _square_below(n, d, *lo):
        raise GuessFailedError(f"square-root bracket for {rational(n, d)} failed to verify")
    return lo


def _square_below(n: int, d: int, r: int, s: int) -> bool:
    """Exact check of (r/s)^2 <= n/d by cross-multiplying integers (d, s > 0)."""
    return r * r * d <= n * s * s


def _square_above(n: int, d: int, p: int, q: int) -> bool:
    """Exact check of n/d <= (p/q)^2 by cross-multiplying integers (d, q > 0)."""
    return n * q * q <= p * p * d


def cos_bounds(x) -> RationalInterval:
    """Exact Taylor sandwich of cos(x): lo = degree 14, hi = degree 12.

    Domain is (0, pi/2] up to the verified upper bound of pi/2; the sandwich
    is strict there, so lo < cos(x) < hi, and hi - lo = x^14/14!.
    """
    x = as_rational(x)
    if x <= 0 or 2 * x > pi_bounds(DEFAULT_EPS).hi:
        raise DomainError(f"cos_bounds domain is (0, pi/2-bound], got {x}")
    p, q = x.numerator, x.denominator
    return RationalInterval(rational(*_cos_taylor(p, q, 14)), rational(*_cos_taylor(p, q, 12)))


def _arccos_eps(eps: Fraction) -> Fraction:
    """eps capped at 1/4 (see the module note)."""
    cap = _ARCCOS_EPS_MAX
    return eps if eps.numerator * cap.denominator <= cap.numerator * eps.denominator else cap


def arccos_bounds(x, eps=DEFAULT_EPS) -> RationalInterval:
    """Rational bracket of arccos(x) for x in [0, 1], verified via the cos sandwich.

    Conventions: x = 1 uses 0 as the (exact) lower endpoint; x = 0 returns
    half the pi bracket.  One bracket is built at min(eps, 1/4), so its width
    is at most 6*eps; GuessFailedError if it does not verify.
    """
    x = as_rational(x)
    eps = as_rational(eps)
    if x.numerator < 0 or x.numerator > x.denominator:
        raise DomainError(f"arccos_bounds domain is [0, 1], got {x}")
    if eps.numerator <= 0:
        raise DomainError("eps must be positive")
    if x.numerator == 0:
        # half the pi bracket; pi built at 2*eps/3 keeps the width within 6*eps
        pi = pi_bounds(2 * eps / 3)
        return RationalInterval(pi.lo / 2, pi.hi / 2)
    eps = _arccos_eps(eps)
    lo, hi = _arccos_ends(x.numerator, x.denominator, eps.numerator, eps.denominator)
    return RationalInterval(rational(*lo), rational(*hi))


def _arccos_ends(a: int, b: int, en: int, ed: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Verified ends ((r, s), (p, q)) of arccos(a/b), r/s <= arccos(a/b) <= p/q, on integers.

    For 0 < a <= b and eps = en/ed in (0, 1/4], as arccos_bounds and
    _arccos_eps leave them; a/b and eps need not be normalised, and the ends
    are coprime pairs.  The arguments are not checked again.
    """
    gn, gd = _arccos_guess(a, b)
    lo, hi = _window_below(gn, gd, en, ed), _window_above(gn, gd, en, ed)
    if not (_arccos_above(a, b, *hi) and _arccos_below(a, b, *lo)):
        raise GuessFailedError(f"arccos bracket for {rational(a, b)} failed to verify")
    return lo, hi


def prepare_arccos_dyadic(en: int, ed: int):
    """(j, ends(a, b)): the hull walk's arccos ends of a/b at eps = en/ed, as numerators over 2^j: no window search.

    The scale 2^j > 8/eps is returned with ``ends``, so that
    :func:`curve.prepare_g_floor_ends` takes its root on the same scale.
    For 0 < a <= b and eps in (0, 1/4], as for _arccos_ends, ``ends(a, b)``
    returns the integers (lo, hi) with lo/2^j <= arccos(a/b) <= hi/2^j, or
    None where an end does not verify; the caller then takes the
    reference bracket, on _arccos_ends's, whose windows leave the guess
    more room.
    The guess g = gn/2^e is a double, so its denominator is a power of
    two, and the ends are built from it by shifts, with t = floor(eps*2^j)
    taken once: hi = floor(g*2^j) + t and lo = max(0, ceil(g*2^j) - t).
    Each lies more than t - 1 and at most t steps of 2^-j from g (lo = 0
    lies nearer), and t > eps*2^j - 1 with 2/2^j < eps/4, so each lies
    between 3*eps/4 and eps from g: the bracket lies inside _arccos_ends's,
    whose ends lie eps to 3*eps from g.  They are checked as _arccos_above
    and _arccos_below check them, in the same order (T12 then T28 on hi,
    T14 then T30 on lo, lo = 0 passing), each by one Horner sum on the
    Taylor tables of 2^j (:func:`_taylor_tables`); both lie in [0, 2],
    inside the checks' domain.
    """
    j = (ed // en).bit_length() + 3  # 2^j > 8/eps
    t, (((c12, d12), (c28, d28)), ((c14, d14), (c30, d30))) = (en << j) // ed, _taylor_tables(j)

    def ends(a: int, b: int) -> tuple[int, int] | None:
        gn, gd = _arccos_guess(a, b)
        e = gd.bit_length() - 1
        lo = -((-gn << j) >> e) - t  # ceil(g*2^j) - t, returned as 0 where it is negative
        hi = ((gn << j) >> e) + t
        if (_taylor_at(hi, c12) * b < a * d12 or _taylor_at(hi, c28) * b < a * d28) and (
            lo <= 0 or a * d14 < _taylor_at(lo, c14) * b or a * d30 < _taylor_at(lo, c30) * b
        ):
            return (lo if lo > 0 else 0), hi
        return None

    return j, ends


@cache
def _taylor_tables(j: int):
    """The tables (c, n! << j*n) of _ABOVE_COS's, then _BELOW_COS's degrees n: c_i = _TAYLOR_INTS[n][i] << 2*j*i."""
    def table(n: int) -> tuple[tuple[int, ...], int]:
        return tuple(c << 2 * j * i for i, c in enumerate(_TAYLOR_INTS[n])), math.factorial(n) << j * n

    return [table(n) for n in _ABOVE_COS], [table(n) for n in _BELOW_COS]


def _taylor_at(p: int, coeffs: tuple[int, ...]) -> int:
    """_cos_taylor(p, 2^j, n)'s numerator, by Horner on _taylor_tables(j)'s c of degree n: one multiply-add a step."""
    p2, acc = p * p, 0
    for c in coeffs:
        acc = acc * p2 + c
    return acc


def _arccos_guess(a: int, b: int) -> tuple[int, int]:
    """The double guess of arccos(a/b), as its exact ratio (see the module note)."""
    return math.acos(a / b).as_integer_ratio()


def _arccos_upper_end(a: int, b: int, en: int, ed: int) -> tuple[int, int]:
    """The upper end (p, q) of _arccos_ends(a, b, en, ed), without building or checking the lower end."""
    hi = _window_above(*_arccos_guess(a, b), en, ed)
    if not _arccos_above(a, b, *hi):
        raise GuessFailedError(f"arccos bracket for {rational(a, b)} failed to verify")
    return hi


def _arccos_above(a: int, b: int, p: int, q: int) -> bool:
    """Exact check that arccos(a/b) <= p/q in (0, 4] via the Taylor sandwich, on integers (b, q > 0).

    T(hi) < x with T above cos gives cos(hi) < x, so hi > arccos(x).
    """
    if p <= 0 or p > 4 * q:
        return False
    for n in _ABOVE_COS:
        num, den = _cos_taylor(p, q, n)
        if num * b < a * den:
            return True
    return False


def _arccos_below(a: int, b: int, r: int, s: int) -> bool:
    """Exact check that 0 <= r/s <= arccos(a/b) via the Taylor sandwich, on integers (b, s > 0).

    x < T(lo) with T below cos gives x < cos(lo), so lo < arccos(x); lo = 0
    needs no check, as arccos(x) >= 0.
    """
    if r <= 0:
        return r == 0
    for n in _BELOW_COS:
        num, den = _cos_taylor(r, s, n)
        if a * den < num * b:
            return True
    return False


_PI_CACHE: dict[tuple[int, int], RationalInterval] = {}


def pi_bounds(eps=DEFAULT_EPS) -> RationalInterval:
    """Verified rational bracket of pi: three times the arccos bracket of 1/2.

    Width is at most 18*eps, and the lower end is positive for every eps
    (3/2 at eps >= 1/4, the arccos eps cap).  Results are memoised per eps,
    keyed on its integer numerator and denominator, which hash much faster
    than a Fraction; the cache is only ever read or idempotently written,
    so concurrent use is safe.  Below eps of about 1e-16 no double guess of
    arccos(1/2) verifies, and the GuessFailedError names pi and eps.
    """
    eps = as_rational(eps)
    key = (eps.numerator, eps.denominator)
    cached = _PI_CACHE.get(key)
    if cached is None:
        if key[0] <= 0:
            raise DomainError("eps must be positive")
        try:
            third = arccos_bounds(rational(1, 2), eps)
        except GuessFailedError as exc:
            raise GuessFailedError(
                f"pi bracket at eps {eps} failed to verify ({exc}): pi verifies down to eps of about 1e-16 only"
            ) from exc
        cached = RationalInterval(3 * third.lo, 3 * third.hi)
        _PI_CACHE[key] = cached
    return cached
