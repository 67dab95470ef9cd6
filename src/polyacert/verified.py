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
is only a hint, and correctness never depends on it.

Guesses, windows and checks work on integers, and ``Fraction``s are built
only at the edge.  :func:`_window_below` and :func:`_window_above` take the
integer parts of guess and eps and return the coprime pair of their
candidate; :func:`_square_below` and :func:`_square_above` check the two
ends of a square root, and :func:`_arccos_below` and :func:`_arccos_above`
those of an arccos, given x = a/b and the end as integers.  The arccos
bracket has one integer implementation, :func:`_arccos_ends`, with
:func:`_arccos_upper_end` for callers that use only the upper end; both take
x = a/b and the capped eps as integers, neither normalised, and return
integer pairs, so a caller that keeps the ends as integers (the curve's
lower count) builds no ``Fraction`` at all.  The public brackets
(:func:`arccos_bounds` and through it :func:`pi_bounds`) build their
``Fraction`` ends from those pairs.
:func:`sqrt_lower` is the lower end of :func:`sqrt_bounds` alone, and its
core :func:`_sqrt_lower_core` skips the argument checks and takes the
square-root resolution already built, for a caller that evaluates many ends
at one eps; each returns the same rationals as the two-sided bracket.

Square-root guesses come from exact integer square roots and are close
enough that the first bracket always verifies.  Arccos guesses come from
the C library's double ``acos`` of ``a / b``; integer true division is
correctly rounded, so that is the double nearest x whatever the common
factor of a and b.  There is one attempt per bracket: the Taylor
polynomials decrease on [0, 5/2], so a window nearer the guess cannot
verify an end that failed.
Their eps is capped at 1/4, which keeps every window inside [0, 5/2] and
the lower window of arccos(1/2), hence every pi lower end, above 0.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, GuessFailedError, NegativeInputError
from .rational import _simplest_positive, as_rational, rational, sqrt_guess

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


def _exact_sqrt(x):
    """The exact rational root when x is a perfect square of a rational, else None.

    Exact roots are taken exactly (a degenerate bracket): they verify by
    squaring like any other endpoint, and stepping strictly below an exact
    root would only waste margin.
    """
    n, d = x.numerator, x.denominator
    root_n, root_d = math.isqrt(n), math.isqrt(d)
    if root_n * root_n == n and root_d * root_d == d:
        return rational(root_n, root_d)
    return None


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


def _sqrt_resolution(eps) -> Fraction:
    # r <= sqrt(x) < r + eps/2**20 for r = sqrt_guess(x, eps/2**20), so the
    # window below r squares to at most x and the window above r + eps lies
    # above sqrt(x): both ends verify
    return eps / 2**20


def sqrt_bounds(x, eps=DEFAULT_EPS) -> RationalInterval:
    """Rational bracket [r, R] of sqrt(x) with r^2 <= x <= R^2 and R - r <= 6*eps.

    Both endpoint inequalities are verified by exact squaring.  Raises
    NegativeInputError for x < 0.
    """
    x, eps = _sqrt_args(x, eps)
    exact = _exact_sqrt(x)
    if exact is not None:
        return RationalInterval(exact, exact)
    guess = sqrt_guess(x, _sqrt_resolution(eps))
    parts = guess.numerator, guess.denominator, eps.numerator, eps.denominator
    lo, hi = rational(*_window_below(*parts)), rational(*_window_above(*parts))
    if not (_square_below(x, lo) and _square_above(x, hi)):
        raise GuessFailedError(f"square-root bracket for {x} failed to verify")
    return RationalInterval(lo, hi)


def sqrt_lower(x, eps=DEFAULT_EPS) -> Fraction:
    """``sqrt_bounds(x, eps).lo``, without building or checking the upper end."""
    x, eps = _sqrt_args(x, eps)
    return _sqrt_lower_core(x, eps, _sqrt_resolution(eps))


def _sqrt_lower_core(x: Fraction, eps: Fraction, resolution: Fraction) -> Fraction:
    """sqrt_lower(x, eps) for x >= 0 and eps > 0 as _sqrt_args returns them, and
    resolution = _sqrt_resolution(eps): the arguments are not checked again."""
    exact = _exact_sqrt(x)
    if exact is not None:
        return exact
    guess = sqrt_guess(x, resolution)
    lo = rational(*_window_below(guess.numerator, guess.denominator, eps.numerator, eps.denominator))
    if not _square_below(x, lo):
        raise GuessFailedError(f"square-root bracket for {x} failed to verify")
    return lo


def _square_below(x, lo) -> bool:
    """Exact check of lo^2 <= x by cross-multiplying integers."""
    return lo.numerator ** 2 * x.denominator <= x.numerator * lo.denominator ** 2


def _square_above(x, hi) -> bool:
    """Exact check of x <= hi^2 by cross-multiplying integers."""
    return x.numerator * hi.denominator ** 2 <= hi.numerator ** 2 * x.denominator


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
    gn, gd = math.acos(a / b).as_integer_ratio()  # the double guess (see the module note)
    lo, hi = _window_below(gn, gd, en, ed), _window_above(gn, gd, en, ed)
    if not (_arccos_above(a, b, *hi) and _arccos_below(a, b, *lo)):
        raise GuessFailedError(f"arccos bracket for {rational(a, b)} failed to verify")
    return lo, hi


def _arccos_upper_end(a: int, b: int, en: int, ed: int) -> tuple[int, int]:
    """The upper end (p, q) of _arccos_ends(a, b, en, ed), without building or checking the lower end."""
    hi = _window_above(*math.acos(a / b).as_integer_ratio(), en, ed)
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
    so concurrent use is safe.
    """
    eps = as_rational(eps)
    key = (eps.numerator, eps.denominator)
    cached = _PI_CACHE.get(key)
    if cached is None:
        if key[0] <= 0:
            raise DomainError("eps must be positive")
        third = arccos_bounds(rational(1, 2), eps)
        cached = RationalInterval(3 * third.lo, 3 * third.hi)
        _PI_CACHE[key] = cached
    return cached
