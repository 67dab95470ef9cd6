"""Verified rational brackets for sqrt, cos, arccos, and pi.

Every function here returns a :class:`RationalInterval` whose correctness is
established purely by exact rational comparisons:

* square roots are verified by squaring both endpoints;
* cosine is sandwiched between its Taylor polynomials of degree 14 (below)
  and 12 (above), evaluated exactly;
* arccos brackets are verified through the cosine sandwich, using that cos
  is strictly decreasing: ``T12(hi) < x`` forces ``hi > arccos(x)`` and
  ``x < T14(lo)`` forces ``lo < arccos(x)``;
* pi is three times the arccos bracket of 1/2.

The arccos and square-root checks run on Python integers only: with
``hi = p/q`` and ``x = a/b``, ``T12(hi) < x`` is decided as
``N * b < a * 12! * q^12``, where the integer ``N = 12! * q^12 * T12(p/q)``
comes from a homogeneous Horner evaluation in ``p^2`` and ``q^2`` (and
likewise over ``14! * q^14`` for ``T14(lo)``); the squaring checks
cross-multiply the same way.  The degree-12/14 sandwich is about 6e-9 wide
near pi/2, too coarse to verify brackets much below eps = 1e-9 there, so an
endpoint it cannot verify is checked again against the degree-28/30 pair,
which is rigorous on the same range and about 3e-27 wide there.  An endpoint the
degree-12/14 pair verifies is never rechecked, so the brackets it accepts
stay the same.  Arccos and pi brackets thus verify down to about
eps = 1e-15, where the double-precision arccos guess runs out of accuracy.

Bracket endpoints are picked as the smallest-denominator rationals in
``[guess - 3*eps, guess - eps]`` and ``[guess + eps, guess + 3*eps]`` around a
numeric guess, so certified values stay small and fast to compute.  The guess
is only a hint, and correctness never depends on it.  Square-root guesses
come from exact integer square roots and are close enough that the first
bracket always verifies.  Arccos guesses come from the C library's double
``acos``: if verification fails, eps is divided by 10 and the attempt
repeated (at most 8 times) before giving up.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, GuessFailedError, NegativeInputError
from .rational import ZERO, _simplest_positive, as_rational, rational, sqrt_guess, to_float

DEFAULT_EPS = rational(1, 1000)

GUESS_RETRIES = 8

# The alternating Taylor series for cos has terms x^(2k)/(2k)! that decrease
# in magnitude from k=7 onward whenever x^2 <= 15*16, so the degree-12/14
# sandwich is rigorous far beyond the quadrant.  We cap internal evaluations
# at 4 to stay deep inside that regime.
_TAYLOR_SAFE_MAX = rational(4)

# (-1)^k / (2k)! for k = 0..7, exact.
_COS_COEFFS = tuple(
    rational((-1) ** k, math.factorial(2 * k)) for k in range(8)
)

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


@dataclass(frozen=True)
class RationalInterval:
    """A pair of rationals lo <= hi certified to bracket a real value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, value) -> bool:
        value = as_rational(value)
        return self.lo <= value <= self.hi


def _cos_taylor_pair(x) -> tuple[Fraction, Fraction]:
    """(degree-14 value, degree-12 value) of the cos Taylor polynomial at x.

    Requires 0 <= x <= 4 so that the pair brackets cos(x); see module note.
    """
    if x < 0 or x > _TAYLOR_SAFE_MAX:
        raise DomainError(f"Taylor sandwich not validated at x={x}")
    x2 = x * x
    upper = ZERO  # degree 12: k = 0..6
    for coeff in reversed(_COS_COEFFS[:7]):
        upper = upper * x2 + coeff
    # degree 14 appends the k=7 term, which is negative
    pow14 = x2
    for _ in range(6):
        pow14 = pow14 * x2
    return upper + _COS_COEFFS[7] * pow14, upper


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


def _bracket_candidates(guess, eps) -> tuple[Fraction, Fraction]:
    """Smallest-denominator rationals in the two off-center windows around guess.

    Both windows are searched on the integer numerators over the common
    denominator of guess and eps.  A lower window that reaches 0 gives the
    endpoint 0: every bracketed value here is non-negative.
    """
    centre, step = guess.numerator * eps.denominator, eps.numerator * guess.denominator
    den = guess.denominator * eps.denominator
    hi = rational(*_simplest_positive(centre + step, den, centre + 3 * step, den))
    if centre <= 3 * step:
        return ZERO, hi
    return rational(*_simplest_positive(centre - 3 * step, den, centre - step, den)), hi


def sqrt_bounds(x, eps=DEFAULT_EPS) -> RationalInterval:
    """Rational bracket [r, R] of sqrt(x) with r^2 <= x <= R^2 and R - r <= 6*eps.

    Both endpoint inequalities are verified by exact squaring.  Raises
    NegativeInputError for x < 0.
    """
    x = as_rational(x)
    eps = as_rational(eps)
    if x < 0:
        raise NegativeInputError(f"sqrt of negative value {x}")
    if eps <= 0:
        raise DomainError("eps must be positive")
    exact = _exact_sqrt(x)
    if exact is not None:
        return RationalInterval(exact, exact)
    # r <= sqrt(x) < r + eps/2**20, so the window below r squares to at most x
    # and the window above r + eps lies above sqrt(x): the first guess verifies
    guess = sqrt_guess(x, eps / 2**20)
    lo, hi = _bracket_candidates(guess, eps)
    if not _squares_bracket(x, lo, hi):
        raise GuessFailedError(f"square-root bracket for {x} failed to verify")
    return RationalInterval(lo, hi)


def _squares_bracket(x, lo, hi) -> bool:
    """Exact check of lo^2 <= x <= hi^2 by cross-multiplying integers."""
    a, b = x.numerator, x.denominator
    return lo.numerator ** 2 * b <= a * lo.denominator ** 2 and a * hi.denominator ** 2 <= hi.numerator ** 2 * b


@lru_cache(maxsize=None)
def _pi_half_upper_default() -> Fraction:
    return pi_bounds(DEFAULT_EPS).hi / 2


def cos_bounds(x) -> RationalInterval:
    """Exact Taylor sandwich of cos(x): lo = degree 14, hi = degree 12.

    Domain is (0, pi/2] up to the verified upper bound of pi/2; the sandwich
    is strict there, so lo < cos(x) < hi, and hi - lo = x^14/14!.
    """
    x = as_rational(x)
    if x <= 0 or x > _pi_half_upper_default():
        raise DomainError(f"cos_bounds domain is (0, pi/2-bound], got {x}")
    lower, upper = _cos_taylor_pair(x)
    return RationalInterval(lower, upper)


def arccos_bounds(x, eps=DEFAULT_EPS) -> RationalInterval:
    """Rational bracket of arccos(x) for x in [0, 1], verified via the cos sandwich.

    Conventions: x = 1 uses 0 as the (exact) lower endpoint; x = 0 returns
    half the pi bracket.  Width is at most 6*eps.
    """
    x = as_rational(x)
    eps = as_rational(eps)
    if x < 0 or x > 1:
        raise DomainError(f"arccos_bounds domain is [0, 1], got {x}")
    if eps <= 0:
        raise DomainError("eps must be positive")
    if x == 0:
        # half the pi bracket; pi built at 2*eps/3 keeps the width within 6*eps
        pi = pi_bounds(2 * eps / 3)
        return RationalInterval(pi.lo / 2, pi.hi / 2)

    guess = rational(math.acos(to_float(x)))
    attempt = eps
    for _ in range(GUESS_RETRIES + 1):
        lo, hi = _bracket_candidates(guess, attempt)
        if _verify_arccos(x, lo, hi):
            return RationalInterval(lo, hi)
        attempt = attempt / 10
    raise GuessFailedError(f"arccos bracket for {x} failed to verify")


def _verify_arccos(x, lo, hi) -> bool:
    """Exact check that lo <= arccos(x) <= hi via the Taylor sandwich, on integers."""
    a, b = x.numerator, x.denominator
    p, q = hi.numerator, hi.denominator
    r, s = lo.numerator, lo.denominator
    if p <= 0 or p > 4 * q or r < 0:  # hi in (0, 4], lo >= 0
        return False
    # upper end: T(hi) < x with T above cos gives cos(hi) < x, so hi > arccos(x)
    if not any(_taylor_minus(p, q, n, a, b) < 0 for n in _ABOVE_COS):
        return False
    if r == 0:
        return True  # arccos(x) >= 0 always
    # lower end: x < T(lo) with T below cos gives x < cos(lo), so lo < arccos(x)
    return any(_taylor_minus(r, s, n, a, b) > 0 for n in _BELOW_COS)


def _taylor_minus(p: int, q: int, n: int, a: int, b: int) -> int:
    """An integer with the sign of T_n(p/q) - a/b, for the degree-n cos Taylor polynomial T_n.

    It is n! * q^n * b times the difference (q, b > 0).  The numerator
    n! * q^n * T_n(p/q) is a homogeneous polynomial in p^2 and q^2, summed
    by Horner's rule from the highest power of p^2 down.
    """
    p2, q2 = p * p, q * q
    coeffs = _TAYLOR_INTS[n]
    acc, q2_pow = coeffs[0], 1
    for c in coeffs[1:]:
        q2_pow *= q2
        acc = acc * p2 + c * q2_pow
    return acc * b - a * coeffs[-1] * q2_pow  # coeffs[-1] is n!


_PI_CACHE: dict[Fraction, RationalInterval] = {}


def pi_bounds(eps=DEFAULT_EPS) -> RationalInterval:
    """Verified rational bracket of pi: three times the arccos bracket of 1/2.

    Width is at most 18*eps.  Results are memoised per eps; the cache is
    only ever read or idempotently written, so concurrent use is safe.
    """
    eps = as_rational(eps)
    if eps <= 0:
        raise DomainError("eps must be positive")
    cached = _PI_CACHE.get(eps)
    if cached is None:
        third = arccos_bounds(rational(1, 2), eps)
        cached = RationalInterval(3 * third.lo, 3 * third.hi)
        _PI_CACHE[eps] = cached
    return cached
