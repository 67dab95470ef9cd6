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
is only a hint, and correctness never depends on it.  Square-root guesses
come from exact integer square roots and are close enough that the first
bracket always verifies.  Arccos guesses come from the C library's double
``acos``, one attempt per bracket: the Taylor polynomials decrease on
[0, 5/2], so a window nearer the guess cannot verify an end that failed.
Their eps is capped at 1/4, which keeps every window inside [0, 5/2] and
the lower window of arccos(1/2), hence every pi lower end, above 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, GuessFailedError, NegativeInputError
from .rational import ZERO, _simplest_positive, as_rational, rational, sqrt_guess, to_float

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


def arccos_bounds(x, eps=DEFAULT_EPS) -> RationalInterval:
    """Rational bracket of arccos(x) for x in [0, 1], verified via the cos sandwich.

    Conventions: x = 1 uses 0 as the (exact) lower endpoint; x = 0 returns
    half the pi bracket.  One bracket is built at min(eps, 1/4), so its width
    is at most 6*eps; GuessFailedError if it does not verify.
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
    lo, hi = _bracket_candidates(guess, min(eps, _ARCCOS_EPS_MAX))
    if not _verify_arccos(x, lo, hi):
        raise GuessFailedError(f"arccos bracket for {x} failed to verify")
    return RationalInterval(lo, hi)


def _verify_arccos(x, lo, hi) -> bool:
    """Exact check that lo <= arccos(x) <= hi via the Taylor sandwich, on integers."""
    a, b = x.numerator, x.denominator
    p, q = hi.numerator, hi.denominator
    r, s = lo.numerator, lo.denominator
    if p <= 0 or p > 4 * q or r < 0:  # hi in (0, 4], lo >= 0
        return False
    # upper end: T(hi) < x with T above cos gives cos(hi) < x, so hi > arccos(x)
    for n in _ABOVE_COS:
        num, den = _cos_taylor(p, q, n)
        if num * b < a * den:
            break
    else:
        return False
    if r == 0:
        return True  # arccos(x) >= 0 always
    # lower end: x < T(lo) with T below cos gives x < cos(lo), so lo < arccos(x)
    for n in _BELOW_COS:
        num, den = _cos_taylor(r, s, n)
        if a * den < num * b:
            return True
    return False


_PI_CACHE: dict[Fraction, RationalInterval] = {}


def pi_bounds(eps=DEFAULT_EPS) -> RationalInterval:
    """Verified rational bracket of pi: three times the arccos bracket of 1/2.

    Width is at most 18*eps, and the lower end is positive for every eps
    (3/2 at eps >= 1/4, the arccos eps cap).  Results are memoised per eps;
    the cache is only ever read or idempotently written, so concurrent use
    is safe.
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
