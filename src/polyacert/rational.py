"""Exact rational arithmetic: one rational type, parsing, and smallest-denominator search.

All certified computations in this package are carried out on exact
rationals; no float ever enters a certified comparison.  The one rational
type is ``fractions.Fraction``, at the API edge and in every bracket and
count; the Taylor and squaring checks inside the verified brackets compare
plain ``int`` numerators and denominators.

Rationals serialize as ``"p/q"`` (or just ``"p"`` for integers) with the
sign on the numerator; :func:`parse_rational` accepts both forms.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt

# perfbench/run.py records this name in each result's environment.
RATIONAL_BACKEND = "fractions"

rational = Fraction

ZERO = Fraction(0)

# ASCII only: \d would also match other scripts' digits, which int() accepts
_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$", re.ASCII)


def as_rational(value) -> Fraction:
    """Coerce ``value`` to a Fraction.

    Accepts Fractions, ints, and strings ``"p/q"``/``"p"``.
    Floats are rejected: silently converting a float would smuggle binary
    rounding into a certified path.  Convert floats explicitly with
    :func:`rational` where a guess is genuinely intended.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise TypeError(
            f"refusing implicit float {value!r} in exact context; pass a rational "
            "(int, Fraction, or 'p/q' string), or call rational() explicitly"
        )
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def rat_floor(q) -> int:
    """Exact floor of a rational (rounds toward minus infinity)."""
    return q.numerator // q.denominator


def rat_ceil(q) -> int:
    return -((-q.numerator) // q.denominator)


def to_float(q) -> float:
    """Nearest double; for guesses and diagnostics only, never for certified tests."""
    return float(q)


def format_rational(q) -> str:
    """Canonical string form: ``"p/q"``, or ``"p"`` when the denominator is 1."""
    n, d = q.numerator, q.denominator
    return str(n) if d == 1 else f"{n}/{d}"


def parse_rational(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` (sign on the numerator) into a rational."""
    m = _RATIONAL_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return rational(num, den)


def _simplest_positive(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """Smallest-denominator fraction in [a/b, c/d] with 0 < a/b <= c/d.

    One continued-fraction step per loop iteration: either the interval
    contains an integer (take the smallest, denominator 1 cannot be beaten)
    or recurse on the reciprocal of the fractional parts.  This walks the
    Stern-Brocot tree in big jumps instead of one mediant at a time.
    """
    terms = []
    while True:
        n, r = divmod(a, b)
        ceil_lo = n if r == 0 else n + 1
        if ceil_lo * d <= c:
            terms.append(ceil_lo)
            break
        terms.append(n)
        # reciprocal of the fractional parts swaps and flips the endpoints:
        # [a/b - n, c/d - n] -> [d/(c - n*d), b/r]
        a, b, c, d = d, c - n * d, b, r
    p, q = terms[-1], 1
    for t in reversed(terms[:-1]):
        p, q = t * p + q, p
    return p, q


def simplest_in(lo, hi) -> Fraction:
    """The rational with the smallest denominator in the closed interval [lo, hi].

    Ties on the denominator are broken by smallest absolute numerator, then
    by smaller value (both can only occur among integers, where the rule
    picks the integer closest to zero).
    """
    lo = as_rational(lo)
    hi = as_rational(hi)
    if lo > hi:
        raise ValueError(f"empty interval: [{lo}, {hi}]")
    if lo <= 0 <= hi:
        return ZERO
    if hi < 0:
        p, q = _simplest_positive(-hi.numerator, hi.denominator, -lo.numerator, lo.denominator)
        return rational(-p, q)
    p, q = _simplest_positive(lo.numerator, lo.denominator, hi.numerator, hi.denominator)
    return rational(p, q)


def sqrt_guess(q, resolution) -> Fraction:
    """Exact rational r with r <= sqrt(q) < r + resolution, via integer square roots.

    No floating point is involved, so guesses seeded from here are identical
    on every platform.  ``resolution`` must be a positive rational.
    """
    n, d = q.numerator, q.denominator
    if n < 0:
        raise ValueError("negative radicand")
    rn, rd = resolution.numerator, resolution.denominator
    if rn <= 0:
        raise ValueError("resolution must be positive")
    # need scale m with 1/(m*d) <= resolution, i.e. m >= rd/(rn*d)
    m = max(1, -((-rd) // (rn * d)))
    return rational(isqrt(n * d * m * m), m * d)
