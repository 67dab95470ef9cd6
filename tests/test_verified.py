"""Tests for the verified bracket layer: sqrt, cos Taylor sandwich, arccos, pi."""
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyacert import verified
from polyacert.errors import DomainError, GuessFailedError, NegativeInputError
from polyacert.rational import format_rational, rational, to_float
from polyacert.verified import (
    DEFAULT_EPS,
    RationalInterval,
    _cos_taylor,
    _verify_arccos,
    arccos_bounds,
    cos_bounds,
    pi_bounds,
    sqrt_bounds,
)

mpmath.mp.dps = 50


def outward(value: mpmath.mpf, slack: str = "1e-40") -> tuple[mpmath.mpf, mpmath.mpf]:
    pad = mpmath.mpf(slack)
    return value - pad, value + pad


def rational_to_mpf(q) -> mpmath.mpf:
    return mpmath.mpf(int(q.numerator)) / int(q.denominator)


class TestRationalInterval:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            RationalInterval(rational(2), rational(1))

    def test_width_and_contains(self):
        iv = RationalInterval(rational(1, 3), rational(1, 2))
        assert iv.width == rational(1, 6)
        assert iv.contains(rational(2, 5))
        assert not iv.contains(rational(3, 5))


class TestSqrtBounds:
    def test_zero_is_exact(self):
        iv = sqrt_bounds(rational(0))
        assert iv.lo == iv.hi == 0

    def test_perfect_square_is_exact(self):
        iv = sqrt_bounds(rational(4), rational(1, 1000))
        assert iv.contains(2)
        assert iv.lo**2 <= 4 <= iv.hi**2
        iv = sqrt_bounds(rational(9, 16))
        assert iv.lo == iv.hi == rational(3, 4)

    def test_sqrt2_verified_by_squaring(self):
        iv = sqrt_bounds(rational(2), rational(1, 1000))
        # same exact-integer comparison that validates the witness 41/29:
        assert 41 * 41 <= 2 * 29 * 29
        assert iv.lo**2 <= 2 <= iv.hi**2
        assert iv.width <= 6 * rational(1, 1000)

    def test_negative_rejected(self):
        with pytest.raises(NegativeInputError):
            sqrt_bounds(rational(-1))

    def test_known_selections(self):
        # frozen Stern-Brocot selections at eps = 1/1000
        assert format_rational(sqrt_bounds(rational(12)).lo) == "45/13"
        assert format_rational(sqrt_bounds(rational(20)).lo) == "76/17"
        assert format_rational(sqrt_bounds(rational(32)).lo) == "164/29"

    @given(
        num=st.integers(1, 10**6),
        den=st.integers(1, 10**3),
        eps_exp=st.integers(1, 10),
    )
    @settings(max_examples=200, deadline=None)
    def test_bracket_is_valid_and_tight(self, num, den, eps_exp):
        x = rational(num, den)
        eps = rational(1, 10**eps_exp)
        iv = sqrt_bounds(x, eps)
        assert iv.lo >= 0
        assert iv.lo**2 <= x <= iv.hi**2
        assert iv.width <= 6 * eps

    @given(num=st.integers(1, 10**4), den=st.integers(1, 100))
    @settings(max_examples=60, deadline=None)
    def test_shrinking_eps_keeps_validity(self, num, den):
        x = rational(num, den)
        for eps in (rational(1, 100), rational(1, 1000), rational(1, 100000)):
            iv = sqrt_bounds(x, eps)
            assert iv.lo**2 <= x <= iv.hi**2


class TestCosBounds:
    def test_exact_taylor_sums_at_one(self):
        iv = cos_bounds(rational(1))
        lo_expected = sum(rational((-1) ** k, math.factorial(2 * k)) for k in range(8))
        hi_expected = sum(rational((-1) ** k, math.factorial(2 * k)) for k in range(7))
        assert iv.lo == lo_expected
        assert iv.hi == hi_expected
        assert to_float(iv.lo) < math.cos(1) < to_float(iv.hi)

    def test_width_is_highest_order_term(self):
        for x in (rational(1), rational(1, 2), rational(157, 100)):
            iv = cos_bounds(x)
            assert iv.width == x**14 / math.factorial(14)
        assert cos_bounds(rational(1, 2)).width < rational(1, 10**10)

    def test_near_quadrant_boundary(self):
        x = rational(157, 100)
        iv = cos_bounds(x)
        true = mpmath.cos(rational_to_mpf(x))
        lo_pad, hi_pad = outward(true)
        assert rational_to_mpf(iv.lo) < hi_pad
        assert rational_to_mpf(iv.hi) > lo_pad
        assert iv.lo < iv.hi

    def test_domain(self):
        with pytest.raises(DomainError):
            cos_bounds(rational(0))
        with pytest.raises(DomainError):
            cos_bounds(rational(-1, 2))
        with pytest.raises(DomainError):
            cos_bounds(rational(2))  # beyond the verified pi/2 upper bound

    @given(num=st.integers(1, 1570), den=st.just(1000))
    @settings(max_examples=150, deadline=None)
    def test_sandwich_against_high_precision(self, num, den):
        x = rational(num, den)
        iv = cos_bounds(x)
        # the sandwich gap shrinks like x^16/16!, far below 50 digits for
        # small x; use enough working precision to resolve strictness
        with mpmath.workdps(130):
            true = mpmath.cos(mpmath.mpf(num) / den)
            assert rational_to_mpf(iv.lo) < true < rational_to_mpf(iv.hi)


class TestArccosBounds:
    def test_at_one(self):
        eps = rational(1, 1000)
        iv = arccos_bounds(rational(1), eps)
        assert iv.lo == 0
        assert iv.hi <= 6 * eps
        assert iv.hi > 0

    def test_at_zero_is_half_pi_bracket(self):
        eps = rational(1, 1000)
        iv = arccos_bounds(rational(0), eps)
        pi = pi_bounds(2 * eps / 3)
        assert iv.lo == pi.lo / 2
        assert iv.hi == pi.hi / 2
        assert iv.width <= 6 * eps

    def test_at_half_brackets_pi_third(self):
        iv = arccos_bounds(rational(1, 2))
        third = mpmath.pi / 3
        assert rational_to_mpf(iv.lo) < third < rational_to_mpf(iv.hi)
        # frozen selections at eps = 1/1000
        assert format_rational(iv.lo) == "23/22"
        assert format_rational(iv.hi) == "21/20"

    def test_verification_predicate_holds(self):
        # recompute the exact sandwich conditions the construction relies on
        x = rational(1, 3)
        iv = arccos_bounds(x)
        assert cos_bounds(iv.hi).hi < x < cos_bounds(iv.lo).lo

    def test_domain(self):
        with pytest.raises(DomainError):
            arccos_bounds(rational(-1, 10))
        with pytest.raises(DomainError):
            arccos_bounds(rational(11, 10))

    @given(
        num=st.integers(0, 1000),
        eps=st.one_of(
            st.integers(2, 8).map(lambda k: rational(1, 10**k)),
            st.sampled_from(["1/4", "3/10", "1/2", "1", "5/2", "10", "100"]).map(rational),
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_bracket_contains_true_value(self, num, eps):
        x = rational(num, 1000)
        iv = arccos_bounds(x, eps)
        true = mpmath.acos(rational_to_mpf(x))
        lo_pad, hi_pad = outward(true)
        assert rational_to_mpf(iv.lo) <= hi_pad
        assert rational_to_mpf(iv.hi) >= lo_pad
        assert iv.width <= 6 * eps

    def test_a_bracket_that_does_not_verify_is_not_retried(self, monkeypatch):
        # eps = 1e-18 is below what the double guess of arccos(1/1000) can seed
        calls = []

        def counting(x, lo, hi):
            calls.append((lo, hi))
            return _verify_arccos(x, lo, hi)

        monkeypatch.setattr(verified, "_verify_arccos", counting)
        with pytest.raises(GuessFailedError):
            arccos_bounds(rational(1, 1000), rational(1, 10**18))
        assert len(calls) == 1


class TestIntegerTaylorCheck:
    """The integer kernel against exact Fraction evaluation of the same polynomials."""

    @staticmethod
    def taylor(y, n):
        return sum(Fraction((-1) ** k, math.factorial(2 * k)) * y ** (2 * k) for k in range(n // 2 + 1))

    @given(
        y=st.fractions(min_value=0, max_value=4, max_denominator=10**12),
        x=st.fractions(min_value=0, max_value=1, max_denominator=10**12),
    )
    @settings(max_examples=300, deadline=None)
    def test_sign_matches_fraction_reference(self, y, x):
        assume(y > 0 and x > 0)
        for n in (12, 14, 28, 30):
            reference = self.taylor(y, n)
            num, den = _cos_taylor(y.numerator, y.denominator, n)
            assert Fraction(num, den) == reference, n
            diff = num * x.denominator - x.numerator * den
            assert (diff > 0) - (diff < 0) == (reference > x) - (reference < x), n

    @given(
        lo=st.fractions(min_value=0, max_value=4, max_denominator=10**9),
        hi=st.fractions(min_value=0, max_value=4, max_denominator=10**9),
        x=st.fractions(min_value=0, max_value=1, max_denominator=10**9),
    )
    @settings(max_examples=300, deadline=None)
    def test_arccos_predicate_matches_fraction_reference(self, lo, hi, x):
        assume(0 < x and lo <= hi)
        upper = 0 < hi and (self.taylor(hi, 12) < x or self.taylor(hi, 28) < x)
        lower = lo == 0 or x < self.taylor(lo, 14) or x < self.taylor(lo, 30)
        assert _verify_arccos(x, lo, hi) == (upper and lower)

    def test_higher_degree_reaches_fine_brackets_near_half_pi(self):
        eps = Fraction(1, 10**14)
        x = rational(1, 1000)
        iv = arccos_bounds(x, eps)
        true = mpmath.acos(rational_to_mpf(x))
        assert rational_to_mpf(iv.lo) < true < rational_to_mpf(iv.hi)
        assert iv.width <= 6 * eps
        # the degree-12/14 sandwich alone verifies neither end here
        assert not cos_bounds(iv.hi).hi < x
        assert not cos_bounds(iv.lo).lo > x


class TestPiBounds:
    def test_brackets_known_rational(self):
        iv = pi_bounds(rational(1, 1000))
        assert iv.lo > 3
        assert iv.lo < rational(314159265, 100000000) < iv.hi

    def test_width_scales_with_eps(self):
        eps = rational(1, 10**6)
        assert pi_bounds(eps).width <= 18 * eps

    def test_fine_bracket(self):
        eps = rational(1, 10**13)
        iv = pi_bounds(eps)
        assert rational_to_mpf(iv.lo) < mpmath.pi < rational_to_mpf(iv.hi)
        assert iv.width <= 18 * eps

    def test_construction_is_three_arccos_halves(self):
        eps = rational(1, 500)
        pi = pi_bounds(eps)
        third = arccos_bounds(rational(1, 2), eps)
        assert pi.lo == 3 * third.lo
        assert pi.hi == 3 * third.hi

    @pytest.mark.parametrize("eps", [rational(7, 20), rational(1, 2), rational(1), rational(100)])
    def test_coarse_eps_keeps_the_lower_end_positive(self, eps):
        iv = pi_bounds(eps)
        assert iv.lo > 0
        assert rational_to_mpf(iv.lo) < mpmath.pi < rational_to_mpf(iv.hi)
        assert iv.width <= 18 * eps

    def test_memoised_value_stable(self):
        a = pi_bounds(rational(1, 1000))
        b = pi_bounds(rational(1, 1000))
        assert a.lo == b.lo and a.hi == b.hi
