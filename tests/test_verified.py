"""Tests for the verified bracket layer: sqrt, cos Taylor sandwich, arccos, pi."""
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polyacert import curve, verified
from polyacert.curve import BoundKind
from polyacert.errors import DomainError, GuessFailedError, NegativeInputError
from polyacert.lattice import count_weighted
from polyacert.rational import format_rational, rational, to_float
from polyacert.verified import (
    _ABOVE_COS,
    _BELOW_COS,
    DEFAULT_EPS,
    RationalInterval,
    _arccos_above,
    _arccos_below,
    _arccos_ends,
    _cos_taylor,
    _root_guess,
    _taylor_at,
    _taylor_tables,
    arccos_bounds,
    cos_bounds,
    pi_bounds,
    prepare_arccos_dyadic,
    sqrt_bounds,
    sqrt_lower,
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

    def test_value_semantics(self):
        iv = RationalInterval(rational(1, 3), rational(1, 2))
        assert iv == RationalInterval(rational(2, 6), rational(1, 2))
        assert iv != RationalInterval(rational(1, 3), rational(2, 3))
        assert iv != (rational(1, 3), rational(1, 2))
        assert hash(iv) == hash((rational(1, 3), rational(1, 2)))
        assert repr(iv) == "RationalInterval(lo=Fraction(1, 3), hi=Fraction(1, 2))"
        assert RationalInterval(2, 2) == RationalInterval(rational(2), rational(2))

    def test_immutable(self):
        iv = RationalInterval(rational(1, 3), rational(1, 2))
        with pytest.raises(AttributeError):
            iv.lo = rational(0)
        assert iv.lo == rational(1, 3)


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


class TestSqrtGuess:
    @given(
        num=st.integers(0, 10**6),
        den=st.integers(1, 10**4),
        eps_exp=st.integers(1, 9),
    )
    @example(num=9, den=4, eps_exp=3)  # an exact root
    @settings(max_examples=150, deadline=None)
    def test_guess_brackets_root(self, num, den, eps_exp):
        x, eps = rational(num, den), rational(1, 10**eps_exp)
        r, s, exact = _root_guess(x.numerator, x.denominator, 1, 10**eps_exp)
        guess = rational(r, s)
        assert guess * guess <= x
        top = guess + eps / 2**20
        assert top * top > x
        assert exact == (guess * guess == x)


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
        with pytest.raises(DomainError):
            arccos_bounds(1, 0)

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

        def counting(a, b, p, q):
            calls.append((p, q))
            return _arccos_above(a, b, p, q)

        monkeypatch.setattr(verified, "_arccos_above", counting)
        with pytest.raises(GuessFailedError):
            arccos_bounds(rational(1, 1000), rational(1, 10**18))
        assert len(calls) == 1


class TestDyadicArccosEnds:
    """prepare_arccos_dyadic, the hull walk's arccos ends on a power of two, inside _arccos_ends's."""

    EPS = st.sampled_from([rational(1, 4)] + [rational(1, 10**k) for k in range(3, 16)])

    @given(x=st.fractions(min_value=rational(1, 10**6), max_value=1, max_denominator=10**6), eps=EPS)
    @example(x=rational(1), eps=rational(1, 4))
    @example(x=rational(1, 2), eps=rational(1, 10**15))
    @example(x=rational(1, 10**6), eps=rational(1, 1000))
    @settings(max_examples=300, deadline=None)
    def test_inside_the_window_ends_and_around_the_true_value(self, x, eps):
        args = (x.numerator, x.denominator, eps.numerator, eps.denominator)
        try:
            outer = [rational(*end) for end in _arccos_ends(*args)]
        except GuessFailedError:
            outer = None
        j, ends = prepare_arccos_dyadic(*args[2:])
        dyadic = ends(*args[:2])
        if dyadic is None:  # the caller takes the windows' ends
            return
        lo, hi = (rational(end, 1 << j) for end in dyadic)
        assert outer is not None  # ends farther out verify where nearer ones did (see the module note)
        assert outer[0] <= lo <= hi <= outer[1]
        assert rational_to_mpf(lo) <= mpmath.acos(rational_to_mpf(x)) <= rational_to_mpf(hi)

    @given(
        x=st.fractions(min_value=rational(1, 10**6), max_value=1, max_denominator=10**6),
        eps=st.sampled_from(
            [rational(1, 4), verified._arccos_eps(rational(3, 10)), rational(3, 1000)]
            + [rational(1, 10**k) for k in range(3, 17)]
        ),
    )
    @example(x=rational(1), eps=rational(1, 4))  # guess 0: the lower end is 0
    @example(x=rational(1, 2), eps=rational(3, 1000))  # a numerator other than 1
    @settings(max_examples=300, deadline=None)
    def test_ends_lie_between_three_quarters_of_eps_and_eps_from_the_guess(self, x, eps):
        # decided on integers: with the guess gn/gd, an end p/2^j lies d from
        # it, where d*gd*2^j = |p*gd - gn*2^j|, and eps = en/ed
        en, ed, a, b = eps.numerator, eps.denominator, x.numerator, x.denominator
        j, ends = prepare_arccos_dyadic(en, ed)
        assert en << j > 8 * ed >= en << (j - 1)  # the least j with 2^j > 8/eps
        dyadic = ends(a, b)
        assume(dyadic is not None)  # not the windows' fallback ends
        lo, hi = dyadic
        gn, gd = verified._arccos_guess(a, b)
        unit = en * gd << j  # eps*gd*2^j*ed
        above, below = hi * gd - (gn << j), (gn << j) - lo * gd
        assert 3 * unit <= 4 * ed * above and ed * above <= unit
        assert (lo == 0 or 3 * unit <= 4 * ed * below) and 0 <= ed * below <= unit

    def test_a_guess_off_by_about_eps_falls_back_to_the_windows(self):
        # the double guess of arccos(3508103/10^7) lies 1.27e-16 below it, so at
        # eps = 1/10^16 the dyadic upper end does not verify; this is the term
        # at z = 3508103 of the walked count at lambda 10^7, on its finest rung;
        # the windows' ends, on which the caller then takes the reference
        # bracket, verify
        assert prepare_arccos_dyadic(1, 10**16)[1](3508103, 10**7) is None
        ends = _arccos_ends(3508103, 10**7, 1, 10**16)
        assert ends[1][1] & (ends[1][1] - 1)  # not a power of two

    @given(
        x=st.fractions(min_value=rational(1, 10**6), max_value=1, max_denominator=10**6),
        eps=st.sampled_from([rational(1, 4)] + [rational(1, 10**k) for k in range(1, 17)]),
    )
    @example(x=rational(231, 11393), eps=rational(1, 10**10))  # T12 fails, T28 decides
    @example(x=rational(3508103, 10**7), eps=rational(1, 10**16))  # the dyadic ends do not verify
    @example(x=rational(1), eps=rational(1, 4))  # lo = 0
    @settings(max_examples=300, deadline=None)
    def test_flat_checks_are_the_generic_ones(self, x, eps):
        # ends(a, b) is None exactly where _arccos_above or _arccos_below,
        # on _cos_taylor, rejects the ends the docstring's shifts build
        a, b, en, ed = x.numerator, x.denominator, eps.numerator, eps.denominator
        j, ends = prepare_arccos_dyadic(en, ed)
        guess, scale = rational(*verified._arccos_guess(a, b)), 1 << j
        t = math.floor(eps * scale)
        lo, hi = max(0, math.ceil(guess * scale) - t), math.floor(guess * scale) + t
        verified_ends = _arccos_above(a, b, hi, scale) and _arccos_below(a, b, lo, scale)
        assert ends(a, b) == ((lo, hi) if verified_ends else None)

    @given(n=st.sampled_from(_ABOVE_COS + _BELOW_COS), j=st.integers(3, 60), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_prescaled_horner_sum_is_the_taylor_kernel(self, n, j, data):
        # p/2^j over [0, 4], its ends included: the same numerator and
        # denominator as _cos_taylor's at q = 2^j
        p = data.draw(st.sampled_from([0, 4 << j]) | st.integers(0, 4 << j), label="p")
        above, below = _taylor_tables(j)
        coeffs, den = dict(zip(_ABOVE_COS + _BELOW_COS, above + below))[n]
        assert (_taylor_at(p, coeffs), den) == _cos_taylor(p, 1 << j, n)

    def test_a_walked_count_builds_each_scales_tables_once(self, monkeypatch):
        # the walk's rungs prepare their arccos ends on the scales 2^j they
        # use, each the least with 2^j > 8/eps; the first count builds one
        # table per new scale, at most, and a second count of the same lambda
        # builds none
        scales = set()
        real = curve.prepare_arccos_dyadic

        def prepare(en, ed):
            j, ends = real(en, ed)
            assert en << j > 8 * ed >= en << (j - 1), (en, ed, j)
            scales.add(j)
            return j, ends

        monkeypatch.setattr(curve, "prepare_arccos_dyadic", prepare)
        _taylor_tables.cache_clear()
        lam = rational(70003, 7)
        assert count_weighted(2, BoundKind.NEUMANN, lam).value == 25_007_157
        built = _taylor_tables.cache_info().misses
        assert 0 < built <= len(scales)
        assert count_weighted(2, BoundKind.NEUMANN, lam).value == 25_007_157
        assert _taylor_tables.cache_info().misses == built


class TestOneSidedEnds:
    """sqrt_lower is the matching end of the two-sided bracket."""

    EPS = st.sampled_from([rational(1, 10**k) for k in range(0, 15)] + [rational(1, 4), rational(5, 2)])

    @given(x=st.fractions(min_value=0, max_value=10**6, max_denominator=10**6), eps=EPS)
    @example(x=rational(0), eps=rational(1, 1000))
    @example(x=rational(49, 16), eps=rational(1, 1000))  # exact root
    @settings(max_examples=200, deadline=None)
    def test_sqrt_lower_is_the_bracket_lower_end(self, x, eps):
        assert sqrt_lower(x, eps) == sqrt_bounds(x, eps).lo

    @pytest.mark.parametrize("f, x, error", [(sqrt_lower, -1, NegativeInputError)])
    def test_domain(self, f, x, error):
        with pytest.raises(error):
            f(x, DEFAULT_EPS)
        with pytest.raises(DomainError):
            f(1, 0)


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
        assert _arccos_above(x.numerator, x.denominator, hi.numerator, hi.denominator) == upper
        assert _arccos_below(x.numerator, x.denominator, lo.numerator, lo.denominator) == lower

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

    def test_cache_is_keyed_on_the_integer_parts(self):
        first = pi_bounds(rational(1, 1000))
        assert pi_bounds("2/2000") is first
        assert verified._PI_CACHE[(1, 1000)] is first
        assert pi_bounds(1) is pi_bounds(rational(1))

    @pytest.mark.parametrize("eps", [0, "0", "-1/1000", rational(-3)])
    def test_non_positive_eps_raises_and_is_not_cached(self, eps):
        with pytest.raises(DomainError):
            pi_bounds(eps)
        assert all(num > 0 for num, _ in verified._PI_CACHE)
