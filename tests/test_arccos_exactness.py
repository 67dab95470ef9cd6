"""The integer arccos layer against a Fraction reference of the same construction.

The reference below builds each arccos end the way the layer did before it
moved to integers: a ``Fraction`` guess from the double ``acos``, the
smallest-denominator rational of each window found by ``simplest_in`` on
``Fraction`` endpoints, and the Taylor checks summed as ``Fraction``s.  Every
public end (arccos, pi, and through them the lower count) must be the same
rational as the reference's, and fail where the reference fails.
"""
import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyacert.errors import GuessFailedError
from polyacert.lattice import count_neumann2_certified_lower
from polyacert.rational import simplest_in
from polyacert.verified import (
    _arccos_above,
    _arccos_ends,
    _arccos_upper_end,
    arccos_bounds,
    pi_bounds,
    sqrt_lower,
)

QUARTER = Fraction(1, 4)


def ref_taylor(y: Fraction, n: int) -> Fraction:
    return sum(Fraction((-1) ** k, math.factorial(2 * k)) * y ** (2 * k) for k in range(n // 2 + 1))


def ref_window(x: Fraction, eps: Fraction) -> tuple[Fraction, Fraction]:
    guess = Fraction(math.acos(float(x)))
    eps = min(eps, QUARTER)
    lo = Fraction(0) if guess <= 3 * eps else simplest_in(guess - 3 * eps, guess - eps)
    return lo, simplest_in(guess + eps, guess + 3 * eps)


def ref_above(x: Fraction, hi: Fraction) -> bool:
    return 0 < hi <= 4 and any(ref_taylor(hi, n) < x for n in (12, 28))


def ref_below(x: Fraction, lo: Fraction) -> bool:
    return lo == 0 or any(x < ref_taylor(lo, n) for n in (14, 30))


def ref_pi_bounds(eps: Fraction) -> tuple[Fraction, Fraction]:
    lo, hi = ref_arccos_bounds(Fraction(1, 2), eps)
    return 3 * lo, 3 * hi


def ref_arccos_bounds(x: Fraction, eps: Fraction) -> tuple[Fraction, Fraction]:
    if x == 0:
        lo, hi = ref_pi_bounds(2 * eps / 3)
        return lo / 2, hi / 2
    lo, hi = ref_window(x, eps)
    if not (ref_above(x, hi) and ref_below(x, lo)):
        raise GuessFailedError(f"reference bracket for {x}")
    return lo, hi


def ref_arccos_upper(x: Fraction, eps: Fraction) -> Fraction:
    """The upper end alone, for 0 < x <= 1."""
    hi = ref_window(x, eps)[1]
    if not ref_above(x, hi):
        raise GuessFailedError(f"reference upper end for {x}")
    return hi


def arccos_upper_end(x: Fraction, eps: Fraction) -> Fraction:
    """_arccos_upper_end on the parts of x and of eps capped at 1/4, as a Fraction."""
    eps = min(eps, QUARTER)
    return Fraction(*_arccos_upper_end(x.numerator, x.denominator, eps.numerator, eps.denominator))


def outcome(f, *args):
    try:
        return f(*args)
    except GuessFailedError:
        return GuessFailedError


EPS = st.one_of(
    st.integers(0, 15).map(lambda k: Fraction(1, 10**k)),
    st.fractions(min_value=Fraction(1, 10**15), max_value=1, max_denominator=10**15),
)


class TestArccosEnds:
    @given(x=st.fractions(min_value=0, max_value=1, max_denominator=10**6), eps=EPS)
    @example(x=Fraction(1), eps=Fraction(1, 1000))
    @example(x=Fraction(1, 2), eps=Fraction(1, 1000))
    @example(x=Fraction(1, 10**6), eps=Fraction(1, 1000))
    @example(x=Fraction(1, 2), eps=Fraction(3))  # eps above the 1/4 cap
    @example(x=Fraction(999999, 10**6), eps=Fraction(1, 2))
    @example(x=Fraction(1, 1000), eps=Fraction(1, 10**12))  # the degree-28/30 pair decides
    @settings(max_examples=300, deadline=None)
    def test_same_rationals_as_the_fraction_reference(self, x, eps):
        bracket = outcome(arccos_bounds, x, eps)
        expected = outcome(ref_arccos_bounds, x, eps)
        if expected is GuessFailedError:
            assert bracket is GuessFailedError
        else:
            assert (bracket.lo, bracket.hi) == expected
        if x:
            assert outcome(arccos_upper_end, x, eps) == outcome(ref_arccos_upper, x, eps)

    def test_the_fine_example_needs_the_high_degree_pair(self):
        x, eps = Fraction(1, 1000), Fraction(1, 10**12)
        hi = arccos_bounds(x, eps).hi
        assert not ref_taylor(hi, 12) < x
        assert ref_taylor(hi, 28) < x
        assert _arccos_above(x.numerator, x.denominator, hi.numerator, hi.denominator)

    def test_unnormalised_argument_gives_the_same_ends(self):
        # the lower count passes z/lam unnormalised; the guess and checks must not see it
        eps = Fraction(1, 10**6)
        for x in (Fraction(1, 3), Fraction(231, 11393), Fraction(7, 9)):
            bracket = arccos_bounds(x, eps)
            for k in (1, 7, 10**20):
                lo, hi = _arccos_ends(k * x.numerator, k * x.denominator, eps.numerator, eps.denominator)
                assert (Fraction(*lo), Fraction(*hi)) == (bracket.lo, bracket.hi)


# pi_bounds(1/10**k) for k = 0..15, as built before the arccos layer moved to
# integers.  These are rungs 0 to 15 of the certified floor ladder, which
# starts at rung 3 or finer at the default eps = 1/1000.
PI_TABLE = [
    (0, "3/2", "9/2"),
    (1, "9/4", "4"),
    (2, "28/9", "42/13"),
    (3, "69/22", "63/20"),
    (4, "267/85", "531/169"),
    (5, "333/106", "732/233"),
    (6, "3528/1123", "3927/1250"),
    (7, "24828/7903", "44397/14132"),
    (8, "78078/24853", "117483/37396"),
    (9, "101508/32311", "105768/33667"),
    (10, "103993/33102", "104348/33215"),
    (11, "521030/165849", "729726/232279"),
    (12, "833719/265381", "1459097/464445"),
    (13, "10526013/3350534", "20843685/6634751"),
    (14, "31369698/9985285", "33662514/10715111"),
    (15, "63885804/20335483", "112659963/35860780"),
]


@pytest.mark.parametrize("k, lo, hi", PI_TABLE)
def test_pi_bounds_keep_their_rationals(k, lo, hi):
    eps = Fraction(1, 10**k)
    iv = pi_bounds(eps)
    assert (iv.lo, iv.hi) == (Fraction(lo), Fraction(hi))
    assert (iv.lo, iv.hi) == ref_pi_bounds(eps)


def ref_lower_count(lam: Fraction, eps: Fraction) -> int:
    """The planar Neumann lower count summed term by term from the reference ends."""
    pi_hi = ref_pi_bounds(eps)[1]
    total = 0
    for m in range(math.ceil(lam)):
        if m == 0:
            g = lam / pi_hi
        else:
            root = sqrt_lower(lam * lam - m * m, eps)
            g = (root - m * ref_arccos_upper(Fraction(m) / lam, eps)) / pi_hi
        total += (1 if m == 0 else 2) * max(0, math.floor(g + Fraction(3, 4)))
    return total


# sha256 of the comma-joined counts of _count_pairs(), as the lower count
# gave them before the arccos layer moved to integers
LOWER_COUNT_DIGEST = "811d1628d5f7d70f668e0525a7c95e5335f2d0e061bcae91d2fea4f2273f683b"


def _count_pairs() -> list[tuple[Fraction, Fraction]]:
    rng = random.Random(20240607)
    coarse = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(5, 2), Fraction(3)]
    pairs = []
    for i in range(2100):
        q = rng.randint(1, 40)
        lam = Fraction(rng.randint(1, 24 * q), q)
        eps = rng.choice(coarse) if i % 4 == 0 else Fraction(1, 10 ** rng.randint(1, 9))
        pairs.append((lam, eps))
    return pairs


def test_lower_count_keeps_its_integers():
    pairs = _count_pairs()
    assert sum(eps >= QUARTER for _, eps in pairs) >= 500
    counts = [count_neumann2_certified_lower(lam, eps).value for lam, eps in pairs]
    assert counts == [ref_lower_count(lam, eps) for lam, eps in pairs]
    digest = hashlib.sha256(",".join(map(str, counts)).encode()).hexdigest()
    assert digest == LOWER_COUNT_DIGEST
