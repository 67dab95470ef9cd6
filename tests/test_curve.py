"""Tests for the counting curve, its certified brackets, moments, and margins."""
import hashlib
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st


from polyacert import curve, verified
from polyacert.analysis import a_value, g_moment, weyl_leading
from polyacert.curve import BoundKind, g_bracket, g_lower, g_value, weyl_leading_bounds
from polyacert.errors import BadDimensionError, DomainError, GuessFailedError
from polyacert.lattice import certified_floor_term
from polyacert.rational import as_rational, format_rational, rational, to_float
from polyacert.verified import DEFAULT_EPS, arccos_bounds, pi_bounds, sqrt_bounds, sqrt_lower

mpmath.mp.dps = 50

D = BoundKind.DIRICHLET
N = BoundKind.NEUMANN


def g_high_precision(lam_q, z_q) -> mpmath.mpf:
    """Independent oracle for the curve height on rational inputs.

    lam^2 - z^2 and z/lam are computed exactly as rationals before entering
    mpmath, and the working precision is high enough to survive the
    cancellation between the two terms near z = lam.
    """
    lam_q, z_q = rational(lam_q), rational(z_q)
    if z_q >= lam_q:
        return mpmath.mpf(0)
    with mpmath.workdps(120):
        diff = rational_to_mpf(lam_q * lam_q - z_q * z_q)
        ratio = rational_to_mpf(z_q / lam_q)
        z = rational_to_mpf(z_q)
        return (mpmath.sqrt(diff) - z * mpmath.acos(ratio)) / mpmath.pi


def rational_to_mpf(q) -> mpmath.mpf:
    return mpmath.mpf(int(q.numerator)) / int(q.denominator)


class TestBoundKind:
    def test_shifts(self):
        assert D.shift == rational(1, 4)
        assert N.shift == rational(3, 4)

    def test_from_letter(self):
        assert BoundKind.from_letter("d") is D
        assert BoundKind.from_letter("N") is N
        with pytest.raises(DomainError):
            BoundKind.from_letter("X")


class TestGValue:
    def test_at_origin(self):
        assert g_value(math.pi, 0) == pytest.approx(1.0, abs=1e-15)

    def test_at_endpoint_and_beyond(self):
        assert g_value(5, 5) == 0.0
        assert g_value(5, 7) == 0.0  # zero extension

    def test_interior_value(self):
        expected = float(g_high_precision(2, 1))
        assert g_value(2, 1) == pytest.approx(expected, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            g_value(0, 1)
        with pytest.raises(DomainError):
            g_value(2, -1)

    @given(
        lam=st.floats(0.5, 60),
        frac=st.floats(0, 0.999),
    )
    @settings(max_examples=200, deadline=None)
    def test_scaling(self, lam, frac):
        # fracs within ~1e-3 of 1 are excluded: the subtraction lam^2 - z^2
        # cancels there and double precision only delivers ~1e-8 absolutely
        z = frac * lam
        assert g_value(lam, z) == pytest.approx(lam * g_value(1, z / lam), abs=1e-12)

    def test_endpoint_neighbourhood_is_tiny_and_non_negative(self):
        for lam in (3.0, 41.0):
            just_below = lam * (1 - 1e-15)
            value = g_value(lam, just_below)
            assert 0.0 <= value < 1e-7

    @pytest.mark.parametrize("lam", [2.0, 7.3, 41.0])
    def test_monotone_convex_lipschitz(self, lam):
        zs = [lam * k / 40 for k in range(41)]
        vals = [g_value(lam, z) for z in zs]
        for v0, v1 in zip(vals, vals[1:]):
            assert v0 > v1  # strictly decreasing
        for z0, z1 in zip(zs, zs[1:]):
            # slope bound 1/2
            assert abs(g_value(lam, z0) - g_value(lam, z1)) <= 0.5 * (z1 - z0) + 1e-12
        for z0, z1 in zip(zs, zs[2:]):
            mid = 0.5 * (z0 + z1)
            assert g_value(lam, mid) <= 0.5 * (g_value(lam, z0) + g_value(lam, z1)) + 1e-12


class TestCertifiedBrackets:
    def test_lower_at_origin(self):
        lo = g_lower(3, 0, rational(1, 1000))
        assert to_float(lo) < 3 / math.pi
        assert to_float(lo) > 3 / math.pi - 0.01

    def test_lower_at_endpoint_may_dip_negative(self):
        assert g_lower(3, 3, rational(1, 1000)) <= 0

    def test_interior_bracket(self):
        lam, z = rational(3), rational(1)
        true = g_high_precision(lam, z)
        pad = mpmath.mpf("1e-40")
        for eps in (DEFAULT_EPS, rational(1, 2)):  # 1/2 is above the arccos eps cap of 1/4
            bracket = g_bracket(lam, z, eps)
            assert rational_to_mpf(bracket.lo) <= true + pad
            assert rational_to_mpf(bracket.hi) >= true - pad

    def test_domain(self):
        with pytest.raises(DomainError):
            g_bracket(3, 4, DEFAULT_EPS)  # z > lam
        with pytest.raises(DomainError):
            g_bracket(0, 0, DEFAULT_EPS)

    @given(
        lam_num=st.integers(1, 2000),
        lam_den=st.integers(1, 40),
        z_frac_num=st.integers(0, 100),
        eps_exp=st.integers(2, 6),
    )
    @example(lam_num=7, lam_den=3, z_frac_num=0, eps_exp=3)  # z = 0: the numerator is lam, no arccos
    @example(lam_num=7, lam_den=3, z_frac_num=100, eps_exp=3)  # z = lam: the curve's end
    @settings(max_examples=500, deadline=None)
    def test_certified_dominance(self, lam_num, lam_den, z_frac_num, eps_exp):
        lam = rational(lam_num, lam_den)
        z = lam * z_frac_num / 100
        eps = rational(1, 10**eps_exp)
        bracket = g_bracket(lam, z, eps)
        assert g_lower(lam, z, eps) == bracket.lo
        true = g_high_precision(lam, z)
        pad = mpmath.mpf("1e-35")
        assert rational_to_mpf(bracket.lo) <= true + pad
        assert rational_to_mpf(bracket.hi) >= true - pad


class TestOneSidedLowerEnd:
    """g_lower is g_bracket's lower end, built from the three ends it uses and no others."""

    @given(
        lam=st.fractions(min_value=rational(1, 50), max_value=500, max_denominator=300),
        z_frac=st.fractions(min_value=0, max_value=1, max_denominator=1000),
        eps=st.sampled_from([rational(1, 10**k) for k in range(1, 15)]
                            + [rational(1, 4), rational(1, 3), rational(1, 2), rational(5, 2), rational(3)]),
    )
    @example(lam=rational(7, 3), z_frac=rational(0), eps=rational(1, 1000))  # z = 0: no root, no arccos
    @example(lam=rational(7, 3), z_frac=rational(1), eps=rational(1, 1000))  # z = lam: root 0, arccos 0
    @example(lam=rational(5), z_frac=rational(3, 5), eps=rational(1, 1000))  # radicand 16
    @example(lam=rational(5, 2), z_frac=rational(3, 5), eps=rational(1, 10**6))  # radicand 4
    @example(lam=rational(5), z_frac=rational(3, 5), eps=rational(1, 4))  # exact root, eps at the cap
    @example(lam=rational(13, 2), z_frac=rational(1, 3), eps=rational(3))  # eps far above the cap
    @settings(max_examples=400, deadline=None)
    def test_equals_the_bracket_lower_end(self, lam, z_frac, eps):
        z = lam * z_frac
        try:
            bracket = g_bracket(lam, z, eps)
        except GuessFailedError:
            # an end only the bracket uses may fail; the lower end then
            # either verifies or fails the same way
            try:
                g_lower(lam, z, eps)
            except GuessFailedError:
                pass
            return
        assert g_lower(lam, z, eps) == bracket.lo

    def test_fails_loudly_past_the_guess_accuracy(self):
        # at eps = 1e-18 the double guess cannot seed the arccos upper end
        lam, z, eps = rational(3), rational(1), rational(1, 10**18)
        with pytest.raises(GuessFailedError):
            g_lower(lam, z, eps)
        with pytest.raises(GuessFailedError):
            g_bracket(lam, z, eps)

    def test_an_unverifiable_pi_bracket_fails_after_the_arccos_end(self):
        # at eps = 1e-18 neither arccos(1/3) nor pi = 3*arccos(1/2) verifies:
        # the prepared bracket builds pi once, but raises its error only
        # after the root's and the arccos's ends, as at z = 0
        eps = rational(1, 10**18)
        with pytest.raises(GuessFailedError, match="arccos bracket for 1/3 failed"):
            g_bracket(3, 1, eps)
        with pytest.raises(GuessFailedError, match="arccos bracket for 1/2 failed"):
            g_bracket(3, 0, eps)

    @pytest.mark.parametrize("lam, z, eps", [
        (3, 4, DEFAULT_EPS), (0, 0, DEFAULT_EPS), (3, "-1/2", DEFAULT_EPS), (3, 1, 0), (3, 0, "-1/10"),
        (-1, 0, DEFAULT_EPS), (3, 4, -1), (0, 0, 0),
    ])
    def test_domain_matches_the_bracket(self, lam, z, eps):
        for f in (g_lower, g_bracket):
            with pytest.raises(DomainError):
                f(lam, z, eps)
        # the exact floor term also takes z >= lam >= 0, where G vanishes and
        # the term is floor(shift), but it checks lam >= 0 and eps > 0 first
        lam, z, eps = (as_rational(v) for v in (lam, z, eps))
        if z >= lam >= 0 and eps > 0:
            assert certified_floor_term(lam, z, rational(3, 4), eps) == 0
        else:
            with pytest.raises(DomainError):
                certified_floor_term(lam, z, rational(3, 4), eps)

    def test_does_not_build_the_ends_it_discards(self, monkeypatch):
        eps = rational(1, 10**4)
        pi_bounds(eps)  # pi is shared by both ends and memoised; build it first
        lam, z = rational(40, 3), rational(7, 2)
        root = sqrt_bounds(lam * lam - z * z, eps)
        angle = arccos_bounds(z / lam, eps)

        def discarded(*args):
            raise AssertionError("g_lower built an end of the upper bound")

        built = {"below": [], "above": []}

        def recorded(name, real):
            def wrapper(*args):
                end = real(*args)
                built[name].append(rational(*end))
                return end
            return wrapper

        monkeypatch.setattr(verified, "_square_above", discarded)
        monkeypatch.setattr(verified, "_arccos_below", discarded)
        monkeypatch.setattr(verified, "_window_below", recorded("below", verified._window_below))
        monkeypatch.setattr(verified, "_window_above", recorded("above", verified._window_above))
        lower = g_lower(lam, z, eps)
        # every end of a root or an arccos is picked by one of the two windows:
        # g_lower picks the root's lower end and the arccos's upper end, and
        # neither the root's upper end nor the arccos's lower end
        assert built == {"below": [root.lo], "above": [angle.hi]}
        assert root.hi != root.lo and angle.lo != angle.hi
        with pytest.raises(AssertionError, match="upper bound"):
            g_bracket(lam, z, eps)  # the two-sided path does call the patched helpers
        monkeypatch.undo()
        assert lower == g_bracket(lam, z, eps).lo


# lam^2 - z^2 is a square at these points (z = 0 takes lam itself), and a
# fraction with common factors before reduction at (7/3, 5/3) and (10/3, 2/3)
_EXACT_AND_COMMON = [
    (rational(5), rational(3)), (rational(5), rational(4)), (rational(13), rational(5)),
    (rational(13), rational(12)), (rational(5, 2), rational(2)), (rational(15, 2), rational(9, 2)),
    (rational(7, 3), rational(5, 3)), (rational(10, 3), rational(2, 3)), (rational(7, 3), rational(0)),
    (rational(7, 3), rational(7, 3)),
]
_PINNED_EPS = [rational(1, 10**k) for k in (14, 12, 9, 6, 3, 1)] + [
    rational(3, 50000), rational(1, 4), rational(1, 3), rational(4, 7), rational(1), rational(7, 3),
]


def _pinned_outputs():
    """Lines of sqrt_bounds, sqrt_lower, g_bracket and g_lower over a seeded grid, errors by name."""
    rng = random.Random(23)
    radicands = [rational(0), rational(1), rational(9, 4), rational(144, 25), rational(2), rational(12),
                 rational(10**30 + 1, 7), rational(1, 10**20)]
    radicands += [rational(rng.randint(0, 10**6), rng.randint(1, 10**4)) for _ in range(60)]
    points = list(_EXACT_AND_COMMON)
    for _ in range(25):
        lam = rational(rng.randint(1, 3000), rng.randint(1, 60))
        points.append((lam, lam * rational(rng.randint(0, 120), 120)))

    def show(f, *args):
        try:
            value = f(*args)
        except GuessFailedError as exc:
            return type(exc).__name__
        if isinstance(value, Fraction):
            return format_rational(value)
        return f"{format_rational(value.lo)} {format_rational(value.hi)}"

    lines = []
    for eps in _PINNED_EPS:
        for x in radicands:
            lines.append(f"sqrt {x} {eps}: {show(sqrt_bounds, x, eps)} | {show(sqrt_lower, x, eps)}")
        for lam, z in points:
            lines.append(f"g {lam} {z} {eps}: {show(g_bracket, lam, z, eps)} | {show(g_lower, lam, z, eps)}")
    return lines


class TestIntegerRoots:
    """The square-root ends on plain integers: the same rationals, and no Fraction per term."""

    def test_brackets_keep_their_pinned_rationals(self):
        # 1,236 lines; the digest was taken when the root ends were built
        # from Fraction guesses, before they moved onto integers
        lines = _pinned_outputs()
        assert len(lines) == 1236
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "52cac9f9acdc7d920843d09699a4221b177b8329d93185fc525ea0a4ec491167"

    def test_prepared_terms_build_no_fraction(self, monkeypatch):
        # each prepared per-term core works on integers alone, exact roots too
        # (lam = 5, 13, 5/2 and 15/2 have them); it is prepared before the
        # count starts, as a sum prepares it once
        cases = []
        for lam in (rational(5), rational(13), rational(5, 2), rational(15, 2), rational(40, 3), rational(1003, 7)):
            grid = [(zn, zd) for zd in (1, 2, 3) for zn in range(lam.numerator * zd // lam.denominator + 1)]
            for eps in (DEFAULT_EPS, rational(1, 10**9), rational(1, 3), rational(7, 3)):
                for prepare in (curve.prepare_g_lower, curve.prepare_g_bracket, curve.prepare_g_floor_ends):
                    cases.append((prepare(lam, eps), grid))
        real = Fraction.__new__
        built = []

        def counted(cls, *args, **kwargs):
            built.append(args)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
        terms = 0
        for term, grid in cases:
            for zn, zd in grid:
                term(zn, zd)
                terms += 1
        monkeypatch.undo()
        assert terms > 3000
        assert built == []


class TestMoments:
    def test_beta_zero_closed_form(self):
        assert g_moment(3, 0) == 9 / 8
        assert g_moment(7, 0) == 49 / 8

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0, 3.5])
    @pytest.mark.parametrize("lam", [1.0, 7.0])
    def test_against_quadrature(self, beta, lam):
        # tanh-sinh quadrature handles the square-root endpoint behaviour;
        # scipy.integrate.quad stalls near 1e-9 there
        with mpmath.workdps(30):
            value = mpmath.quad(
                lambda z: z**beta * (mpmath.sqrt(lam * lam - z * z) - z * mpmath.acos(z / lam)),
                [0, lam],
            ) / mpmath.pi
            assert g_moment(lam, beta) == pytest.approx(float(value), abs=1e-10)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_duplication_identity(self, d):
        lam = 3.7
        lhs = 2 / math.factorial(d - 2) * g_moment(lam, d - 2)
        assert lhs == pytest.approx(weyl_leading(d, lam), rel=1e-12)


class TestWeyl:
    def test_planar(self):
        assert weyl_leading(2, 3) == pytest.approx(9 / 4, rel=1e-15)

    def test_three_dimensional(self):
        assert weyl_leading(3, 2) == pytest.approx(2 * 8 / (9 * math.pi), rel=1e-14)

    def test_four_dimensional(self):
        assert weyl_leading(4, 2) == pytest.approx(16 / 64, rel=1e-15)

    def test_bad_dimension(self):
        with pytest.raises(BadDimensionError):
            weyl_leading(1, 3)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_bounds_domain(self, d):
        # eps is checked in every dimension, not only where pi enters
        for eps in (-1, 0):
            with pytest.raises(DomainError, match="eps must be positive"):
                weyl_leading_bounds(d, 3, eps)
        with pytest.raises(TypeError, match="refusing implicit float"):
            weyl_leading_bounds(d, 3, 1.5)
        with pytest.raises(DomainError):
            weyl_leading_bounds(d, -1, DEFAULT_EPS)

    def test_bounds_even_exact(self):
        iv = weyl_leading_bounds(4, rational(2), DEFAULT_EPS)
        assert iv.lo == iv.hi == rational(1, 4)

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_bounds_odd_bracket_true_value(self, d):
        lam = rational(7, 2)
        iv = weyl_leading_bounds(d, lam, DEFAULT_EPS)
        true = weyl_leading(d, 3.5)
        assert to_float(iv.lo) <= true <= to_float(iv.hi)
        assert to_float(iv.lo) > 0.99 * true

    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("eps", [rational(1, 2), rational(1), rational(100)])
    def test_bounds_odd_at_coarse_eps(self, d, eps):
        # the pi bracket's lower end stays positive however coarse eps is
        iv = weyl_leading_bounds(d, rational(7, 2), eps)
        assert to_float(iv.lo) <= weyl_leading(d, 3.5) <= to_float(iv.hi)


class TestAValue:
    def test_a_value_cases(self):
        assert a_value(D, 5, 3) == 0.25
        assert a_value(N, 0, math.pi) == pytest.approx(1.75, abs=1e-14)
        assert a_value(D, 5, 5) == 0.25
