"""Tests for the exact rational layer and the smallest-denominator search."""
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyacert
from polyacert.rational import (
    RATIONAL_BACKEND,
    as_rational,
    format_rational,
    parse_rational,
    rat_ceil,
    rat_floor,
    rational,
    simplest_in,
)


def brute_force_simplest(lo: Fraction, hi: Fraction, max_den: int = 200) -> Fraction:
    """Independent oracle: scan denominators upward, numerators by |p| then value."""
    for q in range(1, max_den + 1):
        lo_p = -((-lo.numerator * q) // lo.denominator)  # ceil(lo*q)
        hi_p = (hi.numerator * q) // hi.denominator  # floor(hi*q)
        if lo_p <= hi_p:
            p = min(range(lo_p, hi_p + 1), key=lambda t: (abs(t), t))
            return Fraction(p, q)
    raise AssertionError("no rational with denominator <= max_den")


class TestBackend:
    def test_one_rational_type(self):
        assert type(rational(1, 3)) is Fraction
        assert type(parse_rational("1/3")) is Fraction
        assert type(as_rational(2)) is Fraction
        assert RATIONAL_BACKEND == "fractions"

    @pytest.mark.parametrize("backend", ["gmpy2", "bogus"])
    def test_backend_variable_is_ignored(self, backend):
        src = str(Path(polyacert.__file__).resolve().parents[1])
        env = dict(os.environ, POLYACERT_BACKEND=backend,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", "import polyacert.cli"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_arithmetic_is_exact(self):
        third = rational(1, 3)
        assert third + third + third == 1
        assert rational(10, 4) == rational(5, 2)

    def test_floor_and_ceil(self):
        assert rat_floor(rational(7, 2)) == 3
        assert rat_floor(rational(-7, 2)) == -4
        assert rat_ceil(rational(7, 2)) == 4
        assert rat_ceil(rational(-7, 2)) == -3
        assert rat_floor(rational(4)) == rat_ceil(rational(4)) == 4


class TestSerialization:
    def test_format(self):
        assert format_rational(rational(-45, 13)) == "-45/13"
        assert format_rational(rational(7)) == "7"
        assert format_rational(rational(6, 3)) == "2"

    @pytest.mark.parametrize("text", ["3", "-3", "45/13", "-45/13", "0", "+7/2"])
    def test_round_trip(self, text):
        value = parse_rational(text)
        assert parse_rational(format_rational(value)) == value

    @pytest.mark.parametrize("bad", ["", "abc", "1.5", "3/0", "1/-2", "2/3/4", "\u0663/\u0664", "\uff13"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @pytest.mark.parametrize("bad", ["3/4\u3000", "\u20073/4", "\u30003/4\u3000", "3/4\x1c"])
    def test_rejects_non_ascii_whitespace(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @pytest.mark.parametrize("text", [" 3/4 ", "\t3/4\n", "3/4\r\n"])
    def test_ascii_whitespace_pads(self, text):
        assert parse_rational(text) == rational(3, 4)

    def test_as_rational_rejects_float(self):
        with pytest.raises(TypeError):
            as_rational(0.1)

    def test_as_rational_accepts_fraction_and_str(self):
        assert as_rational(Fraction(3, 4)) == rational(3, 4)
        assert as_rational("3/4") == rational(3, 4)
        assert as_rational(5) == rational(5)


class TestSimplestIn:
    def test_integer_endpoint(self):
        assert simplest_in(rational(2), rational(5, 2)) == 2

    def test_half_in_short_interval(self):
        assert simplest_in(rational(1, 3), rational(1, 2)) == rational(1, 2)

    def test_tight_interval(self):
        # brute force over denominators 1..36 confirms 5/36 is minimal
        expected = brute_force_simplest(Fraction(69, 500), Fraction(71, 500))
        assert expected == Fraction(5, 36)
        assert simplest_in(rational(69, 500), rational(71, 500)) == rational(5, 36)

    def test_zero_crossing(self):
        assert simplest_in(rational(-1, 7), rational(1, 9)) == 0

    def test_negative_mirror(self):
        assert simplest_in(rational(-5, 2), rational(-2)) == -2

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            simplest_in(rational(1, 2), rational(1, 3))

    @given(
        num=st.integers(-500, 500),
        den=st.integers(1, 50),
    )
    @settings(max_examples=150, deadline=None)
    def test_idempotent_on_points(self, num, den):
        r = rational(num, den)
        assert simplest_in(r, r) == r

    @given(
        a_num=st.integers(-400, 400),
        a_den=st.integers(1, 50),
        w_num=st.integers(0, 120),
        w_den=st.integers(1, 50),
    )
    @settings(max_examples=300, deadline=None)
    def test_minimality_vs_brute_force(self, a_num, a_den, w_num, w_den):
        lo = Fraction(a_num, a_den)
        hi = lo + Fraction(w_num, w_den)
        got = simplest_in(rational(a_num, a_den), rational(hi.numerator, hi.denominator))
        expected = brute_force_simplest(lo, hi)
        assert got == expected
