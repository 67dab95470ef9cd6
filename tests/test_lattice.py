"""Tests for weighted counts, dimension reduction, sectors, and counting harnesses."""
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyacert import curve, lattice
from polyacert.cli import main
from polyacert.curve import BoundKind, g_bracket, g_lower
from polyacert.analysis import count_weighted_oracle, sector_lattice_bound_oracle
from polyacert.errors import (
    BadDimensionError,
    DomainError,
    GuessFailedError,
    IrrationalApertureError,
    UnresolvedFloorError,
)
from polyacert.lattice import (
    Rigor,
    certified_floor_term,
    count_dirichlet_dim_reduction,
    count_neumann2_certified_lower,
    count_weighted,
    kappa,
    sector_lattice_bound,
)
from polyacert.rational import rat_floor, rational
from polyacert.verified import DEFAULT_EPS, RationalInterval

D = BoundKind.DIRICHLET
N = BoundKind.NEUMANN


def _bracket_seam(monkeypatch, bracket):
    """Give every floor test its brackets from bracket(lam, z, eps) -> RationalInterval.

    The floor tests take their brackets once per rung, the walk's through
    lattice.prepare_g_floor_ends and the one-shot certified_floor_term's
    through lattice.prepare_g_bracket; this routes both builders to bracket.
    """

    def prepare(lam, eps):
        def ends(zn, zd):
            b = bracket(lam, rational(zn, zd), eps)
            return (b.lo.numerator, b.lo.denominator), (b.hi.numerator, b.hi.denominator)

        return ends

    monkeypatch.setattr(lattice, "prepare_g_bracket", prepare)
    monkeypatch.setattr(lattice, "prepare_g_floor_ends", prepare)


def _watch_floor_tests(monkeypatch, asked):
    """Append the abscissa of every point test of the hull walk (prepare_floor_term) to asked."""
    real = lattice.prepare_floor_term

    def prepare(lam, shift, eps):
        floor = real(lam, shift, eps)

        def watched(zn, zd):
            asked.append(rational(zn, zd))
            return floor(zn, zd)

        return watched

    monkeypatch.setattr(lattice, "prepare_floor_term", prepare)


class TestKappa:
    def test_planar_weights(self):
        assert kappa(2, 0) == 1
        assert all(kappa(2, m) == 2 for m in range(1, 10))

    def test_three_dimensional_closed_form(self):
        assert kappa(3, 4) == 9
        assert all(kappa(3, m) == 2 * m + 1 for m in range(12))

    def test_unit_at_zero(self):
        assert all(kappa(d, 0) == 1 for d in range(2, 9))

    def test_positive(self):
        assert all(kappa(d, m) >= 1 for d in range(2, 8) for m in range(25))

    def test_bad_dimension(self):
        with pytest.raises(BadDimensionError):
            kappa(1, 3)


class TestCountWeighted:
    def test_neumann_vanishes_below_quarter_pi(self):
        assert count_weighted(2, N, rational(3, 4)).value == 0

    def test_neumann_at_three(self):
        result = count_weighted(2, N, 3)
        assert result.value == 3
        assert result.rigor is Rigor.CERTIFIED_EXACT

    def test_dirichlet_at_three(self):
        assert count_weighted(2, D, 3).value == 1

    def test_neumann_restricted_to_planar(self):
        with pytest.raises(BadDimensionError):
            count_weighted(3, N, 5)

    def test_zero_lambda(self):
        assert count_weighted(2, D, 0).value == 0
        assert count_weighted(2, N, 0).value == 0

    def test_matches_oracle_on_grid(self):
        for kind in (D, N):
            for k in range(1, 41):
                lam = rational(k, 4)
                exact = count_weighted(2, kind, lam).value
                approx = count_weighted_oracle(2, kind, k / 4).value
                assert exact == approx, (kind, lam)

    def test_coarse_eps_whose_pi_bracket_starts_at_zero(self):
        # eps = 1/2 is above the arccos eps cap of 1/4, so the rung-0 bracket
        # is built at 1/4, where the pi lower bound is 3/2; it must still be usable
        for kind in (D, N):
            for k in (1, 2, 7, 20):
                lam = rational(k, 7)
                exact = count_weighted(2, kind, lam, rational(1, 2)).value
                assert exact == count_weighted_oracle(2, kind, k / 7).value, (kind, lam)

    def test_monotone_in_lambda(self):
        for kind in (D, N):
            previous = -1
            for k in range(1, 61):
                value = count_weighted(2, kind, rational(k, 4)).value
                assert value >= previous
                previous = value

    def test_term_decided_past_twelve_rungs_below_eps(self):
        # G + 3/4 = 1627003.99999999880... (mpmath, 60 digits): decided at
        # accuracy 1/10^16, 13 decades below the default eps
        assert certified_floor_term(10**7, 3508103, rational(3, 4)) == 1627003

    def test_term_near_an_integer_refines_to_the_last_rung(self):
        # a floor term so close to an integer that it needs a bracket at
        # eps ~ 1e-15, below what the degree-12/14 Taylor sandwich verifies
        lam = rational(11393, 11)
        exact = count_weighted(2, N, lam).value
        assert exact == count_weighted_oracle(2, N, 11393 / 11).value == 268676


class TestStartRung:
    """lattice._start_rung picks the first rung of the floor ladder from lam and eps; it must never change a count."""

    @staticmethod
    def _counts():
        return (
            [count_weighted(2, kind, rational(k, 4)).value for kind in (D, N) for k in range(1, 41)]
            + [count_weighted(3, D, rational(k, 2)).value for k in range(1, 13)]
            + [count_dirichlet_dim_reduction(4, rational(k, 2)).value for k in range(1, 9)]
            + [sector_lattice_bound(N, rational(1, 3), rational(k, 2)).value for k in range(1, 13)]
            + [count_weighted(2, N, rational(11393, 11)).value]  # walked
        )

    @pytest.fixture(scope="class")
    def expected(self):
        return self._counts()

    # rungs 3 to 15 are the default eps, 1/1000, and the 12 decades below it
    @pytest.mark.parametrize("rung", range(16))
    def test_any_start_rung_leaves_counts_unchanged(self, monkeypatch, expected, rung):
        monkeypatch.setattr(lattice, "_start_rung", lambda lam, eps: rung)
        assert self._counts() == expected

    def test_unverifiable_start_rung_is_passed_over(self, monkeypatch):
        # a start rung whose brackets do not verify costs one failed try per
        # term; the next rung decides it
        eps = rational(1, 10**10)
        lam, shift = rational(37, 4), rational(3, 4)
        expected = [certified_floor_term(lam, rational(m), shift, eps) for m in range(10)]
        start = lattice._ACCURACIES[lattice._start_rung(lam, eps)]
        failed = []

        def failing_at_the_start(lam, z, accuracy):
            if accuracy == start:
                failed.append(z)
                raise GuessFailedError(f"no bracket at {accuracy}")
            return g_bracket(lam, z, accuracy)

        _bracket_seam(monkeypatch, failing_at_the_start)
        assert [certified_floor_term(lam, rational(m), shift, eps) for m in range(10)] == expected
        assert failed == [rational(m) for m in range(10)]

    @settings(max_examples=60, deadline=None)
    @given(
        lam=st.builds(rational, st.integers(1, 10**9), st.integers(1, 1000)),
        eps=st.builds(rational, st.integers(1, 1000), st.integers(1, 10**42)),
    )
    @example(lam=rational(1, 16), eps=rational(1))  # 16*lam = 1: rung 0
    @example(lam=rational(1000, 16), eps=rational(7, 3))  # 16*lam = 10^3: rung 3
    @example(lam=rational(1), eps=rational(1, 10**40))  # past the finest rung
    def test_start_rung_is_the_coarsest_at_most_eps_and_a_sixteenth_of_one_over_lam(self, lam, eps):
        rung = lattice._start_rung(lam, eps)
        finest = len(lattice._ACCURACIES) - 1
        accuracy, bound = rational(1, 10**rung), min(eps, 1 / (16 * lam))
        assert lattice._ACCURACIES[rung] == accuracy
        assert rung == finest or accuracy <= bound
        assert rung == 0 or 10 * accuracy > bound

    @pytest.mark.parametrize("kind", [D, N])
    def test_a_lambda_below_every_double_is_counted(self, kind, capsys):
        lam = rational(1, 10**400)  # float(lam) is 0.0
        assert lattice._start_rung(lam, DEFAULT_EPS) == 3  # eps's own rung, 1/1000
        assert certified_floor_term(lam, 0, kind.shift) == 0
        assert count_weighted(2, kind, lam).value == 0  # one term, summed term by term
        assert lattice._convex_floor_sum(lam, rational(1), kind.shift, DEFAULT_EPS, 2) == 0  # walked
        assert sector_lattice_bound(kind, 1, lam).value == 0
        assert main(["count", "--kind", kind.value, "--lambda", f"1/{10**400}"]) == 0
        assert " value=0 " in capsys.readouterr().out

    @pytest.mark.parametrize("kind", [D, N])
    @pytest.mark.parametrize("eps", [rational(1, 10**3), rational(1, 10**6)], ids=["1e-3", "1e-6"])
    def test_start_rung_brackets_are_at_most_an_eighth_wide(self, kind, eps):
        # every seventh column of count_weighted(2, kind, lam), lam log-uniform
        # in [1, 10^4]: start rungs 3 to 5 at eps 1e-3 and 6 at 1e-6, brackets
        # up to 0.84 of the bound
        rng = random.Random(f"start-rung-{kind.value}")
        for _ in range(8):
            den = rng.randint(1, 100)
            lam = rational(round(10 ** rng.uniform(0, 4) * den), den)
            ends = curve.prepare_g_floor_ends(lam, lattice._ACCURACIES[lattice._start_rung(lam, eps)])
            for m in range(0, rat_floor(lam) + 1, 7):
                (lo_n, lo_d), (hi_n, hi_d) = ends(m, 1)
                assert 8 * (hi_n * lo_d - lo_n * hi_d) <= lo_d * hi_d, (lam, eps, m)

    def test_exact_counts_do_not_depend_on_eps(self):
        # eps only picks where the ladder starts, here from above the arccos
        # eps cap (7/3) down to 1/10^10
        rng = random.Random("eps-invariance")

        def lam(top, max_den):
            den = rng.randint(1, max_den)
            return rational(rng.randint(1, top * den), den)

        counts = (
            [lambda eps, lam=lam(700, 50), kind=kind: count_weighted(2, kind, lam, eps) for kind in (D, N) * 3]
            + [lambda eps, lam=lam(40, 20), d=d: count_weighted(d, D, lam, eps) for d in (3, 4, 5) for _ in range(2)]
            + [
                lambda eps, lam=lam(300, 30), a=rng.choice(_APERTURES), kind=kind: sector_lattice_bound(kind, a, lam, eps)
                for kind in (D, N) * 2
            ]
            + [lambda eps, lam=lam(12, 10), d=d: count_dirichlet_dim_reduction(d, lam, eps) for d in (3, 4, 5)]
        )
        expected = [count(DEFAULT_EPS).value for count in counts]
        for eps in (rational(7, 3), rational(1, 4), rational(3, 50000), rational(1, 10**6), rational(1, 10**10)):
            assert [count(eps).value for count in counts] == expected, eps


class TestFloorGiveUp:
    """certified_floor_term gives up loudly, with one error, once every rung of the floor ladder has been tried."""

    @staticmethod
    def straddling(seen):
        # G + 1/4 within eps of 1 on both sides, whatever the rung
        def bracket(lam, z, eps):
            seen.append(eps)
            return RationalInterval(rational(3, 4) - eps, rational(3, 4) + eps)

        return bracket

    def test_bracket_straddling_on_every_rung_is_unresolved(self, monkeypatch):
        seen = []
        _bracket_seam(monkeypatch, self.straddling(seen))
        eps, z, shift = rational(1, 1000), rational(1), rational(1, 4)
        with pytest.raises(UnresolvedFloorError) as info:
            certified_floor_term(rational(3), z, shift, eps)
        finest = lattice._ACCURACIES[-1]
        # in one direction, from eps's own rung to the finest, each rung once
        assert seen == [rational(1, 10**rung) for rung in range(3, len(lattice._ACCURACIES))]
        assert info.value.abscissa == z
        assert info.value.interval == (1 - finest, 1 + finest)  # the finest bracket plus the shift
        assert info.value.__cause__ is None

    @pytest.mark.parametrize(
        "count",
        [
            pytest.param(lambda: certified_floor_term(rational(3), rational(1), rational(3, 4)), id="one-shot"),
            pytest.param(lambda: count_weighted(2, N, rational(3)), id="term-by-term"),
            pytest.param(lambda: lattice._convex_floor_sum(rational(3), rational(1), N.shift, DEFAULT_EPS), id="walked"),
        ],
    )
    def test_guess_failing_on_every_rung_is_unresolved_from_the_first_failure(self, monkeypatch, count):
        raised = []

        def failing(lam, z, eps):
            raised.append(GuessFailedError(f"no bracket at eps={eps}"))
            raise raised[-1]

        _bracket_seam(monkeypatch, failing)
        with pytest.raises(UnresolvedFloorError) as info:
            count()
        assert info.value.interval is None  # no rung verified
        assert "no bracket verified after all refinements" in str(info.value)
        assert info.value.__cause__ is raised[0]
        assert len(raised) == len(lattice._ACCURACIES) - 3  # rungs 3 to 30, each once

    def test_unresolved_term_keeps_the_finest_verified_bracket(self, monkeypatch):
        # rungs 3 to 9 straddle, the finer ones do not verify
        raised = []

        def straddling_then_failing(lam, z, eps):
            if eps < rational(1, 10**9):
                raised.append(GuessFailedError(f"no bracket at eps={eps}"))
                raise raised[-1]
            return RationalInterval(rational(3, 4) - eps, rational(3, 4) + eps)

        _bracket_seam(monkeypatch, straddling_then_failing)
        with pytest.raises(UnresolvedFloorError) as info:
            certified_floor_term(rational(3), rational(1), rational(1, 4))
        finest = rational(1, 10**9)
        assert info.value.interval == (1 - finest, 1 + finest)
        assert info.value.__cause__ is raised[0]
        assert len(raised) == len(lattice._ACCURACIES) - 10

    def test_count_command_reports_the_unresolved_term(self, monkeypatch, capsys):
        _bracket_seam(monkeypatch, self.straddling([]))
        code = main(["count", "--lambda", "3"])
        assert code == 2
        assert capsys.readouterr().err.startswith("unresolved floor term: ")


_APERTURES = [rational(1), rational(1, 3), rational(1, 2), rational(3, 2), rational(2), rational(2, 7)]


def _term_by_term(lam, a, shift, eps=DEFAULT_EPS, start=0):
    """lattice._convex_floor_sum of a sector, summed term by term."""
    return sum(certified_floor_term(lam, rational(m) / a, shift, eps) for m in range(start, rat_floor(a * lam) + 1))


# (label, count, lambda): sums of 256 terms or more, which are walked, at
# lambda in [256, 1200] with denominators up to 100; the last three lie in
# large_lambda's range with large denominators, and one term of 11393/11 is
# decided only by a bracket at eps = 1e-10, past the degree-12/14 sandwich
_WALKED_CASES = [
    ("weighted-D", lambda lam: count_weighted(2, D, lam).value, rational(19817, 30)),
    ("weighted-D", lambda lam: count_weighted(2, D, lam).value, rational(13578, 49)),
    ("weighted-N", lambda lam: count_weighted(2, N, lam).value, rational(5899, 5)),
    ("weighted-N", lambda lam: count_weighted(2, N, lam).value, rational(541, 2)),
    ("weighted-3D", lambda lam: count_weighted(3, D, lam).value, rational(5621, 18)),
    ("sector-D", lambda lam: sector_lattice_bound(D, rational(1, 3), lam).value, rational(1003)),
    ("sector-N", lambda lam: sector_lattice_bound(N, rational(1, 2), lam).value, rational(47104, 63)),
    ("weighted-N", lambda lam: count_weighted(2, N, lam).value, rational(11393, 11)),
    ("weighted-D", lambda lam: count_weighted(2, D, lam).value, rational(100003, 97)),
    ("weighted-N", lambda lam: count_weighted(2, N, lam).value, rational(67891, 93)),
]


class TestConvexWalk:
    """lattice._convex_floor_sum, the hull walk behind long weighted and sector counts."""

    @settings(max_examples=25, deadline=None)
    @given(
        lam=st.fractions(min_value=0, max_value=1500, max_denominator=100),
        a=st.sampled_from(_APERTURES),
        shift=st.sampled_from([D.shift, N.shift]),
    )
    @example(lam=rational(1, 2), a=rational(1), shift=N.shift)  # one column
    @example(lam=rational(2, 3), a=rational(2), shift=D.shift)
    @example(lam=rational(300), a=rational(1), shift=D.shift)  # the last column ends the curve
    @example(lam=rational(5), a=rational(1), shift=D.shift)  # 5^2 - 3^2 and 5^2 - 4^2 are squares
    @example(lam=rational(600), a=rational(1), shift=N.shift)  # see test_pi_over_three_cut_off
    def test_equals_the_term_by_term_sum(self, lam, a, shift):
        assert lattice._convex_floor_sum(lam, a, shift, DEFAULT_EPS) == _term_by_term(lam, a, shift)

    def test_pi_over_three_cut_off_is_not_proved_and_costs_only_tests(self, monkeypatch):
        # arccos(300/600) = pi/3 exactly, so no bracket proves the slope-1/3 cut-off there
        real, asked = lattice._arccos_at_most_pi_times, []

        def recording(xn, xd, sn, sd, eps):
            proved = real(xn, xd, sn, sd, eps)
            asked.append((rational(xn, xd), rational(sn, sd), proved))
            return proved

        monkeypatch.setattr(lattice, "_arccos_at_most_pi_times", recording)
        lam = rational(600)
        assert lattice._convex_floor_sum(lam, rational(1), N.shift, DEFAULT_EPS) == _term_by_term(lam, 1, N.shift)
        assert (rational(1, 2), rational(1, 3), False) in asked
        assert any(proved for _, _, proved in asked)

    @pytest.mark.parametrize(
        "lam,a,shift",
        [
            (rational(1000), rational(1), D.shift),
            (rational(20011, 20), rational(1), N.shift),
            (rational(3001, 7), rational(2), N.shift),
            (rational(4001, 5), rational(1, 3), D.shift),
            (rational(1201, 3), rational(2, 7), N.shift),
        ],
    )
    def test_counts_without_a_proved_cut_off_are_unchanged(self, monkeypatch, lam, a, shift):
        walked = lattice._convex_floor_sum(lam, a, shift, DEFAULT_EPS)
        monkeypatch.setattr(lattice, "_arccos_at_most_pi_times", lambda xn, xd, sn, sd, eps: False)
        assert lattice._convex_floor_sum(lam, a, shift, DEFAULT_EPS) == walked

    @pytest.mark.parametrize(
        "kind,d,count",
        [
            pytest.param(D, 2, lambda lam: count_weighted(2, D, lam), id="weighted-D"),
            pytest.param(N, 2, lambda lam: count_weighted(2, N, lam), id="weighted-N"),
            pytest.param(N, 2, lambda lam: sector_lattice_bound(N, rational(1), lam), id="sector-N"),
            pytest.param(D, 3, lambda lam: count_weighted(3, D, lam), id="weighted-3D"),
        ],
    )
    def test_an_unresolved_walk_raises_as_the_term_by_term_sum(self, monkeypatch, kind, d, count):
        real, shift = g_bracket, kind.shift
        first = lattice._weighted_abscissa(d, 0)  # column 0: z = 0 in the plane, 1/2 for d = 3

        def straddling_at_column_zero(lam, z, eps):  # G + shift straddles 5 on every rung
            if z == first:
                return RationalInterval(5 - shift - eps, 5 - shift + eps)
            return real(lam, z, eps)

        _bracket_seam(monkeypatch, straddling_at_column_zero)
        lam = rational(300)
        with pytest.raises(UnresolvedFloorError) as serial:
            for m in lattice._weighted_indices(d, lam):
                certified_floor_term(lam, lattice._weighted_abscissa(d, m), shift)
        with pytest.raises(UnresolvedFloorError) as walked:
            count(lam)
        assert walked.value.abscissa == serial.value.abscissa == first
        assert walked.value.interval == serial.value.interval

    def test_dirichlet_sector_walk_tests_no_point_at_z_zero(self, monkeypatch):
        # the Dirichlet sector sum starts at m = 1, so does its walk
        asked = []
        _watch_floor_tests(monkeypatch, asked)
        a, lam = rational(1, 3), rational(1003)
        total = sector_lattice_bound(D, a, lam).value
        assert asked and 0 not in asked
        monkeypatch.undo()
        assert total == _term_by_term(lam, a, D.shift, start=1)

    def test_an_unresolved_walk_is_not_rerun(self, monkeypatch):
        # the last column the walk tests below lam straddles an integer on
        # every rung: the count raises there, after fewer floor calls than
        # it has columns, so no column is decided twice
        real_bracket, calls = g_bracket, []
        _watch_floor_tests(monkeypatch, calls)
        lam = rational(601, 2)
        columns = len(lattice._weighted_indices(2, lam))
        count_weighted(2, D, lam)
        bad = max(z for z in calls if z < lam)
        assert bad > 0 and len(calls) < columns

        def straddling_at_bad(lam, z, eps):  # G + 1/4 straddles an integer on every rung
            if z == bad:
                return RationalInterval(5 - D.shift - eps, 5 - D.shift + eps)
            return real_bracket(lam, z, eps)

        _bracket_seam(monkeypatch, straddling_at_bad)
        calls.clear()
        with pytest.raises(UnresolvedFloorError) as info:
            count_weighted(2, D, lam)
        assert info.value.abscissa == bad
        assert len(calls) == len(set(calls)) < columns

    @pytest.mark.parametrize("kind", [D, N])
    def test_long_sum_makes_few_floor_calls_in_little_memory(self, monkeypatch, kind):
        calls = []
        _watch_floor_tests(monkeypatch, calls)
        tracemalloc.start()
        try:
            lattice._convex_floor_sum(rational(70003, 7), rational(1), kind.shift, DEFAULT_EPS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(calls) == len(set(calls)) < 2000  # of 10,001 terms, each column once
        assert peak < 512 * 2**10, peak

    def test_a_walked_count_prepares_once(self, monkeypatch):
        # the floor test builds one pi bracket per rung it uses, and the slope
        # proofs one per eps they try, the count's and _SLOPE_EPS; term by
        # term, every bracket asked for its own
        asked = {curve: [], lattice: []}
        for module, calls in asked.items():
            real = module.pi_bounds
            monkeypatch.setattr(module, "pi_bounds", lambda eps, real=real, calls=calls: calls.append(eps) or real(eps))
        assert count_weighted(2, N, rational(70003, 7)).value == 25_007_157
        rungs = asked[curve]
        assert 0 < len(rungs) == len(set(rungs)) <= len(lattice._ACCURACIES)
        assert asked[lattice] == [DEFAULT_EPS, lattice._SLOPE_EPS]

    def test_slope_proofs_retried_at_their_own_eps_keep_the_walk_short(self, monkeypatch):
        # at the count's eps alone the slope proofs fail deep in the walk,
        # and the walk tested 12,196 points here
        asked = []
        _watch_floor_tests(monkeypatch, asked)
        assert count_weighted(2, N, 10**5).value == 2_500_049_851
        assert len(asked) <= 8000

    def test_walked_count_with_a_once_unverifiable_term(self):
        assert count_weighted(2, N, rational(11393, 11)).value == 268676

    @pytest.mark.parametrize(
        "count,lam", [pytest.param(c, lam, id=f"{label}-{lam}") for label, c, lam in _WALKED_CASES]
    )
    def test_walked_equals_term_by_term(self, monkeypatch, count, lam):
        walked = count(lam)
        # no sum is long enough to walk: the count is summed term by term
        monkeypatch.setattr(lattice, "_WALK_MIN_TERMS", 10**9)
        assert count(lam) == walked

    @settings(max_examples=20, deadline=None)
    @given(d=st.integers(3, 6), lam=st.fractions(min_value=0, max_value=1500, max_denominator=100))
    @example(d=6, lam=rational(1, 2))  # an empty sum
    @example(d=3, lam=rational(601, 2))  # 301 terms
    @example(d=4, lam=rational(1000))
    def test_weighted_walk_equals_the_term_by_term_sum(self, d, lam):
        shift = D.shift
        expected = sum(
            kappa(d, m) * certified_floor_term(lam, lattice._weighted_abscissa(d, m), shift)
            for m in lattice._weighted_indices(d, lam)
        )
        assert lattice._convex_floor_sum(lam, rational(1), shift, DEFAULT_EPS, d) == expected
        assert count_weighted(d, D, lam).value == expected

    def test_weight_prefix_is_the_sum_of_the_weights(self):
        for d in range(2, 9):
            for n in range(60):
                assert lattice._weight_below(d, n) == sum(kappa(d, m) for m in range(n)), (d, n)
        assert all(lattice._weight_below(None, n) == n for n in range(60))

    @pytest.mark.parametrize("d", [None, 2, 3, 4, 5, 6])
    def test_step_sum_is_the_weighted_sum_along_the_edge(self, d):
        weight = (lambda m: 1) if d is None else (lambda m: kappa(d, m))
        for q in range(1, 12):
            for p in range(12):
                if math.gcd(q, p) != 1:
                    continue
                for x in (0, 1, 7):
                    direct = sum(weight(x + j) * (40 - p * j // q) for j in range(q))
                    assert lattice._step_sum(d, x, 40, q, p) == direct, (q, p, x)

    @pytest.mark.parametrize("walk", [True, False], ids=["walked", "term-by-term"])
    def test_terms_are_generated_not_listed(self, monkeypatch, walk):
        # 10**5 + 1 columns of a flat stub floor: the walk scans them all below
        # the horizontal direction, and keeping one floor per column would
        # hold about 11 MB; the term-by-term sum must not list them either
        monkeypatch.setattr(lattice, "certified_floor_term", lambda lam, z, shift, eps: 1)
        monkeypatch.setattr(lattice, "prepare_floor_term", lambda lam, shift, eps: lambda zn, zd: 1)
        if not walk:
            monkeypatch.setattr(lattice, "_WALK_MIN_TERMS", 10**9)
        real, walks = lattice._convex_floor_sum, []

        def recording(*args):
            walks.append(real(*args))
            return walks[-1]

        monkeypatch.setattr(lattice, "_convex_floor_sum", recording)
        tracemalloc.start()
        try:
            total = count_weighted(3, D, rational(2 * 10**5 + 1, 2)).value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert total == (10**5 + 1) ** 2  # kappa(3, m) = 2*m + 1 for m = 0 .. 10**5
        assert len(walks) == (1 if walk else 0)
        assert peak < 2**20, peak


class TestWalkPointTest:
    """prepare_floor_term, whose root comes from an integer square root, against the one-shot route."""

    @pytest.mark.parametrize(
        "lam,shift,eps",
        [
            (rational(11393, 11), N.shift, DEFAULT_EPS),  # one term is decided only at eps = 1e-10
            (rational(300), D.shift, DEFAULT_EPS),  # 300^2 - z^2 is a square at z = 84, 180, 240, 288
            (rational(5), D.shift, DEFAULT_EPS),  # 5^2 - 3^2 and 5^2 - 4^2 are squares
            (rational(67891, 93), N.shift, DEFAULT_EPS),
            (rational(1201, 3), D.shift, rational(1, 2)),  # eps above the arccos cap
            (rational(37, 4), N.shift, rational(1, 10**10)),
        ],
    )
    def test_every_column_equals_certified_floor_term(self, lam, shift, eps):
        floor = lattice.prepare_floor_term(lam, shift, eps)
        for m in range(rat_floor(lam) + 2):  # the last column lies past lam
            assert floor(m, 1) == certified_floor_term(lam, rational(m), shift, eps), m
        for m in range(0, rat_floor(3 * lam) + 1, 7):  # unnormalised abscissas m/3 as (2m)/6
            assert floor(2 * m, 6) == certified_floor_term(lam, rational(m, 3), shift, eps), m

    @pytest.mark.parametrize("z", [0, 3, 4])
    def test_an_exact_root_gives_g_brackets_ends(self, z):
        # lam^2 - z^2 is a square at z = 3 and 4 (and z = 0 takes lam itself), so
        # both routes take the root exactly and share their arccos and pi ends
        lam, eps = rational(5), DEFAULT_EPS
        ends = curve.prepare_g_floor_ends(lam, eps)(z, 1)
        bracket = g_bracket(lam, z, eps)
        assert tuple(rational(*end) for end in ends) == (bracket.lo, bracket.hi)

    @settings(max_examples=60, deadline=None)
    @given(
        lam=st.fractions(min_value=rational(1, 100), max_value=1500, max_denominator=100),
        t=st.fractions(min_value=0, max_value=1, max_denominator=200),
        exponent=st.integers(1, 14),
    )
    def test_bracket_lies_inside_g_bracket(self, lam, t, exponent):
        z, eps = lam * t, rational(1, 10**exponent)
        lo, hi = (rational(*end) for end in curve.prepare_g_floor_ends(lam, eps)(z.numerator, z.denominator))
        outer = g_bracket(lam, z, eps)
        assert outer.lo <= lo <= hi <= outer.hi

    def test_root_ends_square_to_either_side_of_the_radicand(self, monkeypatch):
        # with the arccos taken as 0 and pi as 1, the ends are the root's own
        monkeypatch.setattr(curve, "_arccos_ends", lambda a, b, en, ed: ((0, 1), (0, 1)))
        monkeypatch.setattr(curve, "pi_bounds", lambda eps: RationalInterval(rational(1), rational(1)))
        rng = random.Random(5)
        for _ in range(300):
            lam = rational(rng.randint(1, 150_000), rng.randint(1, 100))
            z = lam * rational(rng.randint(1, 200), 200)
            eps = rational(1, 10 ** rng.randint(0, 15))
            lo, hi = (rational(*end) for end in curve.prepare_g_floor_ends(lam, eps)(z.numerator, z.denominator))
            assert lo**2 <= lam**2 - z**2 <= hi**2, (lam, z, eps)
            assert hi - lo < eps / 4, (lam, z, eps)

    def test_walked_counts_equal_the_double_oracle_on_seeded_large_lambdas(self):
        # drawn as the large_lambda benchmark draws them: lambda in [400, 1200]
        # with denominators up to 100, alternating the boundary kind
        rng = random.Random(21)
        for i in range(20):
            q = rng.randint(1, 100)
            lam = rational(rng.randint(400 * q, 1200 * q), q)
            kind = (D, N)[i % 2]
            expected = count_weighted_oracle(2, kind, lam.numerator / lam.denominator).value
            assert count_weighted(2, kind, lam).value == expected, (kind, lam)


class TestCertifiedLower:
    @pytest.mark.parametrize("lam,expected", [(3, 3), (8, 19), (12, 42)])
    def test_frozen_values(self, lam, expected):
        result = count_neumann2_certified_lower(lam, rational(1, 1000))
        assert result.value == expected
        assert result.rigor is Rigor.CERTIFIED_LOWER

    @pytest.mark.parametrize("eps", [rational(1, 10), rational(1, 1000), rational(1, 10**6)])
    def test_never_exceeds_exact(self, eps):
        for k in range(1, 61):
            lam = rational(k, 4)
            lower = count_neumann2_certified_lower(lam, eps).value
            exact = count_weighted(2, N, lam).value
            assert lower <= exact, (lam, eps)

    @given(
        lam=st.fractions(min_value=rational(1, 3000), max_value=60, max_denominator=3000),
        eps=st.fractions(min_value=rational(1, 10**6), max_value=1, max_denominator=10**6),
    )
    @example(lam=rational(1, 2), eps=rational(1, 1000))  # z = 0 is the only term
    @example(lam=rational(5), eps=rational(1, 1000))  # radicands 16 and 9 at z = 3, 4; z = lam = 5
    @example(lam=rational(13), eps=rational(1, 4))  # radicands 144 and 25 at z = 5, 12; eps at the cap
    @example(lam=rational(5, 2), eps=rational(1, 10**6))  # radicand 9/4 at z = 2
    @example(lam=rational(13), eps=rational(1))  # eps far above the arccos cap
    @settings(max_examples=300, deadline=None)
    def test_equals_the_term_by_term_sum_of_g_lower(self, lam, eps):
        # the prepared sum against the public g_lower, one clamped floor per term
        expected = sum(
            kappa(2, m) * max(0, math.floor(g_lower(lam, m, eps) + rational(3, 4)))
            for m in range(math.floor(lam) + 1)
        )
        assert count_neumann2_certified_lower(lam, eps).value == expected

    def test_bad_eps_raises_as_g_lower_does(self):
        for eps in (0, rational(-1, 10)):
            with pytest.raises(DomainError, match="eps must be positive"):
                count_neumann2_certified_lower(3, eps)
        with pytest.raises(TypeError):
            count_neumann2_certified_lower(3, 0.001)
        assert count_neumann2_certified_lower(0, 0).value == 0  # no term needs eps

    def test_clamping_keeps_value_non_negative(self):
        # an absurdly coarse eps drives individual terms negative; the clamp
        # keeps the total a valid (if weak) lower bound
        result = count_neumann2_certified_lower(rational(7, 2), rational(1, 2))
        assert 0 <= result.value <= count_weighted(2, N, rational(7, 2)).value


class TestDimensionReduction:
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    @pytest.mark.parametrize("lam", ["1", "5/2", "6"])
    def test_agrees_with_direct_count(self, d, lam):
        lam = rational(int(lam.split("/")[0]), int(lam.split("/")[1]) if "/" in lam else 1)
        assert (
            count_dirichlet_dim_reduction(d, lam).value
            == count_weighted(d, D, lam).value
        )

    def test_empty_below_threshold(self):
        assert count_dirichlet_dim_reduction(3, rational(1, 4)).value == 0

    def test_requires_d_at_least_three(self):
        with pytest.raises(BadDimensionError):
            count_dirichlet_dim_reduction(2, 5)


class TestSectorCounts:
    def test_full_aperture_matches_term_sum(self):
        lam = rational(7, 2)
        expected = sum(
            certified_floor_term(lam, rational(m, 2), rational(1, 4)) for m in range(1, 8)
        )
        assert sector_lattice_bound(D, 2, lam).value == expected

    def test_half_disk_neumann(self):
        # unit-weight sum at aperture pi: floor terms 1, 1, 0, 0
        assert sector_lattice_bound(N, 1, 3).value == 2

    def test_quarter_disk_dirichlet(self):
        assert sector_lattice_bound(D, rational(1, 2), 5).value == 0

    def test_rejects_float_aperture(self):
        with pytest.raises(IrrationalApertureError):
            sector_lattice_bound(D, math.pi / 3, 5)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            sector_lattice_bound(D, rational(5, 2), 5)

    def test_oracle_agrees_with_certified(self):
        for a_num, a_den in ((1, 3), (1, 2), (1, 1), (3, 2), (2, 1)):
            for lam in (2, 7, 11):
                certified = sector_lattice_bound(D, rational(a_num, a_den), lam).value
                oracle = sector_lattice_bound_oracle(D, math.pi * a_num / a_den, float(lam)).value
                assert certified == oracle, (a_num, a_den, lam)

    def test_oracle_accepts_irrational_aperture(self):
        result = sector_lattice_bound_oracle(N, 2.0, 6.0)
        assert result.rigor is Rigor.ORACLE
        assert result.value >= 0
