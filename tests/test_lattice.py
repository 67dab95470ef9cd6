"""Tests for weighted counts, dimension reduction, sectors, and counting harnesses."""
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyacert import curve, lattice, verified
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
from polyacert.verified import DEFAULT_EPS, RationalInterval, _arccos_upper_end, pi_bounds

D = BoundKind.DIRICHLET
N = BoundKind.NEUMANN


def _bracket_seam(monkeypatch, bracket):
    """Give every floor test its brackets from bracket(lam, z, eps) -> RationalInterval, plus the shift.

    The floor tests take their brackets of G + shift once per rung, the
    walk's through lattice.prepare_g_floor_ends and the one-shot
    certified_floor_term's through lattice.prepare_g_bracket, both
    prepare(lam, shift, eps); this routes both builders to bracket.
    """

    def prepare(lam, shift, eps):
        def ends(zn, zd):
            b = bracket(lam, rational(zn, zd), eps)
            return (b.lo + shift).as_integer_ratio(), (b.hi + shift).as_integer_ratio()

        return ends

    monkeypatch.setattr(lattice, "prepare_g_bracket", prepare)
    monkeypatch.setattr(lattice, "prepare_g_floor_ends", prepare)


def _windows_arccos(en, ed):
    """A stand-in for verified.prepare_arccos_dyadic whose ends never verify, so the walk always takes the reference bracket."""
    return verified.prepare_arccos_dyadic(en, ed)[0], lambda a, b: None


def _zero_arccos(en, ed):
    """A stand-in for verified.prepare_arccos_dyadic, on its scale, whose ends are both 0."""
    return verified.prepare_arccos_dyadic(en, ed)[0], lambda a, b: (0, 0)


def _watch_floor_tests(monkeypatch, asked):
    """Append the abscissa of every floor test of the hull walk (prepare_floor_term) to asked."""
    real = lattice.prepare_floor_term

    def prepare(lam, shift):
        floor = real(lam, shift)

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
        # eps = 1/2 is above the arccos eps cap of 1/4; an exact count only
        # checks that eps is positive, so the counts are the oracle's
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

    @pytest.mark.parametrize(
        "count",
        [
            pytest.param(lambda lam, eps: count_weighted(2, N, lam, eps), id="weighted"),
            pytest.param(lambda lam, eps: sector_lattice_bound(D, rational(1, 3), lam, eps), id="sector"),
            pytest.param(lambda lam, eps: count_dirichlet_dim_reduction(3, lam, eps), id="dim-reduction"),
            pytest.param(lambda lam, eps: certified_floor_term(lam, 0, N.shift, eps), id="floor-term"),
            pytest.param(count_neumann2_certified_lower, id="lower"),
        ],
    )
    def test_every_count_checks_lam_then_eps_on_entry(self, count):
        # one entry check: a negative lam first, whatever eps, then a
        # non-positive eps, even at lam = 0, where no term needs it
        with pytest.raises(DomainError, match="lam must be non-negative"):
            count(-1, 0)
        for eps in (0, rational(-1, 10)):
            with pytest.raises(DomainError, match="eps must be positive"):
                count(0, eps)

    @pytest.mark.parametrize("shift", [D.shift, N.shift], ids=["D", "N"])
    def test_a_term_at_or_past_lam_is_the_ladders_floor_of_the_shift(self, monkeypatch, shift):
        # at z = lam, at z > lam and at lam = 0, the floor ladder's own rule
        # for z >= lam gives floor(shift), with no bracket prepared
        real, ladders = lattice._floor_ladder, []
        monkeypatch.setattr(lattice, "_floor_ladder", lambda *args: ladders.append(args) or real(*args))
        monkeypatch.setattr(lattice, "prepare_g_bracket", None)
        cases = [(5, 5), (rational(7, 2), rational(7, 2)), (5, rational(21, 4)), (0, 0), (0, 3)]
        for lam, z in cases:
            assert certified_floor_term(lam, z, shift) == rat_floor(shift), (lam, z)
        assert len(ladders) == len(cases)

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
    """lattice._start_rung picks the first rung of the floor ladder from lam alone; it must never change a count."""

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

    # every rung, 0 to 16; the ladder itself starts at 1/1000 (rung 3) or
    # finer.  At the finest rung alone the arccos bracket of 28/29 (lambda =
    # 29/4, column 7) does not verify, so no rung decides that term (ROADMAP
    # item 10)
    @pytest.mark.parametrize(
        "rung",
        [
            *range(16),
            pytest.param(
                16,
                marks=pytest.mark.xfail(
                    raises=UnresolvedFloorError, strict=True, reason="arccos(28/29) does not verify at 1/10^16"
                ),
            ),
        ],
    )
    def test_any_start_rung_leaves_counts_unchanged(self, monkeypatch, expected, rung):
        monkeypatch.setattr(lattice, "_start_rung", lambda lam: rung)
        assert self._counts() == expected

    def test_unverifiable_start_rung_is_passed_over(self, monkeypatch):
        # a start rung whose brackets do not verify costs one failed try per
        # term; the next rung decides it
        lam, shift = rational(37, 4), rational(3, 4)
        expected = [certified_floor_term(lam, rational(m), shift) for m in range(10)]
        start = lattice._ACCURACIES[lattice._start_rung(lam)]
        failed = []

        def failing_at_the_start(lam, z, accuracy):
            if accuracy == start:
                failed.append(z)
                raise GuessFailedError(f"no bracket at {accuracy}")
            return g_bracket(lam, z, accuracy)

        _bracket_seam(monkeypatch, failing_at_the_start)
        assert [certified_floor_term(lam, rational(m), shift) for m in range(10)] == expected
        assert failed == [rational(m) for m in range(10)]

    @settings(max_examples=60, deadline=None)
    @given(lam=st.builds(rational, st.integers(1, 10**18), st.integers(1, 1000)))
    @example(lam=rational(1, 16))  # 16*lam = 1: rung 3, the default eps's
    @example(lam=rational(10**4, 16))  # 16*lam = 10^4: rung 4
    @example(lam=rational(10**16, 16))  # 16*lam = 10^16: the finest rung
    @example(lam=rational(10**16 + 1, 16))  # past the finest rung
    def test_start_rung_is_the_coarsest_at_most_eps_and_a_sixteenth_of_one_over_lam(self, lam):
        rung = lattice._start_rung(lam)
        finest = len(lattice._ACCURACIES) - 1
        accuracy, bound = rational(1, 10**rung), min(DEFAULT_EPS, 1 / (16 * lam))
        assert lattice._ACCURACIES[rung] == accuracy
        assert rung == finest or accuracy <= bound < 10 * accuracy

    @pytest.mark.parametrize("kind", [D, N])
    def test_a_lambda_below_every_double_is_counted(self, kind, capsys):
        lam = rational(1, 10**400)  # float(lam) is 0.0
        assert lattice._start_rung(lam) == 3  # the default eps's rung, 1/1000
        assert certified_floor_term(lam, 0, kind.shift) == 0
        assert count_weighted(2, kind, lam).value == 0  # one term, summed term by term
        assert lattice._convex_floor_sum(lam, rational(1), kind.shift, 2) == 0  # walked
        assert sector_lattice_bound(kind, 1, lam).value == 0
        # the command line caps a literal at 100 digits, so it rejects this
        # lambda (exit 3) and counts the smallest one it takes
        assert main(["count", "--kind", kind.value, "--lambda", f"1/{10**400}"]) == 3
        assert main(["count", "--kind", kind.value, "--lambda", f"1/{10**99}"]) == 0
        assert " value=0 " in capsys.readouterr().out

    @pytest.mark.parametrize("kind", [D, N], ids=["D", "N"])
    def test_start_rung_brackets_are_at_most_an_eighth_wide(self, kind):
        # every seventh column of count_weighted(2, kind, lam), lam log-uniform
        # in [1, 10^4]: start rungs 3 to 5, brackets up to 0.84 of the bound
        rng = random.Random(f"start-rung-{kind.value}")
        for _ in range(8):
            den = rng.randint(1, 100)
            lam = rational(round(10 ** rng.uniform(0, 4) * den), den)
            ends = curve.prepare_g_floor_ends(lam, kind.shift, lattice._ACCURACIES[lattice._start_rung(lam)])
            for m in range(0, rat_floor(lam) + 1, 7):
                (lo_n, lo_d), (hi_n, hi_d) = ends(m, 1)
                assert 8 * (hi_n * lo_d - lo_n * hi_d) <= lo_d * hi_d, (lam, m)

    def test_exact_counts_do_not_depend_on_eps(self):
        # an exact count only checks that eps is positive, here from above
        # the arccos eps cap (7/3) down to 1/10^10
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
        # in one direction, from 1/1000's rung to the finest, each rung once
        assert seen == [rational(1, 10**rung) for rung in range(3, len(lattice._ACCURACIES))]
        assert info.value.accuracies == (eps, finest) and str(info.value).endswith(f"from accuracy {eps} to {finest}")
        assert info.value.abscissa == z
        assert info.value.interval == (1 - finest, 1 + finest)  # the finest bracket plus the shift
        assert info.value.__cause__ is None

    @pytest.mark.parametrize(
        "count",
        [
            pytest.param(lambda: certified_floor_term(rational(3), rational(1), rational(3, 4)), id="one-shot"),
            pytest.param(lambda: count_weighted(2, N, rational(3)), id="term-by-term"),
            pytest.param(lambda: lattice._convex_floor_sum(rational(3), rational(1), N.shift), id="walked"),
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
        assert len(raised) == len(lattice._ACCURACIES) - 3  # rungs 3 to 16, each once

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

    @pytest.mark.parametrize("route", ["one-shot", "term-by-term", "walked"])
    def test_a_rung_whose_preparation_fails_is_passed_over_and_prepared_again(self, monkeypatch, route):
        # the start rung's preparation raises, as a pi bracket that does not
        # verify would: every floor test passes over it, with the same
        # count, and asks for it again
        lam = rational(37, 4)
        count = {
            "one-shot": lambda: [certified_floor_term(lam, rational(m), N.shift) for m in range(10)],
            "term-by-term": lambda: count_weighted(2, N, lam).value,
            "walked": lambda: lattice._convex_floor_sum(lam, rational(1), N.shift),
        }[route]
        expected = count()
        start = lattice._ACCURACIES[lattice._start_rung(lam)]
        failed, tests = [], []

        def failing_at_the_start(real):
            def prepare(lam, shift, accuracy):
                if accuracy == start:
                    failed.append(accuracy)
                    raise GuessFailedError(f"no bracket at {accuracy}")
                return real(lam, shift, accuracy)

            return prepare

        for name in ("prepare_g_bracket", "prepare_g_floor_ends"):
            monkeypatch.setattr(lattice, name, failing_at_the_start(getattr(lattice, name)))
        _watch_floor_tests(monkeypatch, tests)
        assert count() == expected
        # one failed preparation per floor test: each of the ten columns
        # below lam term by term, and each point the walk tests
        assert len(failed) == (len(tests) if route == "walked" else 10) > 1

    def test_pi_verifies_on_every_rung_and_not_past_the_finest(self):
        # every bracket needs pi, so a rung finer than 1/10^16 could only fail:
        # the double nearest pi/3 lies 1.07e-16 from it
        pi = rational(314159265358979323846, 10**20)  # within 10^-20 of pi
        for accuracy in lattice._ACCURACIES:
            assert pi_bounds(accuracy).lo < pi < pi_bounds(accuracy).hi
        with pytest.raises(GuessFailedError):
            pi_bounds(lattice._ACCURACIES[-1] / 10)

    def test_count_command_reports_the_unresolved_term(self, monkeypatch, capsys):
        _bracket_seam(monkeypatch, self.straddling([]))
        code = main(["count", "--lambda", "3"])
        assert code == 2
        assert capsys.readouterr().err.startswith("unresolved floor term: ")


_APERTURES = [rational(1), rational(1, 3), rational(1, 2), rational(3, 2), rational(2), rational(2, 7)]


def _term_by_term(lam, a, shift, start=0):
    """lattice._convex_floor_sum of a sector, summed term by term."""
    return sum(certified_floor_term(lam, rational(m) / a, shift) for m in range(start, rat_floor(a * lam) + 1))


def _weighted_abscissas(d, lam):
    """z_m = m + d/2 - 1 for m = 0 .. floor(lam - d/2 + 1), the columns of the weighted counts."""
    return [rational(2 * m + d - 2, 2) for m in range(rat_floor(lam - rational(d, 2) + 1) + 1)]


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
        assert lattice._convex_floor_sum(lam, a, shift) == _term_by_term(lam, a, shift)

    def test_pi_over_three_cut_off_is_not_proved_and_costs_only_tests(self, monkeypatch):
        # arccos(300/600) = pi/3 exactly, so no bracket proves the slope-1/3 cut-off there
        real, asked = lattice._arccos_at_most_pi_times, []

        def recording(xn, xd, sn, sd, eps):
            proved = real(xn, xd, sn, sd, eps)
            asked.append((rational(xn, xd), rational(sn, sd), proved))
            return proved

        monkeypatch.setattr(lattice, "_arccos_at_most_pi_times", recording)
        lam = rational(600)
        assert lattice._convex_floor_sum(lam, rational(1), N.shift) == _term_by_term(lam, 1, N.shift)
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
        walked = lattice._convex_floor_sum(lam, a, shift)
        monkeypatch.setattr(lattice, "_arccos_at_most_pi_times", lambda xn, xd, sn, sd, eps: False)
        assert lattice._convex_floor_sum(lam, a, shift) == walked

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
        first = rational(d - 2, 2)  # column 0: z = 0 in the plane, 1/2 for d = 3

        def straddling_at_column_zero(lam, z, eps):  # G + shift straddles 5 on every rung
            if z == first:
                return RationalInterval(5 - shift - eps, 5 - shift + eps)
            return real(lam, z, eps)

        _bracket_seam(monkeypatch, straddling_at_column_zero)
        lam = rational(300)
        with pytest.raises(UnresolvedFloorError) as serial:
            for z in _weighted_abscissas(d, lam):
                certified_floor_term(lam, z, shift)
        with pytest.raises(UnresolvedFloorError) as walked:
            count(lam)
        assert walked.value.abscissa == serial.value.abscissa == first
        assert walked.value.interval == serial.value.interval

    def test_dirichlet_sector_walk_tests_no_point_at_z_zero(self, monkeypatch):
        # the Dirichlet sector sum starts at m = 1, and so does its walk
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
        columns = len(_weighted_abscissas(2, lam))
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
            lattice._convex_floor_sum(rational(70003, 7), rational(1), kind.shift)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(calls) == len(set(calls)) < 2000  # of 10,001 terms, each column once
        assert peak < 512 * 2**10, peak

    def test_a_walked_count_prepares_once(self, monkeypatch):
        # the floor test prepares each rung it uses once, with two pi brackets
        # in a row: the dyadic bracket's and that of the reference bracket it
        # falls back to; the slope proofs build one, at _SLOPE_EPS whatever
        # the count's eps; term by term, every bracket asked for its own
        asked = {curve: [], lattice: []}
        for module, calls in asked.items():
            real = module.pi_bounds
            monkeypatch.setattr(module, "pi_bounds", lambda eps, real=real, calls=calls: calls.append(eps) or real(eps))
        assert count_weighted(2, N, rational(70003, 7)).value == 25_007_157
        rungs = asked[curve][::2]
        assert 0 < len(rungs) == len(set(rungs)) <= len(lattice._ACCURACIES)
        assert asked[curve] == [eps for eps in rungs for _ in range(2)]
        assert asked[lattice] == [lattice._SLOPE_EPS]

    def test_slope_proofs_retried_at_their_own_eps_keep_the_walk_short(self, monkeypatch):
        # the slope proofs take pi's lower end once, at their own eps 1/10^9,
        # not at the count's eps and no longer as a retry; with pi's lower end
        # at the count's eps they fail deep in the walk, and the walk tested
        # 9,383 points here
        asked = []
        _watch_floor_tests(monkeypatch, asked)
        assert count_weighted(2, N, 10**5).value == 2_500_049_851
        assert len(asked) <= 8000

    def test_steep_sector_slopes_are_proved(self, monkeypatch):
        # at aperture 2*pi the first hull edge (1, 1) asks for arccos(x) <= 2*pi,
        # beyond the Taylor check's domain (0, 4]: without the cap at 4 the
        # walk tested 2,827 points here, not 468
        asked = []
        _watch_floor_tests(monkeypatch, asked)
        lam, a = rational(9897, 7), rational(2)
        total = sector_lattice_bound(D, a, lam).value
        assert len(asked) <= 500
        monkeypatch.undo()
        assert total == _term_by_term(lam, a, D.shift, start=1) == 498_822

    @pytest.mark.parametrize("eps", [0, -1])
    @pytest.mark.parametrize(
        "count",
        [
            pytest.param(lambda eps: count_weighted(2, N, 300, eps), id="weighted-N"),
            pytest.param(lambda eps: sector_lattice_bound(D, rational(1, 3), 1003, eps), id="sector-D"),
            pytest.param(lambda eps: count_weighted(3, D, rational(601, 2), eps), id="weighted-3D"),
        ],
    )
    def test_a_walked_count_rejects_a_non_positive_eps(self, monkeypatch, count, eps):
        # on entry, before the walk, as every exact count does, even an empty one
        real, walks = lattice._convex_floor_sum, []
        monkeypatch.setattr(lattice, "_convex_floor_sum", lambda *args: walks.append(args) or real(*args))
        with pytest.raises(DomainError, match="eps must be positive"):
            count(eps)
        assert not walks
        for empty in (
            lambda: count_weighted(6, D, rational(1, 2), eps),
            lambda: sector_lattice_bound(D, rational(1, 3), 2, eps),
            lambda: count_dirichlet_dim_reduction(3, rational(1, 4), eps),
        ):
            with pytest.raises(DomainError, match="eps must be positive"):
                empty()

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
        columns = enumerate(_weighted_abscissas(d, lam))
        expected = sum(kappa(d, m) * certified_floor_term(lam, z, shift) for m, z in columns)
        assert lattice._convex_floor_sum(lam, rational(1), shift, d) == expected
        assert count_weighted(d, D, lam).value == expected

    # exact_sweep's grids (perfbench/workloads.py), whose sums are all
    # shorter than _WALK_MIN_TERMS and so reach the walk in no workload:
    # lambda = k/4 <= 100 for the planar counts, k/2 <= 30 for d = 3, 4, 5
    # and for the sectors at exact_sweep's apertures
    @pytest.mark.parametrize(
        "d, kind, den, top",
        [(2, D, 4, 100), (2, N, 4, 100), (3, D, 2, 30), (4, D, 2, 30), (5, D, 2, 30)],
        ids=["planar-D", "planar-N", "3D", "4D", "5D"],
    )
    def test_weighted_walk_on_the_sweep_grid(self, d, kind, den, top):
        for k in range(1, den * top + 1):
            lam = rational(k, den)
            walked = lattice._convex_floor_sum(lam, rational(1), kind.shift, d)
            columns = enumerate(_weighted_abscissas(d, lam))
            assert walked == sum(kappa(d, m) * certified_floor_term(lam, z, kind.shift) for m, z in columns), lam
            assert walked == count_weighted_oracle(d, kind, k / den).value, lam

    @pytest.mark.parametrize("a", [rational(1, 3), rational(1, 2), rational(1), rational(3, 2), rational(2)], ids=str)
    @pytest.mark.parametrize("kind", [D, N], ids=["D", "N"])
    def test_sector_walk_on_the_sweep_grid(self, a, kind):
        start = 1 if kind is D else 0
        for k in range(1, 61):
            lam = rational(k, 2)
            walked = lattice._convex_floor_sum(lam, a, kind.shift, start=start)
            assert walked == _term_by_term(lam, a, kind.shift, start), lam
            assert walked == sector_lattice_bound_oracle(kind, math.pi * a.numerator / a.denominator, k / 2).value, lam

    @pytest.mark.parametrize("walked", [True, False], ids=["walked", "term-by-term"])
    @pytest.mark.parametrize("kind", [D, N], ids=["D", "N"])
    def test_the_disk_is_two_half_disks_and_the_axis_column(self, kind, walked):
        # the planar weights are 1 at m = 0 and 2 past it, so the disk's sum
        # is twice the half disk's (aperture pi) less its column at z = 0,
        # f = floor(G(lam, 0) + shift), for N; the Dirichlet half disk starts
        # at m = 1, so for D the column is added.  Checks _step_sum's d = 2
        # weights against the sector walk's unit weights
        rng = random.Random(f"half-disk-{kind.value}-{walked}")
        low, high = (256, 3000) if walked else (0, lattice._WALK_MIN_TERMS - 2)
        for _ in range(20):
            q = rng.randint(1, 99)
            lam = rational(rng.randint(low * q + 1, high * q), q)
            f = certified_floor_term(lam, 0, kind.shift)
            half = sector_lattice_bound(kind, 1, lam).value
            assert count_weighted(2, kind, lam).value == 2 * half + (f if kind is D else -f), lam

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
        monkeypatch.setattr(lattice, "certified_floor_term", lambda lam, z, shift: 1)
        monkeypatch.setattr(lattice, "prepare_floor_term", lambda lam, shift: lambda zn, zd: 1)
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


def _guessed_slope_proof(xn, xd, sn, sd):
    """The walk's slope proof built from a double-guessed arccos end, as it stood before the Taylor check alone.

    At the default eps and then at 1/10^9: the verified upper end of
    arccos(xn/xd) at eps capped at 1/4 against sn/sd times the lower end of
    pi_bounds(eps), on integers; an end that does not verify fails that eps.
    """
    if sn == 0:
        return False
    for eps in (DEFAULT_EPS, rational(1, 10**9)):
        capped, pi = min(eps, rational(1, 4)), pi_bounds(eps).lo
        try:
            un, ud = _arccos_upper_end(xn, xd, capped.numerator, capped.denominator)
        except GuessFailedError:
            continue
        if un * sd * pi.denominator <= pi.numerator * sn * ud:
            return True
    return False


class TestSlopeProof:
    """lattice._arccos_at_most_pi_times, the walk's cut-off proof, against the guessed-end proof."""

    def test_proves_wherever_the_guessed_end_proves(self):
        pi_lo = pi_bounds(lattice._SLOPE_EPS).lo
        rng = random.Random(25)
        cases = [(1, 2, 1, 3), (2, 4, 1, 3), (1, 2, 1, 2), (1, 1, 1, 1000), (0, 7, 1, 2)]
        for _ in range(1500):
            xd = rng.choice((10, 1000, 10**6, 10**12))
            xn = rng.choice((1, 2, xd - 1, xd, rng.randint(1, xd)))  # x near 0 and 1, and anywhere
            k, sd = rng.randint(1, 5), rng.randint(1, 300)
            if rng.random() < 0.5:  # s anywhere in [0, 5/2]: at or past 1/2, and past 4/pi
                sn = rng.randint(0, 5 * sd // 2)
            else:  # s within a few 1/sd of arccos(x)/pi, where the two proofs part
                sn = max(0, round(math.acos(xn / xd) / math.pi * sd) + rng.randint(-2, 2))
            cases.append((k * xn, k * xd, sn, sd))  # x/lam need not be normalised
        outcomes = set()
        for xn, xd, sn, sd in cases:
            guessed = _guessed_slope_proof(xn, xd, sn, sd)
            proved = lattice._arccos_at_most_pi_times(xn, xd, sn, sd, pi_lo)
            assert proved or not guessed, (xn, xd, sn, sd)
            outcomes.add((guessed, proved))
        assert {(True, True), (False, False)} <= outcomes

    def test_a_tie_and_a_zero_slope_are_not_proved(self):
        pi_lo = pi_bounds(lattice._SLOPE_EPS).lo
        assert not lattice._arccos_at_most_pi_times(1, 2, 1, 3, pi_lo)  # arccos(1/2) = pi/3
        assert not lattice._arccos_at_most_pi_times(1, 1, 0, 1, pi_lo)  # arccos(1) = 0 = pi*0
        assert lattice._arccos_at_most_pi_times(1, 2, 10**6 + 1, 3 * 10**6, pi_lo)
        assert lattice._arccos_at_most_pi_times(1, 10**9, 2, 1, pi_lo)  # pi*s past 4


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
        # the one-shot route checks eps and otherwise ignores it
        floor = lattice.prepare_floor_term(lam, shift)
        for m in range(rat_floor(lam) + 2):  # the last column lies past lam
            assert floor(m, 1) == certified_floor_term(lam, rational(m), shift, eps), m
        for m in range(0, rat_floor(3 * lam) + 1, 7):  # unnormalised abscissas m/3 as (2m)/6
            assert floor(2 * m, 6) == certified_floor_term(lam, rational(m, 3), shift, eps), m

    @pytest.mark.parametrize(
        "lam, z", [(5, 0), (5, 3), (5, 4), (300, 84), (300, 180), (300, 240), (300, 288)]
    )
    @pytest.mark.parametrize("kind", [D, N], ids=["D", "N"])
    def test_an_exact_root_is_both_root_ends_of_the_dyadic_bracket(self, lam, z, kind):
        # lam^2 - z^2 is a square here (z = 0 takes lam itself), so on the
        # rung's scale 2^k the isqrt root r is exact, r^2 = n*4^k, and both
        # ends of the walk's own bracket take r; that bracket lies inside
        # g_bracket's plus the shift, and the walk floors as the one-shot route
        eps, shift = DEFAULT_EPS, kind.shift
        k, arccos = verified.prepare_arccos_dyadic(*verified._arccos_eps(eps).as_integer_ratio())
        scaled = (lam * lam - z * z) << 2 * k
        r = math.isqrt(scaled)
        assert r * r == scaled
        a_lo, a_hi = arccos(z, lam) if z else (0, 0)  # the dyadic ends verify: no reference bracket
        pi, den = pi_bounds(eps), 1 << k
        lo, hi = (rational(*end) for end in curve.prepare_g_floor_ends(rational(lam), shift, eps)(z, 1))
        assert lo == rational(*curve._over_pi(r, den, z, 1, a_hi, den, pi.hi)) + shift
        assert hi == rational(*curve._over_pi(r, den, z, 1, a_lo, den, pi.lo)) + shift
        outer = g_bracket(lam, z, eps)
        assert outer.lo + shift <= lo <= hi <= outer.hi + shift
        assert lattice.prepare_floor_term(rational(lam), shift)(z, 1) == certified_floor_term(lam, z, shift)

    @settings(max_examples=60, deadline=None)
    @given(
        lam=st.fractions(min_value=rational(1, 100), max_value=1500, max_denominator=100),
        t=st.fractions(min_value=0, max_value=1, max_denominator=200),
        exponent=st.integers(1, 14),
        shift=st.sampled_from([D.shift, N.shift]),
    )
    def test_bracket_lies_inside_g_bracket(self, lam, t, exponent, shift):
        z, eps = lam * t, rational(1, 10**exponent)
        lo, hi = (rational(*end) for end in curve.prepare_g_floor_ends(lam, shift, eps)(z.numerator, z.denominator))
        outer = g_bracket(lam, z, eps)
        assert outer.lo + shift <= lo <= hi <= outer.hi + shift

    @settings(max_examples=150, deadline=None)
    @given(
        lam=st.fractions(min_value=rational(1, 100), max_value=1500, max_denominator=100),
        t=st.fractions(min_value=0, max_value=1, max_denominator=200),
        exponent=st.integers(0, 16),
        shift=st.sampled_from([D.shift, N.shift]),
    )
    @example(lam=rational(1201, 3), t=rational(0), exponent=3, shift=N.shift)  # z = 0
    @example(lam=rational(5), t=rational(3, 5), exponent=3, shift=D.shift)  # an exact root, 5^2 - 3^2 = 4^2
    @example(lam=rational(10**7), t=rational(3508103, 10**7), exponent=16, shift=N.shift)  # the reference bracket
    def test_shared_denominator_ends_are_over_pi_of_the_same_ends(self, lam, t, exponent, shift):
        # on dyadic arccos ends, each end of G + shift over ld*zd*2^k is the
        # rational that _over_pi builds from the isqrt root ends, those arccos
        # ends and the pi bracket, plus the shift; where they do not verify,
        # the ends are the reference bracket's, prepare_g_bracket's at the
        # same eps; and both raise where one of those does not verify
        z, eps = lam * t, rational(1, 10**exponent)
        (zn, zd), (ln, ld) = z.as_integer_ratio(), lam.as_integer_ratio()
        en, ed = verified._arccos_eps(eps).as_integer_ratio()
        k, arccos = verified.prepare_arccos_dyadic(en, ed)
        scaled, den = (ln * ln * zd * zd - zn * zn * ld * ld) << 2 * k, ld * zd << k
        r = math.isqrt(scaled)
        r_hi = r if r * r == scaled else r + 1
        dyadic = arccos(zn * ld, zd * ln) if zn else (0, 0)
        try:
            got = curve.prepare_g_floor_ends(lam, shift, eps)(zn, zd)
        except GuessFailedError:
            got = None
        try:
            pi = pi_bounds(eps)
            reference = curve.prepare_g_bracket(lam, shift, eps)(zn, zd) if dyadic is None else None
        except GuessFailedError:
            assert got is None
            return
        assert got is not None
        if dyadic is None:
            assert got == reference
            return
        angle_lo, angle_hi = ((end, 1 << k) for end in dyadic)
        expected = curve._over_pi(r, den, zn, zd, *angle_hi, pi.hi), curve._over_pi(r_hi, den, zn, zd, *angle_lo, pi.lo)
        assert [rational(*end) for end in got] == [rational(*end) + shift for end in expected]
        sd = shift.denominator  # taken as one subtraction over the shared denominator
        assert (got[0][1], got[1][1]) == (den * pi.hi.numerator * sd, den * pi.lo.numerator * sd)

    def test_root_ends_square_to_either_side_of_the_radicand(self, monkeypatch):
        # with the arccos taken as 0 and pi as 1, the ends are the root's own
        monkeypatch.setattr(curve, "prepare_arccos_dyadic", _zero_arccos)
        monkeypatch.setattr(curve, "pi_bounds", lambda eps: RationalInterval(rational(1), rational(1)))
        rng = random.Random(5)
        for _ in range(300):
            lam = rational(rng.randint(1, 150_000), rng.randint(1, 100))
            z = lam * rational(rng.randint(1, 200), 200)
            eps = rational(1, 10 ** rng.randint(0, 15))
            ends = curve.prepare_g_floor_ends(lam, rational(0), eps)(z.numerator, z.denominator)
            lo, hi = (rational(*end) for end in ends)
            assert lo**2 <= lam**2 - z**2 <= hi**2, (lam, z, eps)
            assert hi - lo < eps / 4, (lam, z, eps)

    @pytest.mark.parametrize(
        "a, d, kind",
        [
            (rational(1), 2, D),
            (rational(1), 2, N),
            (rational(1, 3), None, D),
            (rational(3, 2), None, N),
            (rational(2), None, D),
            (rational(1), 3, D),
        ],
        ids=["planar-D", "planar-N", "sector-1/3", "sector-3/2", "sector-2", "weighted-3D"],
    )
    @pytest.mark.parametrize("arccos", ["dyadic", "windows"])
    def test_seeded_walk_columns_equal_certified_floor_term(self, monkeypatch, a, d, kind, arccos):
        # seeded columns of walked sums at lambda in [400, 1200] with
        # denominators up to 100, at the walk's own abscissas: the ladder
        # floors each as the one-shot route does, with its dyadic arccos ends
        # and with the reference bracket that it falls back to
        if arccos == "windows":
            monkeypatch.setattr(curve, "prepare_arccos_dyadic", _windows_arccos)
        rng = random.Random(f"seeded-columns-{a}-{d}-{kind.value}")
        for _ in range(3):
            q = rng.randint(1, 100)
            lam = rational(rng.randint(400 * q, 1200 * q), q)
            z_num, z_add, z_den, top = lattice._columns(lam, a, d)
            floor = lattice.prepare_floor_term(lam, kind.shift)
            for m in rng.sample(range(top + 1), 40):
                zn = m * z_num + z_add
                assert floor(zn, z_den) == certified_floor_term(lam, rational(zn, z_den), kind.shift), (lam, m)

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

    def test_a_walk_searches_no_window(self, monkeypatch):
        # the walk's root and arccos ends lie on powers of two, so with pi
        # built beforehand it finds no shortest rational in a window on the
        # seeded counts: none of their terms needs the windows' fallback
        _warm_pi()

        def searched(*args):
            raise AssertionError("the walk searched a window")

        monkeypatch.setattr(verified, "_window_below", searched)
        monkeypatch.setattr(verified, "_window_above", searched)
        self.test_walked_counts_equal_the_double_oracle_on_seeded_large_lambdas()

    @pytest.mark.parametrize("hint", ["always-above", "always-below", "half-angle", "past-angle"])
    def test_walked_counts_do_not_depend_on_the_hint(self, monkeypatch, hint):
        # the walk's one double hint is verified._arccos_guess, and it only
        # seeds verified ends.  2^-30 above or below the angle, the dyadic
        # ends verify down to eps = 1/10^8 and the windows' ends at 1/10^9,
        # and these counts need no finer rung.  From half or one and a half
        # times the angle most ends do not verify, dyadic and window ends
        # alike, so rungs are passed over and a point that no rung decides
        # raises; no count is ever wrong
        def guess(scale, offset=0.0):
            return lambda a, b: (math.acos(a / b) * scale + offset).as_integer_ratio()

        hints = {
            "always-above": guess(1, 2.0**-30),
            "always-below": guess(1, -(2.0**-30)),
            "half-angle": guess(0.5),
            "past-angle": guess(1.5),
        }
        _warm_pi()
        monkeypatch.setattr(verified, "_arccos_guess", hints[hint])
        rng = random.Random(28)
        for i in range(6):
            q = rng.randint(1, 100)
            lam = rational(rng.randint(400 * q, 1200 * q), q)
            d, kind = ((2, D), (2, N), (3, D))[i % 3]
            expected = count_weighted_oracle(d, kind, lam.numerator / lam.denominator).value
            try:
                assert count_weighted(d, kind, lam).value == expected, (d, kind, lam)
            except UnresolvedFloorError:
                assert hint in ("half-angle", "past-angle"), (d, kind, lam)


def _warm_pi():
    """Build pi on every rung of the floor ladder and at the slope proofs' eps, so that pi_bounds reads its cache."""
    for eps in lattice._ACCURACIES + (lattice._SLOPE_EPS,):
        pi_bounds(eps)


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
        # on entry, at lam = 0 too, where the one term needs no bound
        for lam in (3, 0):
            for eps in (0, rational(-1, 10)):
                with pytest.raises(DomainError, match="eps must be positive"):
                    count_neumann2_certified_lower(lam, eps)
        with pytest.raises(TypeError):
            count_neumann2_certified_lower(3, 0.001)

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

    @pytest.mark.parametrize("d,lam", [(3, rational(601, 2)), (4, rational(300)), (5, rational(1031, 4))])
    def test_equals_the_walked_count(self, monkeypatch, d, lam):
        # 301, 300 and 257 columns: count_weighted walks them, and the
        # reduction decides every column's floor by the one-shot route
        real, walks = lattice._convex_floor_sum, []
        monkeypatch.setattr(lattice, "_convex_floor_sum", lambda *args: walks.append(args) or real(*args))
        assert count_dirichlet_dim_reduction(d, lam).value == count_weighted(d, D, lam).value
        assert len(walks) == 1

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
