"""Tests for weighted counts, dimension reduction, sectors, and counting harnesses."""
import math
import os
import random
import threading
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyacert import lattice
from polyacert.cli import main
from polyacert.curve import BoundKind, g_value
from polyacert.errors import (
    BadDimensionError,
    DomainError,
    GuessFailedError,
    HypothesisViolatedError,
    IrrationalApertureError,
    M0ExceedsBError,
    UnresolvedFloorError,
)
from polyacert.lattice import (
    ConvexTable,
    Rigor,
    certified_floor_term,
    check_convex_count_lower,
    check_convex_count_upper,
    count_dirichlet_dim_reduction,
    count_neumann2_certified_lower,
    count_weighted,
    count_weighted_oracle,
    cumulative_multiplicity,
    cumulative_multiplicity_bound,
    kappa,
    multiplicity_step,
    sector_lattice_bound,
    sector_lattice_bound_oracle,
)
from polyacert.rational import rational
from polyacert.verified import DEFAULT_EPS, RationalInterval

D = BoundKind.DIRICHLET
N = BoundKind.NEUMANN


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

    def test_term_near_an_integer_refines_to_the_last_rung(self):
        # a floor term so close to an integer that it needs a bracket at
        # eps ~ 1e-15, below what the degree-12/14 Taylor sandwich verifies
        lam = rational(11393, 11)
        exact = count_weighted(2, N, lam).value
        assert exact == count_weighted_oracle(2, N, 11393 / 11).value == 268676


class TestFloatHint:
    """The double value of G picks the first refinement rung; it must never change a count."""

    @staticmethod
    def _counts():
        return (
            [count_weighted(2, kind, rational(k, 4)).value for kind in (D, N) for k in range(1, 41)]
            + [count_weighted(3, D, rational(k, 2)).value for k in range(1, 13)]
            + [count_dirichlet_dim_reduction(4, rational(k, 2)).value for k in range(1, 9)]
            + [sector_lattice_bound(N, rational(1, 3), rational(k, 2)).value for k in range(1, 13)]
        )

    @pytest.mark.parametrize(
        "wrong",
        [
            # G + shift looks exactly on an integer for one boundary kind (the
            # finest rung is tried first) and halfway between two for the other
            lambda lam, z: 0.25,
            lambda lam, z: 0.75,
            lambda lam, z: 1e300,
            lambda lam, z: math.nan,
            lambda lam, z: g_value(lam, z) + 0.37,
        ],
    )
    def test_wrong_hints_leave_counts_unchanged(self, monkeypatch, wrong):
        expected = self._counts()
        monkeypatch.setattr(lattice, "g_value", wrong)
        assert self._counts() == expected

    def test_unverifiable_hinted_rung_falls_back_to_the_skipped_ones(self, monkeypatch):
        # at eps = 1e-10 the finest rung (1e-22) is beyond what a double arccos
        # guess can seed, so a hint that starts there must fall back to the
        # coarser rungs it skipped
        eps = rational(1, 10**10)
        lam, shift = rational(37, 4), rational(3, 4)
        expected = [certified_floor_term(lam, rational(m), shift, eps) for m in range(10)]
        monkeypatch.setattr(lattice, "g_value", lambda lam, z: 0.25)
        assert [certified_floor_term(lam, rational(m), shift, eps) for m in range(10)] == expected


class TestFloorGiveUp:
    """certified_floor_term gives up loudly once every rung of the eps ladder has been tried."""

    @staticmethod
    def straddling(seen):
        # G + 1/4 within eps of 1 on both sides, whatever the rung
        def bracket(lam, z, eps):
            seen.append(eps)
            return RationalInterval(rational(3, 4) - eps, rational(3, 4) + eps)

        return bracket

    def test_bracket_straddling_on_every_rung_is_unresolved(self, monkeypatch):
        seen = []
        monkeypatch.setattr(lattice, "g_bracket", self.straddling(seen))
        eps, z, shift = rational(1, 1000), rational(1), rational(1, 4)
        with pytest.raises(UnresolvedFloorError) as info:
            certified_floor_term(rational(3), z, shift, eps)
        finest = eps / 10**12
        assert sorted(seen) == sorted(eps / 10**rung for rung in range(13))
        assert info.value.abscissa == z
        assert info.value.interval == (1 - finest, 1 + finest)  # the rung-12 bracket plus the shift

    def test_guess_failing_on_every_rung_reraises_the_coarsest(self, monkeypatch):
        raised = {}

        def failing(lam, z, eps):
            raised[eps] = GuessFailedError(f"no bracket at eps={eps}")
            raise raised[eps]

        monkeypatch.setattr(lattice, "g_bracket", failing)
        # a hint exactly on an integer sends the ladder to the finest rung first
        monkeypatch.setattr(lattice, "g_value", lambda lam, z: 0.25)
        eps = rational(1, 1000)
        with pytest.raises(GuessFailedError) as info:
            certified_floor_term(rational(3), rational(1), rational(3, 4), eps)
        assert len(raised) == 13
        assert info.value is raised[eps]

    def test_count_command_reports_the_unresolved_term(self, monkeypatch, capsys):
        monkeypatch.setattr(lattice, "g_bracket", self.straddling([]))
        code = main(["count", "--lambda", "3"])
        assert code == 2
        assert capsys.readouterr().err.startswith("unresolved floor term: ")


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def fork_calls(monkeypatch):
    """The pids that called os.fork, one entry per call."""
    calls = []
    real_fork = os.fork

    def recording_fork():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", recording_fork)
    return calls


@pytest.fixture
def split(monkeypatch):
    """split(n) makes every _floor_sum use n chunks, whatever its size and the CPUs."""

    def force(n):
        monkeypatch.setattr(lattice, "_chunk_count", lambda n_terms: n)

    return force


def _rational_in(rng, lo, hi):
    q = rng.randint(1, 100)
    return Fraction(rng.randint(lo * q, hi * q), q)


_RNG = random.Random(8)
# (label, count, lambda): lambda in [256, 1200] with denominators up to 100
_SPLIT_CASES = [
    ("weighted-D", lambda lam: count_weighted(2, D, lam).value, _rational_in(_RNG, 256, 1200)),
    ("weighted-D", lambda lam: count_weighted(2, D, lam).value, _rational_in(_RNG, 256, 400)),
    ("weighted-N", lambda lam: count_weighted(2, N, lam).value, _rational_in(_RNG, 256, 1200)),
    ("weighted-N", lambda lam: count_weighted(2, N, lam).value, _rational_in(_RNG, 256, 400)),
    ("weighted-3D", lambda lam: count_weighted(3, D, lam).value, _rational_in(_RNG, 256, 400)),
    ("lower", lambda lam: count_neumann2_certified_lower(lam).value, _rational_in(_RNG, 256, 1200)),
    ("lower", lambda lam: count_neumann2_certified_lower(lam).value, _rational_in(_RNG, 256, 1200)),
    ("sector-D", lambda lam: sector_lattice_bound(D, rational(1, 3), lam).value,
     _rational_in(_RNG, 768, 1200)),
    ("sector-N", lambda lam: sector_lattice_bound(N, rational(1, 2), lam).value,
     _rational_in(_RNG, 512, 900)),
]


class TestForkJoinSplit:
    """_floor_sum's split across processes gives the serial sum, or the serial exception."""

    @pytest.mark.parametrize(
        "count,lam", [pytest.param(c, lam, id=f"{label}-{lam}") for label, c, lam in _SPLIT_CASES]
    )
    def test_split_equals_serial(self, split, fork_calls, count, lam):
        split(1)
        serial = count(lam)
        assert fork_calls == []
        for n in (2, 3):
            split(n)
            assert count(lam) == serial
        assert len(fork_calls) == 1 + 2  # n - 1 children per split sum
        _assert_no_child_left()

    def test_large_sum_splits_unforced(self, monkeypatch, fork_calls):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        lam = rational(1000)
        shift = rational(1, 4)
        expected = sum(kappa(2, m) * certified_floor_term(lam, rational(m), shift) for m in range(1001))
        assert count_weighted(2, D, lam).value == expected
        assert len(fork_calls) == 1
        _assert_no_child_left()

    @staticmethod
    def straddling_at(bad, real=lattice.g_bracket):
        """g_bracket whose bracket of G + 1/4 straddles 5 on every rung at the abscissas in bad."""

        def bracket(lam, z, eps):
            if z in bad:
                return RationalInterval(rational(19, 4) - eps, rational(19, 4) + eps)
            return real(lam, z, eps)

        return bracket

    def _serial_and_split_errors(self, monkeypatch, split, bad, n, lam=rational(81, 2)):
        monkeypatch.setattr(lattice, "g_bracket", self.straddling_at(bad))
        errors = []
        for chunks in (1, n):
            split(chunks)
            with pytest.raises(UnresolvedFloorError) as info:
                count_weighted(2, D, lam)
            errors.append((info.value.abscissa, info.value.interval))
            _assert_no_child_left()
        return errors

    @pytest.mark.parametrize(
        "bad,n,first",
        [
            pytest.param({4}, 2, 4, id="parent-chunk"),
            pytest.param({7}, 2, 7, id="child-chunk"),
            pytest.param({8}, 3, 8, id="second-child-chunk"),
            pytest.param({3, 10}, 2, 3, id="child-first-parent-later"),
            pytest.param({4, 11}, 2, 4, id="parent-first-child-later"),
        ],
    )
    def test_failure_in_any_chunk_is_the_serial_failure(self, monkeypatch, split, fork_calls, bad, n, first):
        serial, forked = self._serial_and_split_errors(monkeypatch, split, bad, n)
        assert len(fork_calls) == n - 1
        assert serial == forked
        assert serial[0] == first
        finest = DEFAULT_EPS / 10**12
        assert serial[1] == (5 - finest, 5 + finest)

    def test_keyboard_interrupt_in_the_parent_chunk_reaps_the_children(self, monkeypatch, split, fork_calls):
        real = lattice.g_bracket

        def interrupted(lam, z, eps):
            if z == 2:  # in chunk 0, which this process sums
                raise KeyboardInterrupt
            return real(lam, z, eps)

        monkeypatch.setattr(lattice, "g_bracket", interrupted)
        split(2)
        with pytest.raises(KeyboardInterrupt):
            count_weighted(2, D, rational(300))
        assert len(fork_calls) == 1
        _assert_no_child_left()

    @staticmethod
    def silent_children(monkeypatch):
        """Children exit 0 with nothing on the pipe."""
        parent, real = os.getpid(), lattice._serial_floor_sum

        def serial(*args):
            if os.getpid() != parent:
                os._exit(0)
            return real(*args)

        monkeypatch.setattr(lattice, "_serial_floor_sum", serial)

    @staticmethod
    def children_failing_mid_write(monkeypatch):
        """Children write the first digit of their total, then fail: the digit parses as an integer."""
        parent, real = os.getpid(), os.write

        def write(fd, data):
            if os.getpid() == parent:
                return real(fd, data)
            if len(data) > 1:
                return real(fd, data[:1])
            raise OSError("broken pipe")

        monkeypatch.setattr(os, "write", write)

    @pytest.mark.parametrize("fault", ["silent_children", "children_failing_mid_write"])
    def test_a_child_that_does_not_finish_is_not_counted(self, monkeypatch, split, fork_calls, fault):
        expected = count_weighted(2, N, rational(301, 3)).value
        getattr(self, fault)(monkeypatch)
        split(2)
        assert count_weighted(2, N, rational(301, 3)).value == expected
        assert len(fork_calls) == 1
        _assert_no_child_left()

    def test_chunk_count_rules(self, monkeypatch):
        cpus = {"n": 4}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus["n"])), raising=False)
        monkeypatch.setattr(os, "fork", os.fork if hasattr(os, "fork") else None, raising=False)
        chunk_count = lattice._chunk_count
        assert lattice._SPLIT_MIN_TERMS == 256
        assert chunk_count(255) == 1
        assert chunk_count(256) == 2
        assert chunk_count(383) == 2
        assert chunk_count(384) == 3
        assert chunk_count(5000) == 4  # never more chunks than usable CPUs
        cpus["n"] = 1
        assert chunk_count(5000) == 1
        cpus["n"] = 4
        release = threading.Event()
        worker = threading.Thread(target=release.wait)
        worker.start()
        try:
            assert chunk_count(5000) == 1  # a fork would not copy the other thread
        finally:
            release.set()
            worker.join()
        assert chunk_count(5000) == 4
        monkeypatch.delattr(os, "fork")
        assert chunk_count(5000) == 1

    def test_chunk_count_without_affinity_uses_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr(os, "fork", os.fork if hasattr(os, "fork") else None, raising=False)
        assert lattice._chunk_count(1000) == 3

    def test_small_sums_never_fork(self, monkeypatch):
        # the largest sums of acceptance 03, 04, 05 and 08 and of the
        # exact_sweep and certify_verify benchmark workloads
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "fork", no_fork, raising=False)
        sizes = []
        real_chunk_count = lattice._chunk_count

        def recording_chunk_count(n_terms):
            sizes.append(n_terms)
            return real_chunk_count(n_terms)

        monkeypatch.setattr(lattice, "_chunk_count", recording_chunk_count)
        eps = rational(1, 1000)
        count_weighted(2, D, rational(100), eps)
        count_weighted(2, N, rational(100), eps)
        for d in (3, 4, 5):
            count_weighted(d, D, rational(30), eps)
            count_dirichlet_dim_reduction(d, rational(17), eps)
        count_neumann2_certified_lower(rational(100), eps)
        for kind in (D, N):
            sector_lattice_bound(kind, rational(2), rational(30), eps)
        assert max(sizes) < 128
        assert all(real_chunk_count(n) == 1 for n in sizes)


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


class TestCumulativeMultiplicity:
    def test_zero_before_threshold(self):
        assert cumulative_multiplicity(3, 0.4) == 0.0

    def test_touches_bound_at_integer_knot(self):
        assert cumulative_multiplicity(3, 3) == pytest.approx(4.5, abs=1e-12)
        assert cumulative_multiplicity_bound(3, 3) == pytest.approx(4.5, abs=1e-12)

    def test_four_dimensional_value(self):
        assert cumulative_multiplicity(4, 5) == pytest.approx(20.0, abs=1e-12)
        assert cumulative_multiplicity_bound(4, 5) == pytest.approx(125 / 6, abs=1e-12)

    def test_matches_step_integral(self):
        # independent oracle: midpoint rule on 1/64 cells is exact for the
        # piecewise-constant density (its jumps sit on the half-integer grid)
        for d in (3, 4, 5):
            for z in (0.7, 1.0, 2.3, 5.5, 9.25):
                total = 0.0
                t = 0.0
                grid = 1 / 64
                while t < z:
                    top = min(t + grid, z)
                    total += multiplicity_step(d, (t + top) / 2) * (top - t)
                    t = top
                assert cumulative_multiplicity(d, z) == pytest.approx(total, abs=1e-9)

    @given(
        d=st.integers(3, 8),
        z_scaled=st.integers(0, 3200),
    )
    @settings(max_examples=1000, deadline=None)
    def test_bound_dominates(self, d, z_scaled):
        z = z_scaled / 64
        assert cumulative_multiplicity(d, z) <= cumulative_multiplicity_bound(d, z) + 1e-12

    def test_bad_dimension(self):
        with pytest.raises(BadDimensionError):
            cumulative_multiplicity(2, 1.0)


def evaluate_piecewise_linear(breaks, vals, t):
    for (t0, t1), (v0, v1) in zip(zip(breaks, breaks[1:]), zip(vals, vals[1:])):
        if t0 <= t <= t1:
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    raise AssertionError(f"{t} outside table")


def admissible_tables(require_lower=False):
    """Random admissible piecewise-linear tables on a quarter grid."""

    @st.composite
    def build(draw):
        n_segments = draw(st.integers(1, 4))
        lengths = [draw(st.integers(1, 8)) for _ in range(n_segments)]  # quarters
        magnitudes = sorted(
            (draw(st.integers(0, 8)) for _ in range(n_segments)), reverse=True
        )  # slopes -m/16, steepest first keeps the table convex
        seg_breaks = [Fraction(0)]
        for length in lengths:
            seg_breaks.append(seg_breaks[-1] + Fraction(length, 4))
        b = seg_breaks[-1]
        seg_vals = [Fraction(0)] * (n_segments + 1)
        for i in range(n_segments - 1, -1, -1):
            seg_vals[i] = seg_vals[i + 1] + Fraction(magnitudes[i], 16) * Fraction(lengths[i], 4)
        quarters = [Fraction(k, 4) for k in range(int(b * 4) + 1)]
        values = [
            evaluate_piecewise_linear(seg_breaks, seg_vals, t) for t in quarters
        ]
        table = ConvexTable(tuple(float(t) for t in quarters), tuple(float(v) for v in values))
        if require_lower:
            assume(values[0] >= Fraction(1, 4))
            above = [m for m in range(math.floor(b) + 1) if values[4 * m] >= Fraction(1, 4)]
            assume(above and 1 + max(above) <= b)
        return table

    return build()


class TestConvexCountChecks:
    def test_zero_function_is_equality(self):
        table = ConvexTable((0.0, 1.0, 2.0), (0.0, 0.0, 0.0))
        assert check_convex_count_upper(table)

    def test_table_is_an_immutable_validated_value(self):
        table = ConvexTable((0.0, 1.0), (0.5, 0.0))
        assert table == ConvexTable((0.0, 1.0), (0.5, 0.0))
        assert table != ConvexTable((0.0, 1.0), (0.25, 0.0))
        assert hash(table) == hash(((0.0, 1.0), (0.5, 0.0)))
        assert repr(table) == "ConvexTable(breakpoints=(0.0, 1.0), values=(0.5, 0.0))"
        with pytest.raises(AttributeError):
            table.values = (0.0, 0.0)
        for breakpoints, values in [((0.0,), (0.0,)), ((0.5, 1.0), (0.1, 0.0)), ((0.0, 0.0), (0.1, 0.0))]:
            with pytest.raises(ValueError):
                ConvexTable(breakpoints, values)

    def test_curve_table_passes_upper(self):
        lam = 7.0
        table = ConvexTable.from_function(lambda z: g_value(lam, z), lam)
        assert check_convex_count_upper(table)

    def test_curve_table_passes_lower(self):
        for lam in (2.0, 14.0):
            table = ConvexTable.from_function(lambda z: g_value(lam, z), lam)
            assert check_convex_count_lower(table)

    def test_one_interval_equality_case(self):
        # the half-weighted one-interval inequality is attained by the line
        # with slope -1/2 passing through n + 3/4 at the left endpoint
        n, i = 1, 0
        g = lambda z: n + (i - z) / 2 + 3 / 4
        lhs = 0.5 * math.floor(g(i) + 0.25) + 0.5 * math.floor(g(i + 1) + 0.25)
        integral = (g(i) + g(i + 1)) / 2
        assert lhs == integral == n + 0.5

    def test_hypothesis_violations_are_named(self):
        with pytest.raises(HypothesisViolatedError, match="decreasing"):
            check_convex_count_upper(ConvexTable((0.0, 1.0, 2.0), (0.5, 0.8, 0.0)))
        with pytest.raises(HypothesisViolatedError, match="slope"):
            check_convex_count_upper(ConvexTable((0.0, 1.0, 2.0), (1.3, 0.6, 0.0)))
        with pytest.raises(HypothesisViolatedError, match="endpoint"):
            check_convex_count_upper(ConvexTable((0.0, 1.0), (0.5, 0.2)))
        with pytest.raises(HypothesisViolatedError, match="convex"):
            check_convex_count_upper(
                ConvexTable((0.0, 1.0, 2.0, 3.0), (0.8, 0.7, 0.4, 0.0))
            )
        with pytest.raises(HypothesisViolatedError, match="non-negative"):
            check_convex_count_upper(ConvexTable((0.0, 1.0, 2.0), (0.4, -0.1, 0.0)))

    def test_lower_requires_quarter_start(self):
        with pytest.raises(HypothesisViolatedError, match="1/4"):
            check_convex_count_lower(ConvexTable((0.0, 1.0), (0.2, 0.0)))

    def test_m0_exceeding_b_is_reported(self):
        table = ConvexTable((0.0, 1.0, 1.9), (0.57, 0.27, 0.0))
        with pytest.raises(M0ExceedsBError):
            check_convex_count_lower(table)

    @given(table=admissible_tables())
    @settings(max_examples=200, deadline=None)
    def test_upper_never_fails_on_admissible_tables(self, table):
        assert check_convex_count_upper(table)

    @given(table=admissible_tables(require_lower=True))
    @settings(max_examples=200, deadline=None)
    def test_lower_never_fails_on_admissible_tables(self, table):
        assert check_convex_count_lower(table)

