"""Tests for the Bessel zero oracle and eigenvalue counting functions."""
import math

import pytest
from scipy.special import jn_zeros, jnp_zeros

from polyacert.bessel import (
    _positive_zeros,
    bessel_j,
    bessel_j_deriv,
    count_zeros,
    eigencount_ball_dirichlet,
    eigencount_disk_neumann,
    eigencount_sector,
)
from polyacert.curve import BoundKind
from polyacert.errors import DomainError

D = BoundKind.DIRICHLET
N = BoundKind.NEUMANN


class TestEvaluation:
    def test_half_order_closed_form(self):
        for x in (1.0, math.pi, 10.0):
            expected = math.sqrt(2 / (math.pi * x)) * math.sin(x)
            assert bessel_j(0.5, x) == pytest.approx(expected, abs=1e-12)

    def test_at_origin(self):
        assert bessel_j(0, 0) == 1.0
        assert bessel_j(3, 0) == 0.0

    def test_near_first_zero(self):
        assert abs(bessel_j(0, 2.404825557)) < 1e-6

    def test_derivative_small_argument(self):
        assert bessel_j_deriv(0, 1e-4) == pytest.approx(-0.5e-4, rel=1e-6)
        # order-2 derivative vanishes linearly (~x/4) toward the origin
        assert bessel_j_deriv(2, 1e-6) == pytest.approx(2.5e-7, rel=1e-6)
        assert abs(bessel_j_deriv(2, 1e-6)) < 1e-6

    def test_derivative_near_first_critical_point(self):
        assert abs(bessel_j_deriv(1, 1.841183)) < 1e-5

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_j(-1, 2)
        with pytest.raises(DomainError):
            bessel_j_deriv(0, 0)


class TestZeroLocation:
    @pytest.mark.parametrize("order", [0, 1, 2, 5, 11])
    def test_matches_scipy_zero_tables(self, order):
        ours = _positive_zeros(float(order), False, 40.0)
        reference = [z for z in jn_zeros(order, 20) if z <= 40.0]
        assert len(ours) == len(reference)
        for a, b in zip(ours, reference):
            assert a == pytest.approx(b, abs=1e-9)

    @pytest.mark.parametrize("order", [0, 1, 2, 5])
    def test_matches_scipy_derivative_zero_tables(self, order):
        ours = _positive_zeros(float(order), True, 40.0)
        reference = [z for z in jnp_zeros(order, 20) if z <= 40.0]
        assert len(ours) == len(reference)
        for a, b in zip(ours, reference):
            assert a == pytest.approx(b, abs=1e-9)


class TestCountZeros:
    def test_below_first_zero(self):
        assert count_zeros(0, 2) == 0

    def test_origin_convention_for_derivative(self):
        assert count_zeros(0, 0, derivative=True) == 1

    def test_first_zero_exceeds_order(self):
        assert count_zeros(7, 7) == 0

    def test_counts_follow_zero_table(self):
        # j_0: 2.4048, 5.5201, 8.6537, 11.7915
        for lam, expected in ((2.4, 0), (3, 1), (6, 2), (9, 3), (11.8, 4)):
            assert count_zeros(0, lam) == expected

    def test_boundary_inclusive_for_half_order(self):
        # zeros of the half-order function sit exactly at multiples of pi
        assert count_zeros(0.5, math.pi) == 1
        assert count_zeros(0.5, 2 * math.pi) == 2

    def test_range_validated(self):
        with pytest.raises(DomainError):
            count_zeros(150, 10)
        with pytest.raises(DomainError):
            count_zeros(1, 300)


class TestEigencounts:
    def test_disk_dirichlet(self):
        assert eigencount_ball_dirichlet(2, 2) == 0
        assert eigencount_ball_dirichlet(2, 3) == 1

    def test_ball_three_dimensional_half_order(self):
        assert eigencount_ball_dirichlet(3, math.pi) == 1

    def test_disk_neumann(self):
        assert eigencount_disk_neumann(0) == 1
        assert eigencount_disk_neumann(2) == 3
        assert eigencount_disk_neumann(4) == 6

    def test_dirichlet_below_neumann(self):
        for k in range(0, 41):
            lam = k / 2
            assert eigencount_ball_dirichlet(2, lam) <= eigencount_disk_neumann(lam)

    def test_sector_constant_mode(self):
        assert eigencount_sector(N, 2 * math.pi, 0) == 1

    def test_sector_dirichlet_examples(self):
        assert eigencount_sector(D, math.pi, 3) == 0
        assert eigencount_sector(D, math.pi / 2, 6) == 1

    def test_sector_full_aperture_matches_weighted_structure(self):
        # aperture 2*pi gives orders m/2; spot value via scipy tables
        lam = 6.0
        expected = sum(
            len([z for z in jn_zeros(1, 5) if z <= lam]) for _ in (0,)
        )  # j_1 zeros <= 6: just 3.8317
        assert count_zeros(1.0, lam) == expected
