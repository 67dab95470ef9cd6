"""Acceptance suite: one test per criterion, each printing a PASS line.

Every criterion runs at its stated tolerance (exact rational comparison
where required, no float in any certified comparison) and asserts its
runtime budget.  Run with ``pytest tests/test_acceptance.py -v -s`` to see
the per-criterion lines.
"""
import math
import time

import mpmath
import pytest

from polyacert.analysis import a_value, g_moment
from polyacert.bessel import (
    count_zeros,
    eigencount_ball_dirichlet,
    eigencount_disk_neumann,
    eigencount_sector,
)
from polyacert.certify import (
    Certificate,
    CertificateStep,
    certify,
    gap_endpoints,
    verify_certificate,
)
from polyacert.curve import BoundKind, g_value, weyl_leading_bounds
from polyacert.lattice import (
    count_dirichlet_dim_reduction,
    count_neumann2_certified_lower,
    count_weighted,
)
from polyacert.rational import (
    format_rational,
    rat_ceil,
    rational,
    simplest_in,
    to_float,
)
from polyacert.verified import arccos_bounds, cos_bounds, pi_bounds, sqrt_bounds

D = BoundKind.DIRICHLET
N = BoundKind.NEUMANN

EPS = rational(1, 1000)


class Budget:
    """Wall-clock guard that also prints the acceptance line."""

    def __init__(self, number: int, label: str, seconds: float):
        self.number = number
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        if exc_type is None:
            print(f"ACCEPTANCE {self.number} ({self.label}): PASS [{elapsed:.2f}s]")
            assert elapsed < self.seconds, f"runtime budget exceeded: {elapsed:.1f}s"
        else:
            print(f"ACCEPTANCE {self.number} ({self.label}): FAIL [{elapsed:.2f}s]")
        return False


EXPECTED_TABLE = [
    ("3", "3/4", "6/13"),
    ("45/13", "1355/676", "223/221"),
    ("76/17", "868/289", "584/493"),
    ("164/29", "3368/841", "995/783"),
    ("187/27", "11687/2916", "29/27"),
    ("8", "3", "43/60"),
    ("523/60", "57671/14400", "227/260"),
    ("374/39", "6098/1521", "719/897"),
    ("239/23", "10591/2116", "339/368"),
    ("181/16", "4103/1024", "11/16"),
    ("12", "6", "24/25"),
    ("324/25", "2506/625", "241/400"),
    ("217/16", "7183/1024", "271/272"),
]


def test_01_certification_table_reproduction():
    with Budget(1, "certification table reproduction", 10):
        cert = certify(3, 14, EPS)
        # mandatory fallback: success within 50 steps, every invariant exact
        assert cert.success and len(cert.steps) <= 50
        for step in cert.steps:
            assert step.e_lower == step.p_lower - step.lam * step.lam / 4
            assert step.e_lower > 0 and step.delta_lower > 0
            reach = step.lam + step.delta_lower
            assert reach * reach <= step.lam * step.lam + 4 * step.e_lower
        for here, there in zip(cert.steps, cert.steps[1:]):
            assert there.lam <= here.lam + here.delta_lower
        assert cert.steps[-1].lam + cert.steps[-1].delta_lower > 14
        # target: exact rational equality with the published run, zero tolerance
        got = [
            (format_rational(s.lam), format_rational(s.e_lower), format_rational(s.delta_lower))
            for s in cert.steps
        ]
        assert got == EXPECTED_TABLE
        assert format_rational(cert.steps[-1].lam + cert.steps[-1].delta_lower) == "495/34"


def test_02_certificate_soundness_and_fault_detection():
    with Budget(2, "certificate soundness + fault injection", 5):
        cert = certify(3, 14, EPS)
        assert verify_certificate(cert).all_passed

        def tampered(position, **changes):
            clone = Certificate.from_json_dict(cert.to_json_dict())
            old = clone.steps[position]
            fields = dict(
                index=old.index,
                lam=old.lam,
                p_lower=old.p_lower,
                e_lower=old.e_lower,
                delta_lower=old.delta_lower,
            )
            fields.update(changes)
            clone.steps[position] = CertificateStep(**fields)
            return clone

        negative_margin = tampered(3, e_lower=rational(-1, 8))
        assert not verify_certificate(negative_margin).sound

        inflated = tampered(6, delta_lower=cert.steps[6].delta_lower * 2)
        assert not verify_certificate(inflated).sound

        broken_chain = tampered(9, lam=cert.steps[9].lam + rational(1, 3))
        assert not verify_certificate(broken_chain).sound


def test_03_planar_dirichlet_inequality():
    with Budget(3, "planar Dirichlet count below leading term", 60):
        for k in range(1, 401):
            lam = rational(k, 4)
            count = count_weighted(2, D, lam, EPS).value
            assert count < rational(k * k, 64), f"failed at lambda={lam}"


def test_04_higher_dimensional_dirichlet_inequality():
    with Budget(4, "higher-dimensional Dirichlet inequality", 120):
        for d in (3, 4, 5):
            for k in range(1, 61):
                lam = rational(k, 2)
                count = count_weighted(d, D, lam, EPS).value
                leading_lower = weyl_leading_bounds(d, lam, EPS).lo
                assert count < leading_lower, f"failed at d={d}, lambda={lam}"


def test_05_neumann_inequality_above_gap():
    with Budget(5, "Neumann count above leading term past the gap", 60):
        _, target = gap_endpoints(EPS)
        k_start = rat_ceil(4 * target)
        assert k_start <= 400
        for k in range(k_start, 401):
            lam = rational(k, 4)
            lower = count_neumann2_certified_lower(lam, EPS).value
            assert lower > rational(k * k, 64), f"failed at lambda={lam}"


def test_06_eigenvalue_count_cross_check():
    with Budget(6, "eigenvalue counts vs lattice counts", 120):
        for k in range(1, 61):
            lam = rational(k, 2)
            lam_f = k / 2
            for d in (2, 3, 4):
                assert eigencount_ball_dirichlet(d, lam_f) <= count_weighted(d, D, lam, EPS).value
            assert eigencount_disk_neumann(lam_f) >= count_weighted(2, N, lam, EPS).value


def test_07_zero_count_envelope_cross_check():
    with Budget(7, "Bessel zero counts vs envelope", 60):
        for nu in (0.0, 0.5, 1.0, 2.5, 7.0, 20.0):
            for j in range(0, 241):
                lam = j / 4
                dirichlet_cap = math.floor(a_value(D, nu, lam))
                assert count_zeros(nu, lam) <= dirichlet_cap
                neumann_floor = math.floor(a_value(N, nu, lam))
                assert count_zeros(nu, lam, derivative=True) >= neumann_floor


def test_08_dimension_reduction_equality():
    with Budget(8, "dimension reduction equality", 30):
        for d in (3, 4, 5, 6):
            for lam in (rational(1), rational(5, 2), rational(6), rational(10), rational(17)):
                direct = count_weighted(d, D, lam, EPS).value
                reduced = count_dirichlet_dim_reduction(d, lam, EPS).value
                assert direct == reduced, f"d={d}, lambda={format_rational(lam)}"


def test_09_moment_identities():
    with Budget(9, "area moment identities", 5):
        assert g_moment(1, 0) == 1 / 8
        assert g_moment(7, 0) == 49 / 8
        for lam in (1.0, 7.0):
            for beta in (0.0, 1.0, 2.0, 3.5):
                with mpmath.workdps(30):
                    oracle = mpmath.quad(
                        lambda z: z**beta
                        * (mpmath.sqrt(lam * lam - z * z) - z * mpmath.acos(z / lam)),
                        [0, lam],
                    ) / mpmath.pi
                assert abs(g_moment(lam, beta) - float(oracle)) < 1e-10


def test_10_sector_inequalities():
    with Budget(10, "sector eigenvalue counts vs leading term", 120):
        for alpha in (math.pi / 3, math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi):
            for k in range(1, 61):
                lam = k / 2
                leading = alpha * lam * lam / (8 * math.pi)
                below = eigencount_sector(D, alpha, lam)
                above = eigencount_sector(N, alpha, lam)
                assert below < leading < above, (alpha, lam, below, leading, above)


def test_11_verified_approximation_properties():
    with Budget(11, "verified approximation property suite", 10):
        # bracket validity for square roots, across magnitudes and accuracies
        for num in (2, 3, 5, 12, 97, 1234, 99991):
            for eps_exp in (2, 3, 6, 9):
                eps = rational(1, 10**eps_exp)
                iv = sqrt_bounds(rational(num), eps)
                assert iv.lo >= 0 and iv.lo**2 <= num <= iv.hi**2
                assert iv.width <= 6 * eps
        # smallest-denominator minimality vs brute force
        cases = [
            (rational(69, 500), rational(71, 500)),
            (rational(1, 3), rational(1, 2)),
            (rational(7, 10), rational(29, 40)),
            (rational(-22, 7), rational(-3)),
            (rational(355, 113) - rational(1, 10**6), rational(355, 113)),
        ]
        for lo, hi in cases:
            best = simplest_in(lo, hi)
            for q in range(1, int(best.denominator)):
                p_lo = rat_ceil(lo * q)
                assert rational(p_lo, q) > hi, f"denominator {q} beats {best}"
        # Taylor sandwich: exact width identity and high-precision containment
        for num in (1, 2, 5, 10, 15):
            x = rational(num, 10)
            iv = cos_bounds(x)
            assert iv.width == x**14 / math.factorial(14)
            with mpmath.workdps(120):
                true = mpmath.cos(mpmath.mpf(num) / 10)
                assert mpmath.mpf(int(iv.lo.numerator)) / int(iv.lo.denominator) < true
                assert mpmath.mpf(int(iv.hi.numerator)) / int(iv.hi.denominator) > true
        # arccos brackets verified through the sandwich
        for num in (0, 1, 250, 500, 866, 999, 1000):
            x = rational(num, 1000)
            iv = arccos_bounds(x, EPS)
            assert iv.width <= 6 * EPS
            with mpmath.workdps(60):
                true = mpmath.acos(mpmath.mpf(num) / 1000)
                pad = mpmath.mpf("1e-50")
                assert mpmath.mpf(int(iv.lo.numerator)) / int(iv.lo.denominator) <= true + pad
                assert mpmath.mpf(int(iv.hi.numerator)) / int(iv.hi.denominator) >= true - pad
        # pi bracket: known rational bound and width scaling
        for eps_exp in (3, 6):
            eps = rational(1, 10**eps_exp)
            pi = pi_bounds(eps)
            assert pi.lo < rational(314159265, 100000000) < pi.hi
            assert pi.width <= 18 * eps
        assert pi_bounds(EPS).lo > 3
