"""Floating-point oracle for Bessel zeros and true eigenvalue counting functions.

Everything in this module is double precision and explicitly non-rigorous;
it exists to cross-validate the certified lattice counts against the actual
spectra of the disk, balls, and circular sectors at desk scale.  Nothing
here is ever consulted by certificate production.

Zeros are located by sign scanning with step 1/2 followed by root
refinement.  Consecutive zeros of J_nu and of J_nu' lie more than 3 apart
over the supported range: measured on every order nu = k/2 <= 120 up to
x = 200, the closest pair is the first two zeros of J_0, 3.115 apart.  So
no scan cell of width 1/2 holds two of them, and every zero shows as one
sign change.

Counting convention: the derivative of the order-zero function has its first
zero at the origin, which is included in every derivative zero count.

scipy is imported inside the functions that evaluate Bessel functions, so
that importing the package for the certified paths does not load it.
"""
from __future__ import annotations

import math
from functools import lru_cache, partial

from .curve import BoundKind
from .errors import AccuracyLossError, DomainError
from .lattice import kappa

NU_MAX = 120.0
LAMBDA_MAX = 200.0
# The eigenvalue counts below are supported for 0 <= lam <= EIGENCOUNT_LAMBDA_MAX.
EIGENCOUNT_LAMBDA_MAX = 100

_SCAN_STEP = 0.5
_COUNT_TOL = 1e-9


def bessel_j(nu: float, x: float) -> float:
    """J_nu(x) for nu >= 0, x >= 0 (double precision)."""
    if nu < 0 or x < 0:
        raise DomainError(f"need nu >= 0 and x >= 0, got nu={nu}, x={x}")
    from scipy.special import jv

    value = float(jv(nu, x))
    if not math.isfinite(value):
        raise AccuracyLossError(f"J_{nu}({x}) evaluation lost accuracy: {value}")
    return value


def bessel_j_deriv(nu: float, x: float) -> float:
    """dJ_nu/dx at x > 0, via (J_(nu-1) - J_(nu+1))/2 (with J_0' = -J_1)."""
    if nu < 0 or x <= 0:
        raise DomainError(f"need nu >= 0 and x > 0, got nu={nu}, x={x}")
    from scipy.special import jvp

    value = float(jvp(nu, x))
    if not math.isfinite(value):
        raise AccuracyLossError(f"J'_{nu}({x}) evaluation lost accuracy: {value}")
    return value


@lru_cache(maxsize=4096)
def _positive_zeros(nu: float, derivative: bool, x_hi: float) -> tuple[float, ...]:
    """All positive zeros up to x_hi, ascending, by the checked bessel_j(_deriv).  Cached per (nu, kind, ceiling).

    One zero per sign change of a scan with step _SCAN_STEP (see the module
    note), refined by brentq.
    """
    from scipy.optimize import brentq

    t0 = max(0.8 * nu, 0.1)
    if t0 >= x_hi:
        return ()
    func = partial(bessel_j_deriv if derivative else bessel_j, nu)
    zeros: list[float] = []
    f0 = func(t0)
    while t0 < x_hi - 1e-15:
        t1 = min(t0 + _SCAN_STEP, x_hi)
        f1 = func(t1)
        if f0 == 0.0:
            zeros.append(t0)
        elif f0 * f1 < 0.0:
            zeros.append(float(brentq(func, t0, t1, xtol=1e-13, rtol=1e-14)))
        t0, f0 = t1, f1
    if f0 == 0.0:
        zeros.append(t0)
    return tuple(zeros)


def count_zeros(nu: float, lam: float, derivative: bool = False) -> int:
    """Number of positive zeros of J_nu (or J'_nu) that are <= lam.

    The order-zero derivative convention holds: its zero at the origin counts.
    """
    if nu < 0 or lam < 0:
        raise DomainError(f"need nu >= 0 and lam >= 0, got nu={nu}, lam={lam}")
    if nu > NU_MAX or lam > LAMBDA_MAX:
        raise DomainError(f"supported range is nu <= {NU_MAX}, lam <= {LAMBDA_MAX}")
    bonus = 1 if (derivative and nu == 0) else 0
    if lam <= 0.1:
        return bonus  # scan starts above 0.1; no positive zero can be that small
    x_hi = 10.0 * math.ceil(lam / 10.0)
    zeros = _positive_zeros(float(nu), bool(derivative), x_hi)
    cutoff = lam + _COUNT_TOL * (1.0 + lam)
    return bonus + sum(1 for z in zeros if z <= cutoff)


def eigencount_ball_dirichlet(d: int, lam: float) -> int:
    """Dirichlet eigenvalue count of the unit d-ball at spectral parameter lam."""
    if d < 2:
        raise DomainError(f"dimension must be >= 2, got {d}")
    return _ball_count(d, lam, derivative=False)


def eigencount_disk_neumann(lam: float) -> int:
    """Neumann eigenvalue count of the unit disk, zero mode included."""
    return _ball_count(2, lam, derivative=True)


def _ball_count(d: int, lam: float, derivative: bool) -> int:
    """sum of kappa(d, m) * count_zeros(m + d/2 - 1, lam, derivative) over m = 0 .. floor(lam - d/2 + 1).

    The d-ball's Dirichlet count over zeros, and with d = 2 the disk's
    Neumann count over derivative zeros, whose order-zero zero at the
    origin is the zero mode.
    """
    if lam < 0 or lam > EIGENCOUNT_LAMBDA_MAX:
        raise DomainError(f"supported range is 0 <= lam <= {EIGENCOUNT_LAMBDA_MAX}, got {lam}")
    return sum(
        kappa(d, m) * count_zeros(m + d / 2 - 1, lam, derivative) for m in range(math.floor(lam - d / 2 + 1) + 1)
    )


def eigencount_sector(kind: BoundKind, alpha: float, lam: float) -> int:
    """Eigenvalue count of the circular sector of aperture alpha in (0, 2*pi]."""
    if not 0 < alpha <= 2 * math.pi + 1e-12:
        raise DomainError(f"aperture must lie in (0, 2*pi], got {alpha}")
    if lam < 0 or lam > EIGENCOUNT_LAMBDA_MAX:
        raise DomainError(f"supported range is 0 <= lam <= {EIGENCOUNT_LAMBDA_MAX}, got {lam}")
    derivative = kind is BoundKind.NEUMANN
    start = 0 if derivative else 1
    total = 0
    for m in range(start, math.floor(alpha * lam / math.pi) + 1):
        nu = m * math.pi / alpha
        total += count_zeros(nu, lam, derivative)
    return total
