"""Double-precision analysis of the counting curve: moments, Weyl terms, oracles.

Everything here is floating point and non-certified, for plots and
cross-checks of the certified counts.  The certified modules (``rational``,
``verified``, ``curve``, ``lattice`` and ``certify``) never import this one;
it imports from them.  ``cli`` imports it only inside ``oracle`` and
``plotdata``, so ``certify``, ``verify`` and ``count`` never load it.
``lattice`` still resolves ``count_weighted_oracle`` and
``sector_lattice_bound_oracle``, which the benchmark reads there, by
importing this module on first use.
"""
from __future__ import annotations

import math

from .curve import BoundKind, g_value
from .errors import BadDimensionError, DomainError
from .lattice import CountResult, Rigor, _validate_count_args, kappa
from .rational import to_float


def g_moment(lam: float, beta: float) -> float:
    """Closed form of the weighted area integral of z^beta times the curve height.

    Equals Gamma((beta+1)/2) * lam^(beta+2) / (4*sqrt(pi)*(beta+2)*Gamma((beta+4)/2));
    for beta = 0 this is lam^2/8, the plain area under the curve.
    """
    if lam <= 0:
        raise DomainError(f"lam must be positive, got {lam}")
    if beta < 0:
        raise DomainError(f"beta must be non-negative, got {beta}")
    if beta == 0:
        return lam * lam / 8  # the gamma factors cancel exactly
    return (
        math.gamma((beta + 1) / 2)
        * lam ** (beta + 2)
        / (4 * math.sqrt(math.pi) * (beta + 2) * math.gamma((beta + 4) / 2))
    )


def weyl_leading(d: int, lam: float) -> float:
    """Leading eigenvalue-count asymptotics for the unit ball: w_d * lam^d."""
    if d < 2:
        raise BadDimensionError(f"dimension must be >= 2, got {d}")
    if lam < 0:
        raise DomainError(f"lam must be non-negative, got {lam}")
    w = 1 / (2**d * math.gamma(d / 2 + 1) ** 2)
    return w * lam**d


def a_value(kind: BoundKind, nu: float, lam: float) -> float:
    """Envelope for the number of Bessel (derivative) zeros below lam.

    Equals the curve height at nu plus the kind's shift when lam >= nu, and
    just the shift otherwise.
    """
    if nu < 0 or lam < 0:
        raise DomainError(f"nu and lam must be non-negative, got nu={nu}, lam={lam}")
    shift = float(kind.shift)
    if lam < nu:
        return shift
    return g_value(lam, nu) + shift if lam > 0 else shift


def count_weighted_oracle(d: int, kind: BoundKind, lam: float) -> CountResult:
    """Double-precision evaluation of the weighted count; not certified."""
    _validate_count_args(d, kind)
    if lam < 0:
        raise DomainError(f"lam must be non-negative, got {lam}")
    if lam == 0:
        return CountResult(0, Rigor.ORACLE)
    shift = to_float(kind.shift)
    m_top = math.floor(lam - d / 2 + 1)
    total = 0
    for m in range(m_top + 1):
        total += kappa(d, m) * math.floor(g_value(lam, m + d / 2 - 1) + shift)
    return CountResult(total, Rigor.ORACLE)


def sector_lattice_bound_oracle(kind: BoundKind, alpha: float, lam: float) -> CountResult:
    """Double-precision sector count for arbitrary apertures in (0, 2*pi]."""
    if not 0 < alpha <= 2 * math.pi + 1e-12:
        raise DomainError(f"aperture must lie in (0, 2*pi], got {alpha}")
    if lam < 0:
        raise DomainError(f"lam must be non-negative, got {lam}")
    shift = to_float(kind.shift)
    start = 1 if kind is BoundKind.DIRICHLET else 0
    total = 0
    for m in range(start, math.floor(alpha * lam / math.pi) + 1):
        z = m * math.pi / alpha
        total += math.floor((g_value(lam, z) if lam > 0 else 0.0) + shift)
    return CountResult(total, Rigor.ORACLE)
