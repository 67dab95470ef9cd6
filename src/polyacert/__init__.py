"""Certified lattice-point counting for eigenvalue inequalities on disks and balls.

The package computes weighted shifted-lattice-point counts that bound
Laplacian eigenvalue counting functions, entirely in exact rational
arithmetic on the certified paths, and runs a replayable certification loop
proving the planar Neumann counting inequality across the spectral interval
not covered analytically.  A floating-point Bessel oracle cross-validates
the certified counts against the true spectra at desk scale, and the
double-precision analysis of the curve lives apart from the certified
modules, in ``polyacert.analysis``.
"""
from .certify import (
    Certificate,
    CertificateStep,
    VerificationReport,
    certify,
    gap_endpoints,
    verify_certificate,
)
from .curve import (
    BoundKind,
    g_bracket,
    g_lower,
    g_value,
    weyl_leading_bounds,
)
from .bessel import (
    ZeroCountQuery,
    bessel_j,
    bessel_j_deriv,
    count_zeros,
    eigencount_ball_dirichlet,
    eigencount_disk_neumann,
    eigencount_sector,
)
from .lattice import (
    CountResult,
    Rigor,
    certified_floor_term,
    count_dirichlet_dim_reduction,
    count_neumann2_certified_lower,
    count_weighted,
    kappa,
    sector_lattice_bound,
)
from .analysis import (
    a_value,
    count_weighted_oracle,
    cumulative_multiplicity,
    cumulative_multiplicity_bound,
    g_inverse_quarter,
    g_moment,
    multiplicity_step,
    r1,
    r2_margin,
    sector_lattice_bound_oracle,
    weyl_leading,
)
from .rational import (
    as_rational,
    format_rational,
    parse_rational,
    rational,
    simplest_in,
)
from .verified import (
    DEFAULT_EPS,
    RationalInterval,
    arccos_bounds,
    cos_bounds,
    pi_bounds,
    sqrt_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "BoundKind",
    "Certificate",
    "CertificateStep",
    "CountResult",
    "DEFAULT_EPS",
    "RationalInterval",
    "Rigor",
    "VerificationReport",
    "ZeroCountQuery",
    "a_value",
    "arccos_bounds",
    "as_rational",
    "bessel_j",
    "bessel_j_deriv",
    "certified_floor_term",
    "certify",
    "cos_bounds",
    "count_dirichlet_dim_reduction",
    "count_neumann2_certified_lower",
    "count_weighted",
    "count_weighted_oracle",
    "count_zeros",
    "cumulative_multiplicity",
    "cumulative_multiplicity_bound",
    "eigencount_ball_dirichlet",
    "eigencount_disk_neumann",
    "eigencount_sector",
    "format_rational",
    "g_bracket",
    "g_inverse_quarter",
    "g_lower",
    "g_moment",
    "g_value",
    "gap_endpoints",
    "kappa",
    "multiplicity_step",
    "parse_rational",
    "pi_bounds",
    "r1",
    "r2_margin",
    "rational",
    "sector_lattice_bound",
    "sector_lattice_bound_oracle",
    "simplest_in",
    "sqrt_bounds",
    "verify_certificate",
    "weyl_leading",
    "weyl_leading_bounds",
]
