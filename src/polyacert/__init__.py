"""Certified lattice-point counting for eigenvalue inequalities on disks and balls.

The package computes weighted shifted-lattice-point counts that bound
Laplacian eigenvalue counting functions, entirely in exact rational
arithmetic on the certified paths, and runs a replayable certification loop
proving the planar Neumann counting inequality across the spectral interval
not covered analytically.  A floating-point Bessel oracle cross-validates
the certified counts against the true spectra at desk scale, and the
double-precision analysis of the curve lives apart from the certified
modules, in ``polyacert.analysis``.

The package itself exports nothing and imports no submodule, so the
certified commands load only the modules they use: import each name from
its module, as in ``from polyacert.lattice import count_weighted``.
"""

__version__ = "0.1.0"
