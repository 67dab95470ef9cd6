"""Weighted shifted-lattice-point counts under the curve, and counting harnesses.

The counts implemented here are sums of ``kappa(d, m) * floor(G + shift)``
over abscissas on a (half-)integer grid, where ``G`` is the curve height and
the shift is 1/4 (Dirichlet) or 3/4 (Neumann).  Three rigour levels exist:

* ``CERTIFIED_EXACT`` -- every floor was resolved by a rational bracket of G
  whose two ends share the same floor, so the value equals the true count;
* ``CERTIFIED_LOWER`` -- floors are taken of a certified lower bound of G
  (single-sided, no refinement), so the value never exceeds the true count;
* ``ORACLE`` -- double-precision evaluation, for plots and cross-checks only.

The certified single sums (:func:`count_weighted`,
:func:`count_neumann2_certified_lower`, :func:`sector_lattice_bound`) are
thin wrappers over one kernel, ``_floor_sum``.  Three routes keep their own
summation, because the tests compare the kernel against them: the
double-precision :func:`count_weighted_oracle` and
:func:`sector_lattice_bound_oracle`, and
:func:`count_dirichlet_dim_reduction`, the higher-dimensional Dirichlet
count in its dimension-reduction form.

The terms of a floor sum are independent, so ``_floor_sum`` splits a sum
of at least ``_SPLIT_MIN_TERMS`` terms across the usable CPUs: one forked
child per extra CPU sums every n-th term and sends its integer back
through a pipe.  It stays serial without ``os.fork``, on one usable CPU,
while other threads run, and below the split size, where the fork costs
more than it saves.  Integer addition is exact and any failure reruns the
whole sum serially, so counts and exceptions are those of the serial sum.

The module also houses the two counting theorems used to compare floor sums
against area integrals for tabulated decreasing convex functions, and the
cumulative multiplicity function with its polynomial bound.
"""
from __future__ import annotations

import gc
import math
import os
import threading
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, NoReturn

from .curve import BoundKind, g_bracket, g_lower, g_value
from .errors import (
    BadDimensionError,
    DomainError,
    GuessFailedError,
    HypothesisViolatedError,
    IrrationalApertureError,
    M0ExceedsBError,
    UnresolvedFloorError,
)
from .rational import as_rational, rat_floor, rational, to_float
from .verified import DEFAULT_EPS


class Rigor(Enum):
    CERTIFIED_EXACT = "certified-exact"
    CERTIFIED_LOWER = "certified-lower"
    ORACLE = "oracle"


class CountResult(NamedTuple):
    """An integer count together with the rigour of its computation."""

    value: int
    rigor: Rigor

    def to_json(self) -> dict:
        return {"value": self.value, "rigor": self.rigor.value}


def kappa(d: int, m: int) -> int:
    """Multiplicity weight: dimension of degree-m harmonic polynomials in d variables."""
    if d < 2:
        raise BadDimensionError(f"dimension must be >= 2, got {d}")
    if m < 0:
        raise DomainError(f"m must be non-negative, got {m}")
    if m == 0:
        return 1
    return math.comb(m + d - 1, d - 1) - math.comb(m + d - 3, d - 1)


_FLOOR_REFINEMENTS = 12


def certified_floor_term(lam, z, shift, eps=DEFAULT_EPS) -> int:
    """Exact value of floor(G(lam, z) + shift), proved by rational bracketing.

    The bracket of G is taken on the ladder eps, eps/10, ..., eps/10^12 until
    both ends land in the same unit interval; if the bracket keeps straddling
    an integer on every rung the term is reported via UnresolvedFloorError
    rather than guessed.  For z >= lam the curve vanishes identically and the
    result is floor(shift), with no bracketing needed.

    The double-precision value of G + shift is used only as a hint: its
    distance to the nearest integer picks the first rung tried, skipping the
    coarser rungs whose brackets would reach that integer, so that most
    terms need a single bracket.  The skipped rungs are tried last, so a
    wrong hint can cost time but cannot change the result.
    """
    lam = as_rational(lam)
    z = as_rational(z)
    shift = as_rational(shift)
    if z >= lam:
        return rat_floor(shift)
    eps = as_rational(eps)
    first = _first_rung(lam, z, shift, eps) if z >= 0 else 0
    unverified = {}
    finest = None
    for rung in (*range(first, _FLOOR_REFINEMENTS + 1), *range(first)):
        try:
            bracket = g_bracket(lam, z, eps / 10**rung)
        except GuessFailedError as exc:
            unverified[rung] = exc
            continue
        f_lo = _floor_plus(bracket.lo, shift)
        f_hi = _floor_plus(bracket.hi, shift)
        if f_lo == f_hi:
            return f_lo
        if rung == _FLOOR_REFINEMENTS:
            finest = (bracket.lo + shift, bracket.hi + shift)
    if unverified:
        # the failure that refining rung by rung from eps meets first
        raise unverified[min(unverified)]
    raise UnresolvedFloorError(z, finest)


def _first_rung(lam: Fraction, z: Fraction, shift: Fraction, eps: Fraction) -> int:
    """The first rung of the eps ladder whose bracket of G may miss the integer nearest G + shift.

    Each end of the bracket at accuracy e lies at least e*(z + 3*G)/pi
    beyond G (z times the arccos overhang, plus G times the relative pi
    overhang) and at most about three times that.  Rungs whose brackets
    could reach the nearest integer, with a margin of two for the double
    value's error, are skipped.
    """
    try:
        g = g_value(to_float(lam), to_float(z))
        reach = 6 * to_float(eps) * (to_float(z) + 3 * g) / math.pi
    except OverflowError:
        return 0
    frac = (g + to_float(shift)) % 1.0
    gap = min(frac, 1.0 - frac)
    rung = 0
    while rung < _FLOOR_REFINEMENTS and reach > gap:
        reach /= 10
        rung += 1
    return rung


# The split's break-even, measured in-process on a 2-vCPU x86_64 host
# (Python 3.11.7) as serial over split time of count_weighted(2, D or N,
# lam), median of 60 interleaved pairs: 0.87 at 64 terms, 1.06 at 128,
# 1.26 at 192, 1.46 at 256 and 1.53 at 800 (the sweep is in CHANGES.md).
# Below about 128 terms the fork, the child's wake-up and the
# copy-on-write faults of both processes cost more than the second CPU
# saves; 256 leaves a margin for hosts where they cost more.
_SPLIT_MIN_TERMS = 256
_TERMS_PER_CHUNK = 128  # n chunks need at least n * 128 terms


def _floor_sum(lam: Fraction, terms, shift: Fraction, floor_of, eps) -> int:
    """Sum of weight * floor_of(lam, z, shift, eps) over the (weight, z) pairs of terms.

    floor_of is certified_floor_term (exact) or _lower_floor (lower bound).
    The curve vanishes for z >= lam, where the term is floor(shift) exactly
    and floor_of is not called.

    A sum of at least _SPLIT_MIN_TERMS terms is split across the usable
    CPUs (see _chunk_count): term k goes to chunk k mod n, this process
    sums chunk 0 and one forked child per other chunk sums its own.  The
    terms are independent and integer addition is exact, so the split
    total is the serial total.  On any Exception, in a child or here, the
    children are killed and reaped and the whole sum is rerun serially, so
    a failure surfaces as the serial sum's exception, from its first
    failing term.  Any other BaseException (KeyboardInterrupt) kills and
    reaps the children and propagates.
    """
    terms = list(terms)
    n = _chunk_count(len(terms))
    if n > 1:
        try:
            return _forked_floor_sum(lam, terms, shift, floor_of, eps, n)
        except Exception:
            pass  # the serial sum below gives the result, or the serial exception
    return _serial_floor_sum(lam, terms, shift, floor_of, eps)


def _serial_floor_sum(lam: Fraction, terms, shift: Fraction, floor_of, eps) -> int:
    total = 0
    for weight, z in terms:
        term = rat_floor(shift) if z >= lam else floor_of(lam, z, shift, eps)
        total += weight * term
    return total


def _chunk_count(n_terms: int) -> int:
    """Processes to share a sum of n_terms terms: min(usable CPUs, n_terms // 128), or 1.

    The sum stays serial (1) below _SPLIT_MIN_TERMS terms, without
    os.fork, on one usable CPU, and while other threads run, which a fork
    would not copy.
    """
    if n_terms < _SPLIT_MIN_TERMS or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, n_terms // _TERMS_PER_CHUNK)


def _forked_floor_sum(lam: Fraction, terms: list, shift: Fraction, floor_of, eps, n: int) -> int:
    """The sum of terms, chunk k = terms[k::n] summed by child k for k >= 1.

    Each child writes its total as decimal text to a pipe and exits 0; a
    child's total counts only if it did both.  Every child is reaped
    before this returns or raises.
    """
    children = []  # (pid, read end of its pipe), not yet reaped
    try:
        for k in range(1, n):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child_floor_sum(write, lam, terms[k::n], shift, floor_of, eps)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
        total = _serial_floor_sum(lam, terms[::n], shift, floor_of, eps)
        while children:
            pid, pipe = children[0]
            text = pipe.read()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            pipe.close()
            if status != 0:
                raise ChildProcessError(f"floor-sum child {pid} ended with wait status {status}")
            total += int(text)
        return total
    finally:
        for pid, pipe in children:
            _kill_and_reap(pid)
            pipe.close()


def _child_floor_sum(write: int, lam, terms, shift, floor_of, eps) -> NoReturn:
    """In a forked child: sum terms, write the total to the pipe and exit.

    os._exit in the finally keeps every outcome, exceptions included, from
    returning into the caller's frames, running atexit handlers or
    flushing stdio buffers inherited from the parent.
    """
    code = 1
    try:
        gc.disable()  # a collection would touch, and so copy, every page of the parent's heap
        data = b"%d" % _serial_floor_sum(lam, terms, shift, floor_of, eps)
        while data:
            data = data[os.write(write, data):]
        code = 0
    finally:
        os._exit(code)


def _kill_and_reap(pid: int) -> None:
    import signal  # only on this failure path: the module costs start-up time

    try:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except (ProcessLookupError, ChildProcessError):
        pass  # already reaped


def _lower_floor(lam: Fraction, z: Fraction, shift: Fraction, eps) -> int:
    """floor(g_lower + shift) clamped at zero: never above floor(G + shift) for shift >= 0."""
    return max(0, _floor_plus(g_lower(lam, z, eps), shift))


def _floor_plus(q: Fraction, shift: Fraction) -> int:
    """floor(q + shift) from the integer parts, without normalising the sum."""
    q_d, shift_d = q.denominator, shift.denominator
    return (q.numerator * shift_d + shift.numerator * q_d) // (q_d * shift_d)


def _weighted_abscissa(d: int, m: int) -> Fraction:
    # z = m + d/2 - 1, exact also for odd d
    return rational(2 * m + d - 2, 2)


def _weighted_terms(d: int, lam: Fraction):
    """(kappa(d, m), z_m) for m = 0 .. floor(lam - d/2 + 1)."""
    for m in range(rat_floor(lam - rational(d, 2) + 1) + 1):
        yield kappa(d, m), _weighted_abscissa(d, m)


def count_weighted(d: int, kind: BoundKind, lam, eps=DEFAULT_EPS) -> CountResult:
    """Certified-exact weighted count: sum of kappa(d, m)*floor(G(lam, z_m) + shift).

    The sum runs over m = 0 .. floor(lam - d/2 + 1); abscissas are
    z_m = m + d/2 - 1.  Neumann counting is only defined in dimension 2.
    """
    _validate_count_args(d, kind)
    lam = as_rational(lam)
    if lam < 0:
        raise DomainError(f"lam must be non-negative, got {lam}")
    total = _floor_sum(lam, _weighted_terms(d, lam), kind.shift, certified_floor_term, eps)
    return CountResult(total, Rigor.CERTIFIED_EXACT)


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


def _validate_count_args(d: int, kind: BoundKind) -> None:
    if d < 2:
        raise BadDimensionError(f"dimension must be >= 2, got {d}")
    if kind is BoundKind.NEUMANN and d != 2:
        raise BadDimensionError("Neumann counting is implemented for d = 2 only")


def count_neumann2_certified_lower(lam, eps=DEFAULT_EPS) -> CountResult:
    """Certified lower bound of the planar Neumann count, single-sided and fast.

    Each term floors the certified lower bound of G plus 3/4; since the lower
    bound can dip below zero near z = lam while the true term never does,
    negative per-term floors are clamped at zero.  The result never exceeds
    the true count, for any eps.
    """
    lam = as_rational(lam)
    if lam < 0:
        raise DomainError(f"lam must be non-negative, got {lam}")
    total = _floor_sum(lam, _weighted_terms(2, lam), BoundKind.NEUMANN.shift, _lower_floor, eps)
    return CountResult(total, Rigor.CERTIFIED_LOWER)


def count_dirichlet_dim_reduction(d: int, lam, eps=DEFAULT_EPS) -> CountResult:
    """The d >= 3 Dirichlet count evaluated through its dimension-reduction form.

    Sums binomially weighted planar-style counts along shifted abscissas:
    for each n the inner count is floor(G(r)+1/4) + 2*sum_j floor(G(j+r)+1/4)
    with r = n + d/2 - 1.  Must agree exactly with count_weighted; the two
    routes share no summation structure, which makes the equality a useful
    cross-check.
    """
    if d < 3:
        raise BadDimensionError(f"dimension reduction needs d >= 3, got {d}")
    lam = as_rational(lam)
    if lam < 0:
        raise DomainError(f"lam must be non-negative, got {lam}")
    shift = rational(1, 4)
    n_top = rat_floor(lam - rational(d, 2) + 1)
    floor_cache: dict[Fraction, int] = {}

    def term(z: Fraction) -> int:
        cached = floor_cache.get(z)
        if cached is None:
            cached = floor_cache[z] = certified_floor_term(lam, z, shift, eps)
        return cached

    total = 0
    for n in range(n_top + 1):
        r = _weighted_abscissa(d, n)
        inner = term(r)
        for j in range(1, rat_floor(lam - r) + 1):
            inner += 2 * term(j + r)
        total += math.comb(n + d - 3, d - 3) * inner
    return CountResult(total, Rigor.CERTIFIED_EXACT)


def sector_lattice_bound(kind: BoundKind, alpha_over_pi, lam, eps=DEFAULT_EPS) -> CountResult:
    """Certified sector count: unit-weight floor sum along abscissas m/(alpha/pi).

    ``alpha_over_pi`` is the aperture divided by pi and must be an exact
    rational in (0, 2] so the abscissas stay rational; Dirichlet sums start
    at m = 1, Neumann at m = 0.  For irrational apertures use
    :func:`sector_lattice_bound_oracle`.
    """
    if isinstance(alpha_over_pi, float):
        raise IrrationalApertureError(
            "certified sector counting needs the aperture as an exact rational "
            "multiple of pi; pass alpha_over_pi as int, Fraction, or 'p/q'"
        )
    a = as_rational(alpha_over_pi)
    if not 0 < a <= 2:
        raise DomainError(f"aperture/pi must lie in (0, 2], got {a}")
    lam = as_rational(lam)
    if lam < 0:
        raise DomainError(f"lam must be non-negative, got {lam}")
    start = 1 if kind is BoundKind.DIRICHLET else 0
    terms = ((1, rational(m) / a) for m in range(start, rat_floor(a * lam) + 1))
    total = _floor_sum(lam, terms, kind.shift, certified_floor_term, eps)
    return CountResult(total, Rigor.CERTIFIED_EXACT)


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


# ---------------------------------------------------------------------------
# Cumulative multiplicity and its polynomial bound
# ---------------------------------------------------------------------------


def multiplicity_step(d: int, t: float) -> float:
    """Piecewise-constant multiplicity density: C(m+d-2, d-2) on the m-th step."""
    if d < 3:
        raise BadDimensionError(f"needs d >= 3, got {d}")
    if t < 0:
        raise DomainError(f"t must be non-negative, got {t}")
    if t < d / 2 - 1:
        return 0.0
    m = math.floor(t - d / 2 + 1)
    return float(math.comb(m + d - 2, d - 2))


def cumulative_multiplicity(d: int, z: float) -> float:
    """Integral of the multiplicity density from 0 to z, in closed form."""
    if d < 3:
        raise BadDimensionError(f"needs d >= 3, got {d}")
    if z < 0:
        raise DomainError(f"z must be non-negative, got {z}")
    if z < d / 2 - 1:
        return 0.0
    m = math.floor(z - d / 2 + 1)
    rising = math.prod(range(m + 1, m + d - 1))  # (m+1)*...*(m+d-2)
    return rising / math.factorial(d - 1) * ((d - 1) * z - (d - 2) * m - (d - 1) * (d - 2) / 2)


def cumulative_multiplicity_bound(d: int, z: float) -> float:
    """Smooth upper bound z^(d-1)/(d-1)! of the cumulative multiplicity."""
    if d < 3:
        raise BadDimensionError(f"needs d >= 3, got {d}")
    if z < 0:
        raise DomainError(f"z must be non-negative, got {z}")
    return z ** (d - 1) / math.factorial(d - 1)


# ---------------------------------------------------------------------------
# Counting theorems for tabulated decreasing convex functions
# ---------------------------------------------------------------------------

_TABLE_TOL = 1e-9


class ConvexTable:
    """Piecewise-linear tabulation of a function on [0, b] (immutable).

    Breakpoints must start at 0, increase strictly, end at b, and contain
    every integer of [0, b]; the hypothesis checks and both counting
    inequalities are then exact statements about the piecewise-linear
    interpolant (its integral is the trapezoid sum, which is exact).
    Tabulating a genuinely convex decreasing function produces an admissible
    table, since chords inherit monotonicity, convexity, and the slope bound.
    """

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints: tuple[float, ...], values: tuple[float, ...]):
        if len(breakpoints) != len(values) or len(breakpoints) < 2:
            raise ValueError("need matching breakpoints/values with at least two points")
        if abs(breakpoints[0]) > _TABLE_TOL:
            raise ValueError("tabulation must start at 0")
        for a, b in zip(breakpoints, breakpoints[1:]):
            if not b > a:
                raise ValueError("breakpoints must increase strictly")
        object.__setattr__(self, "breakpoints", breakpoints)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError(f"ConvexTable is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if other.__class__ is not ConvexTable:
            return NotImplemented
        return (self.breakpoints, self.values) == (other.breakpoints, other.values)

    def __hash__(self):
        return hash((self.breakpoints, self.values))

    def __repr__(self):
        return f"ConvexTable(breakpoints={self.breakpoints!r}, values={self.values!r})"

    @property
    def b(self) -> float:
        return self.breakpoints[-1]

    @classmethod
    def from_function(cls, g, b: float, points_per_unit: int = 8) -> "ConvexTable":
        """Tabulate g on the uniform grid k/points_per_unit plus the endpoint b."""
        points = [k / points_per_unit for k in range(int(b * points_per_unit) + 1)]
        if points[-1] < b - _TABLE_TOL:
            points.append(b)
        else:
            points[-1] = b
        return cls(tuple(points), tuple(float(g(t)) for t in points))

    def integral(self) -> float:
        total = 0.0
        for (t0, t1), (v0, v1) in zip(
            zip(self.breakpoints, self.breakpoints[1:]), zip(self.values, self.values[1:])
        ):
            total += 0.5 * (v0 + v1) * (t1 - t0)
        return total

    def integer_values(self) -> list[float]:
        """Values at z = 0, 1, ..., floor(b); every integer must be a breakpoint."""
        out = {}
        for t, v in zip(self.breakpoints, self.values):
            r = round(t)
            if abs(t - r) <= _TABLE_TOL:
                out[r] = v
        top = math.floor(self.b + _TABLE_TOL)
        missing = [m for m in range(top + 1) if m not in out]
        if missing:
            raise ValueError(f"tabulation is missing integer breakpoints {missing}")
        return [out[m] for m in range(top + 1)]


def _check_table_hypotheses(table: ConvexTable) -> None:
    values = table.values
    if min(values) < -_TABLE_TOL:
        raise HypothesisViolatedError("non-negative", f"min value {min(values)}")
    if abs(values[-1]) > _TABLE_TOL:
        raise HypothesisViolatedError("endpoint zero", f"g(b) = {values[-1]}")
    slopes = [
        (v1 - v0) / (t1 - t0)
        for (t0, t1), (v0, v1) in zip(
            zip(table.breakpoints, table.breakpoints[1:]), zip(values, values[1:])
        )
    ]
    if max(slopes) > _TABLE_TOL:
        raise HypothesisViolatedError("decreasing", f"max slope {max(slopes)}")
    if min(slopes) < -0.5 - _TABLE_TOL:
        raise HypothesisViolatedError("slope bounded by 1/2", f"min slope {min(slopes)}")
    for s0, s1 in zip(slopes, slopes[1:]):
        if s1 < s0 - _TABLE_TOL:
            raise HypothesisViolatedError("convex", f"slope drops from {s0} to {s1}")


def check_convex_count_upper(table: ConvexTable) -> bool:
    """Quarter-shifted floor sum against twice the area, for admissible tables.

    Checks the table hypotheses (non-negative, decreasing, convex, slope
    bound, zero endpoint), then tests

        floor(g(0)+1/4) + 2*sum_{m=1..floor(b)} floor(g(m)+1/4) <= 2*integral.

    Equality forces g to vanish identically, so the check should return True
    with room to spare on any non-trivial admissible table.
    """
    _check_table_hypotheses(table)
    ints = table.integer_values()
    lhs = math.floor(ints[0] + 0.25) + 2 * sum(math.floor(v + 0.25) for v in ints[1:])
    return lhs <= 2 * table.integral() + _TABLE_TOL


def check_convex_count_lower(table: ConvexTable) -> bool:
    """Three-quarter-shifted floor sum against the area minus the tail correction.

    Requires additionally g(0) >= 1/4, and that the quarter-level crossing
    index M0 = 1 + max{m : g(m) >= 1/4} satisfies M0 <= b.  Tests

        sum_{m=0..floor(b)} floor(g(m)+3/4) >= integral - (b - 3*M0)/8.
    """
    _check_table_hypotheses(table)
    ints = table.integer_values()
    if ints[0] < 0.25 - _TABLE_TOL:
        raise HypothesisViolatedError("g(0) >= 1/4", f"g(0) = {ints[0]}")
    above = [m for m, v in enumerate(ints) if v >= 0.25]
    m0 = 1 + max(above)
    if m0 > table.b + _TABLE_TOL:
        raise M0ExceedsBError(f"M0 = {m0} exceeds b = {table.b}")
    lhs = sum(math.floor(v + 0.75) for v in ints)
    rhs = table.integral() - (table.b - 3 * m0) / 8
    return lhs >= rhs - _TABLE_TOL

