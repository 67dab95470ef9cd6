"""Weighted shifted-lattice-point counts under the curve, and counting harnesses.

The counts implemented here are sums of ``kappa(d, m) * floor(G + shift)``
over abscissas on a (half-)integer grid, where ``G`` is the curve height and
the shift is 1/4 (Dirichlet) or 3/4 (Neumann).  Three rigour levels exist:

* ``CERTIFIED_EXACT`` -- every floor was resolved by a rational bracket of G
  whose two ends share the same floor, so the value equals the true count;
* ``CERTIFIED_LOWER`` -- floors are taken of a certified lower bound of G
  (single-sided, no refinement), so the value never exceeds the true count;
* ``ORACLE`` -- double-precision evaluation, for plots and cross-checks only;
  the oracle counts live in :mod:`polyacert.analysis`.

Every certified sum adds its terms one by one, each generated from its
index, never listed, on one column layout (``_columns``): column m lies
at z = m/a + c/2, with a the aperture over pi (1 for a weighted count)
and c = d - 2 (0 for a sector).  :func:`count_weighted` and
:func:`sector_lattice_bound` share ``_column_sum``, which walks a sum of at least
``_WALK_MIN_TERMS`` columns by ``_convex_floor_sum``: the curve is convex
and decreasing, so the lattice points above it form a convex set, and the
walk follows that set's lower hull with Stern-Brocot directions, from the
first summed column on, carrying the weights kappa(d, m) of a weighted
count along each hull edge.  It tests about a third of the columns at
lambda 1000 (a sixth at 10^4), decides each point by an exact floor test,
unless a double hint says it lies above the curve and one upper end of
G + shift proves it (104 floor tests per large_lambda benchmark operation
remain of 247), and stops a slope search only on a proof that
arccos(z/lam) <= pi*s for the rational slope s, so the count is exact; an
undecided point raises UnresolvedFloorError there, and nothing is rerun.  The
proof is one exact Taylor check of cos at min(pi_lo*s, 4), with pi_lo the
lower end of pi at 1/10^9, which needs no guess and never raises.  Every floor
test refines on one ladder of accuracies 1/10^r, r = 0 .. 16
(``_ACCURACIES``), from a start rung worked out from lambda alone on
integers (``_start_rung``) to the finest.  No exact count depends on
eps: each public one raises DomainError for eps <= 0 on entry, even for
an empty sum, and otherwise ignores it.  The walk
prepares its floor test once per sum (:func:`prepare_floor_term`), each
rung's bracket on its first use by :func:`curve.prepare_g_floor_ends`,
whose root comes from one integer square root, and tests points on the
columns' integer parts.  The term-by-term sums call
``certified_floor_term`` for each term, with
:func:`curve.prepare_g_bracket`'s brackets, whose root ends come from a
shortest-rational search; the walk's bracket lies inside that one at
every rung, so the one-shot route is the walk's independent reference.
Three routes keep their own summation, because the tests compare the walk
against them: the double-precision ``analysis.count_weighted_oracle`` and
``analysis.sector_lattice_bound_oracle``, and
:func:`count_dirichlet_dim_reduction`, the higher-dimensional Dirichlet
count in its dimension-reduction form, one one-shot floor per column.

The lower count prepares its bound once per sum (:func:`curve.prepare_g_lower`):
each term then builds only its own radicand, verifies the root's and the
arccos's ends (the latter on integers) and floors the bound on integers.
The verified ends are those of :func:`curve.g_lower`, so lower counts are
the same integers as the term-by-term sum of clamped floors of ``g_lower``.
"""
from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .curve import BoundKind, g_lower, prepare_g_bracket, prepare_g_floor_ends, prepare_g_lower
from .errors import (
    BadDimensionError,
    DomainError,
    GuessFailedError,
    IrrationalApertureError,
    UnresolvedFloorError,
)
from .rational import ONE, ZERO, as_rational, rat_floor, rational
from .verified import DEFAULT_EPS, _arccos_above, pi_bounds


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


# The floor ladder's accuracies 1/10^r.  Every bracket needs pi, and no
# double guess verifies pi below about 3.6e-17 (the double nearest pi/3 is
# 1.07e-16 from it), so a finer rung could only fail.
_ACCURACIES = tuple(rational(1, 10**r) for r in range(17))


def certified_floor_term(lam, z, shift, eps=DEFAULT_EPS) -> int:
    """Exact value of floor(G(lam, z) + shift), proved by rational bracketing.

    The bracket of G is taken on the ladder of accuracies 1/10^r, from
    _start_rung(lam) to the finest, until both ends land in the same
    unit interval; a term that no rung decides raises UnresolvedFloorError
    rather than being guessed.  For z >= lam the curve vanishes identically
    and the result is floor(shift), with no bracketing needed; lam < 0 and
    eps <= 0 raise DomainError before that, and z < 0 after it, which
    leaves 0 <= z < lam.  eps is otherwise unused: the floor is exact.
    Each rung's bracket comes from :func:`curve.prepare_g_bracket`, so
    this is the independent reference of the hull walk's point test,
    :func:`prepare_floor_term`.
    """
    lam = as_rational(lam)
    z = as_rational(z)
    shift = as_rational(shift)
    if lam.numerator < 0:
        raise DomainError(f"lam must be non-negative, got {lam}")
    _check_eps(eps)
    if z >= lam:
        return rat_floor(shift)
    if z.numerator < 0:
        raise DomainError(f"z must lie in [0, lam], got z={z}, lam={lam}")
    return _floor_ladder(lam, shift, prepare_g_bracket)(z.numerator, z.denominator)


def _check_eps(eps) -> None:
    """The exact counts' one use of eps: DomainError unless it is positive."""
    if as_rational(eps).numerator <= 0:
        raise DomainError("eps must be positive")


def prepare_floor_term(lam: Fraction, shift: Fraction):
    """The hull walk's point tests for one (lam, shift), prepared once: (floor, above), functions of z's integer parts.

    The returned ``floor(zn, zd)`` is floor(G(lam, zn/zd) + shift) for
    integers zn >= 0 and zd > 0, neither normalised, decided on
    certified_floor_term's ladder, from the same start rung, with each
    rung's bracket from :func:`curve.prepare_g_floor_ends`.  That bracket
    lies inside certified_floor_term's, so wherever certified_floor_term
    returns a floor this returns the same one, on the same rung or an
    earlier one.  ``above(zn, zd, y)``, for zn/zd <= lam, floors the start
    rung's upper end alone plus the shift when _above_hint says the point
    looks above, and is True if that lies below y; False proves nothing.
    lam and shift must be Fractions.
    """
    ends, upper = prepare_g_floor_ends(lam, _ACCURACIES[_start_rung(lam)])
    floor = _floor_ladder(lam, shift, lambda lam, eps: prepare_g_floor_ends(lam, eps)[0], ends)
    ln, ld, sn, sd = lam.numerator, lam.denominator, shift.numerator, shift.denominator

    def above(zn: int, zd: int, y: int) -> bool:
        guess = _above_hint(zn * ld, zd * ln, (y * sd - sn) * ld, sd * ln)
        if guess is None:
            return False
        end = upper(zn, zd, *guess)
        return end is not None and _floor_plus(*end, sn, sd) < y

    return floor, above


def _above_hint(a: int, b: int, tn: int, td: int) -> tuple[int, int] | None:
    """The walk's double hint and guess: arccos(x) as an exact ratio if G/lam < tn/td in doubles, else None.

    x = z/lam = a/b in [0, 1] and tn/td = (y - shift)/lam, so no double
    overflows.  Both only seed an exact check: a wrong one costs time.
    """
    x = a / b
    angle = math.acos(x)
    if (math.sqrt(1 - x * x) - x * angle) / math.pi < tn / td:
        return angle.as_integer_ratio()
    return None


def _floor_ladder(lam: Fraction, shift: Fraction, prepare_ends, start_ends=None):
    """floor(zn, zd): floor(G(lam, zn/zd) + shift), decided by prepare_ends(lam, accuracy)'s brackets.

    Built once: lam's and the shift's integer parts and the start rung
    _start_rung(lam), whose ends are start_ends if given; once per rung,
    on its first use: its prepared ends, unless given, which are floored
    on integers.  zn >= 0 and zd > 0 need not be
    normalised; the abscissa of an UnresolvedFloorError is.  The rungs are
    tried once each, from the start rung to the finest, passing over one
    whose bracket does not verify.  A point that no rung decides raises
    UnresolvedFloorError with the finest verified bracket plus the shift
    (None if none verified) and the accuracies tried, from the first
    GuessFailedError, if any.
    """
    ln, ld = lam.numerator, lam.denominator
    sn, sd = shift.numerator, shift.denominator
    past_lam = sn // sd  # floor(shift), the term at z >= lam
    first = _start_rung(lam)
    rungs = [None] * len(_ACCURACIES)
    rungs[first] = start_ends

    def floor(zn: int, zd: int) -> int:
        if zn * ld >= ln * zd:
            return past_lam
        failed = finest = None
        for rung in range(first, len(_ACCURACIES)):
            ends = rungs[rung]
            if ends is None:
                ends = rungs[rung] = prepare_ends(lam, _ACCURACIES[rung])
            try:
                bracket = ends(zn, zd)
            except GuessFailedError as exc:
                failed = failed or exc
                continue
            (lo_n, lo_d), (hi_n, hi_d) = bracket
            f_lo = _floor_plus(lo_n, lo_d, sn, sd)
            if f_lo == _floor_plus(hi_n, hi_d, sn, sd):
                return f_lo
            finest = bracket
        interval = None if finest is None else tuple(rational(n, d) + shift for n, d in finest)
        tried = (_ACCURACIES[first], _ACCURACIES[-1])
        raise UnresolvedFloorError(rational(zn, zd), interval, tried) from failed

    return floor


def _start_rung(lam: Fraction) -> int:
    """The first rung of the floor ladder: the coarsest r with 1/10^r <= min(1/1000, 1/(16*lam)), or the finest.

    Each end of the bracket at accuracy e lies at least e*(z + 3*G)/pi
    beyond G (z times the arccos overhang, plus G times the relative pi
    overhang) and at most about three times that, and z + 3*G <= lam on
    [0, lam] (it is convex in z, 3*lam/pi at 0 and lam at lam).  So at the
    start rung every column's bracket is at most about
    1.9*lam/10^r <= 1/8 wide, and a term misses it only within 1/8 of an
    integer.  Below lam = 6.25 the ladder still starts at 1/1000, as at
    the default eps: a coarser start there showed no reliable speedup.
    Decided on lam's integer parts.
    """
    ln, ld, finest = lam.numerator, lam.denominator, len(_ACCURACIES) - 1
    return next((r for r in range(3, finest) if 16 * ln <= 10**r * ld), finest)


# Sums of at least this many terms are walked (see _convex_floor_sum).
# Shorter walks pay too (1.14x at lambda ~ 25, 1.58x at ~ 100), but they
# would also speed up the exact_sweep benchmark, whose per-operation
# records would then push its peak_rss_mb past its 5 % bound (ROADMAP
# items 2 and 7): walking every exact sum ran exact_sweep 2.3x faster in
# 35 s runs on a 2-vCPU x86_64 host (475 to 1,105 op/s), and its
# peak_rss_mb rose 34 % (28.15 to 37.81 MB).  Those records grow with the
# operations a run makes: on the same host, large_lambda's peak_rss_mb
# rose 3.4 % (22.03 to 22.79 MB) as its op/s rose from 60 to 107 with the
# walk's integer-root brackets.
_WALK_MIN_TERMS = 256


def _columns(lam: Fraction, a: Fraction, d: int | None) -> tuple[int, int, int, int]:
    """(z_num, z_add, z_den, top): column m = 0 .. top lies at z = (m*z_num + z_add)/z_den <= lam."""
    c = 0 if d is None else d - 2
    return 2 * a.denominator, c * a.numerator, 2 * a.numerator, rat_floor((lam - rational(c, 2)) * a)


def _column_sum(lam: Fraction, a: Fraction, shift: Fraction, d: int | None = None, start: int = 0) -> int:
    """_convex_floor_sum's sum, walked by it over at least _WALK_MIN_TERMS columns, else term by term."""
    z_num, z_add, z_den, top = _columns(lam, a, d)
    if top + 1 - start >= _WALK_MIN_TERMS:
        return _convex_floor_sum(lam, a, shift, d, start)
    # Each term is the one-shot certified_floor_term, on prepare_g_bracket's
    # brackets.  Preparing the walk's floor test (prepare_floor_term) once
    # per sum here too ran exact_sweep 2.2x faster in 20 s runs on the same
    # host, but the benchmark's per-operation records then raised its
    # peak_rss_mb by 19 %, past its 5 % bound (ROADMAP items 2 and 3).
    # Taking only the one-shot floor's brackets from prepare_g_floor_ends
    # ran exact_sweep 1.51x faster in 35 s runs (475 to 717 op/s), with
    # peak_rss_mb up 12.6 % (28.15 to 31.69 MB).
    return sum(
        (1 if d is None else kappa(d, m)) * certified_floor_term(lam, rational(m * z_num + z_add, z_den), shift)
        for m in range(start, top + 1)
    )


def _convex_floor_sum(lam: Fraction, a: Fraction, shift: Fraction, d: int | None = None, start: int = 0) -> int:
    """The sum of w(m)*floor(f(m)) over the columns m = start .. top.

    Column m lies at z = m/a + c/2 and f(m) = G(lam, z) + shift, over the
    columns with z <= lam.  With d None the weights are 1 and c = 0, a
    sector's sum; a weighted count passes its dimension d and a = 1, for
    the weights w(m) = kappa(d, m) at z = m + d/2 - 1 (c = d - 2).

    f is convex and decreasing in m, so the lattice points (m, y) of those
    columns with y > f(m) form a convex set, and the sum is read off the
    lower hull of that set, walked from (start, floor(f(start)) + 1) to the
    last column with a Stern-Brocot stack of directions (q, p), a step of q
    columns and p rows down, flatter towards the bottom.  Along a hull edge
    the lowest point above the curve, h(m) = floor(f(m)) + 1, is the edge
    rounded up, so a step along a primitive (q, p) from (x, y) adds
    sum_{j<q} w(x+j)*(y - floor(p*j/q)) to the weighted sum of h
    (_step_sum).  A point is tested exactly, y > floor(f(m)) by
    prepare_floor_term, once per column, and only columns from start on.

    The next edge is the steepest direction whose first point is above the
    curve; it is searched by mediants between a flatter direction whose
    point is above and a steeper one whose point is not.  Once a mediant's
    point A is not above, steeper candidates than the flatter direction can
    only lie past A, so the search stops when the curve at A is provably at
    least as flat as that direction: arccos(z/lam) <= pi*a*p/q at A's
    abscissa z, by _arccos_at_most_pi_times, an exact Taylor check against
    pi's lower end at _SLOPE_EPS.  A cut-off that is not proved only costs
    more tests.  A horizontal step is never tested, as f decreases.
    """
    z_num, z_add, z_den, top = _columns(lam, a, d)
    a_num, a_den = a.numerator, a.denominator
    # z/lam = (m*x_num + x_add)/x_den, as integers
    x_num, x_add, x_den = z_num * lam.denominator, z_add * lam.denominator, z_den * lam.numerator
    if top < start:
        return 0
    floor_at, confirm = prepare_floor_term(lam, shift)
    floors = {}

    def above(m: int, y: int, keep_below: bool = True) -> bool:
        if m > top:
            return False
        floor = floors.get(m)
        if floor is None:
            zn = m * z_num + z_add
            if confirm(zn, z_den, y):
                return True
            floor = floor_at(zn, z_den)
            if keep_below or y > floor:
                floors[m] = floor
        return y > floor

    first = floors[start] = floor_at(start * z_num + z_add, z_den)
    pi_lo = pi_bounds(_SLOPE_EPS).lo
    x, y, total = start, first + 1, 0  # total: sum of w*h over the columns start .. x - 1
    stack = [(1, 0), (0, 1)]
    while True:
        q, p = stack.pop()  # the steepest direction left: step along it while above
        if p == 0:
            total += y * (_weight_below(d, top) - _weight_below(d, x))
            x = top
        while above(x + q, y - p):
            total += _step_sum(d, x, y, q, p)
            x, y = x + q, y - p
        if x == top:
            return total + _step_sum(d, top, y, 1, 0) - (_weight_below(d, top + 1) - _weight_below(d, start))
        # pop the directions that are not above down to one that is
        while not above(x + stack[-1][0], y - stack[-1][1]):
            q, p = stack.pop()
        q1, p1 = stack[-1]  # above, and (q, p) not: Farey neighbours
        while True:
            m, pm = x + q1 + q, p1 + p
            # while the flatter direction is horizontal (p1 = 0), a column
            # whose point is not above lies before the next hull vertex and
            # is never tested again: a long flat run keeps none of its floors
            if above(m, y - pm, keep_below=p1 > 0):
                q1, p1 = q1 + q, pm
                stack.append((q1, p1))
            elif m > top or _arccos_at_most_pi_times(m * x_num + x_add, x_den, a_num * p1, a_den * q1, pi_lo):
                break
            else:
                q, p = q1 + q, pm


def _weight_below(d: int | None, m: int) -> int:
    """Sum of the walk's weights over the columns 0 .. m - 1: m for unit weights (d None), else of kappa(d, .)."""
    if d is None:
        return m
    # the hockey-stick identity, summed over the two binomials of kappa
    return math.comb(m + d - 1, d) - math.comb(m + d - 3, d) if m > 0 else 0


def _step_sum(d: int | None, x: int, y: int, q: int, p: int) -> int:
    """sum_{j<q} w(x+j)*(y - floor(p*j/q)), the walk's step along a primitive (q, p) from (x, y)."""
    unit = q * y - (p - 1) * (q - 1) // 2  # the floors sum to (p-1)*(q-1)/2 for coprime p, q
    if d is None:
        return unit
    if d == 2:  # kappa(2, m) = 2 but kappa(2, 0) = 1
        return 2 * unit - (y if x == 0 else 0)
    return y * (_weight_below(d, x + q) - _weight_below(d, x)) - sum(
        kappa(d, x + j) * (p * j // q) for j in range(1, q)
    )


# The walk's slope proofs take pi's lower end at this accuracy (pi_bounds
# memoises it): deep in the walk a cut-off's slope lies closer to the
# curve's than pi's lower end at 1/1000 can tell apart (at lambda 10^5,
# 7,284 point tests against 9,383 with that end).
_SLOPE_EPS = rational(1, 10**9)


def _arccos_at_most_pi_times(xn: int, xd: int, sn: int, sd: int, pi_lo: Fraction) -> bool:
    """Whether arccos(xn/xd) <= pi*sn/sd is proved, for 0 <= xn <= xd, sn >= 0 and sd > 0.

    With theta = min(pi_lo*sn/sd, 4) <= pi*sn/sd, for pi_lo a lower end
    of pi, the exact Taylor check _arccos_above proves arccos(x) < theta
    on integers, needing no guess.  The cap keeps theta in the check's
    domain (0, 4], and arccos(x) <= pi/2 lies below 4, so a slope past
    4/pi, such as a wide sector's first hull edge, stays proved.  theta = 0
    (sn = 0), a tie such as arccos(1/2) = pi/3 and an unproved bound all
    give False.
    """
    pn, pd = pi_lo.numerator * sn, pi_lo.denominator * sd
    return _arccos_above(xn, xd, min(pn, 4 * pd), pd)


def _floor_plus(n: int, d: int, sn: int, sd: int) -> int:
    """floor(n/d + sn/sd) for d, sd > 0, from the integer parts, without normalising the sum."""
    return (n * sd + sn * d) // (d * sd)


def count_weighted(d: int, kind: BoundKind, lam, eps=DEFAULT_EPS) -> CountResult:
    """Certified-exact weighted count: sum of kappa(d, m)*floor(G(lam, z_m) + shift).

    The sum runs over m = 0 .. floor(lam - d/2 + 1); abscissas are
    z_m = m + d/2 - 1.  Neumann counting is only defined in dimension 2.
    A sum of at least _WALK_MIN_TERMS terms, in any dimension, is read off
    the hull walk (_column_sum), a shorter one summed term by term.  An
    undecided term raises UnresolvedFloorError.  eps is only checked.
    """
    _validate_count_args(d, kind)
    lam = as_rational(lam)
    if lam < 0:
        raise DomainError(f"lam must be non-negative, got {lam}")
    _check_eps(eps)
    return CountResult(_column_sum(lam, ONE, kind.shift, d), Rigor.CERTIFIED_EXACT)


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
    the true count, for any eps.  The bound is g_lower, prepared once per
    sum (see _lower_term), so the count is the same integer as the sum of
    the clamped floors of g_lower term by term.
    """
    lam = as_rational(lam)
    if lam < 0:
        raise DomainError(f"lam must be non-negative, got {lam}")
    if lam == 0:  # the one term lies at z = lam, where it is floor(3/4)
        return CountResult(0, Rigor.CERTIFIED_LOWER)
    top = _columns(lam, ONE, 2)[3]  # column m lies at z = m
    return CountResult(sum(map(_lower_term(lam, eps), range(top + 1))), Rigor.CERTIFIED_LOWER)


def _lower_term(lam: Fraction, eps):
    """term(m) = kappa(2, m) * max(0, floor(g_lower(lam, m, eps) + 3/4)) for lam > 0.

    Term 0 is g_lower(lam, 0, eps) = lam/pi_hi itself, which also checks eps
    once for the whole sum.  The other terms share one prepare_g_lower and
    floor its integer parts; the term at z = lam is floor(3/4) = 0.
    """
    first = g_lower(lam, ZERO, eps)
    parts = prepare_g_lower(lam, as_rational(eps))
    ln, ld = lam.numerator, lam.denominator

    def term(m: int) -> int:
        if m == 0:
            return max(0, _floor_plus(first.numerator, first.denominator, 3, 4))  # the Neumann shift
        if m * ld >= ln:
            return 0
        num, den = parts(m, 1)
        return 2 * max(0, (4 * num + 3 * den) // (4 * den))  # kappa(2, m) = 2 for m >= 1

    return term


def count_dirichlet_dim_reduction(d: int, lam, eps=DEFAULT_EPS) -> CountResult:
    """The d >= 3 Dirichlet count evaluated through its dimension-reduction form.

    With f(m) = floor(G(lam, z_m) + 1/4) on count_weighted's columns, it
    sums comb(n + d - 3, d - 3) * (f(n) + 2*sum_{m > n} f(m)) over n, the
    planar-style counts along the abscissas z_n + j, streamed down from
    the last column with one running suffix sum and one certified_floor_term
    per column.  It must equal count_weighted, which weights the columns by
    kappa(d, m) and walks long sums.  eps is only checked.
    """
    if d < 3:
        raise BadDimensionError(f"dimension reduction needs d >= 3, got {d}")
    lam = as_rational(lam)
    if lam < 0:
        raise DomainError(f"lam must be non-negative, got {lam}")
    _check_eps(eps)
    z_num, z_add, z_den, top = _columns(lam, ONE, d)
    shift = BoundKind.DIRICHLET.shift
    total = after = 0  # after: the sum of f over the columns past m
    for m in range(top, -1, -1):
        f = certified_floor_term(lam, rational(m * z_num + z_add, z_den), shift)
        total += math.comb(m + d - 3, d - 3) * (f + 2 * after)
        after += f
    return CountResult(total, Rigor.CERTIFIED_EXACT)


def sector_lattice_bound(kind: BoundKind, alpha_over_pi, lam, eps=DEFAULT_EPS) -> CountResult:
    """Certified sector count: unit-weight floor sum along abscissas m/(alpha/pi).

    ``alpha_over_pi`` is the aperture divided by pi and must be an exact
    rational in (0, 2] so the abscissas stay rational; Dirichlet sums start
    at m = 1, Neumann at m = 0, and so does the hull walk of a sum of at
    least _WALK_MIN_TERMS terms (_column_sum).  An undecided term raises
    UnresolvedFloorError, and eps is only checked.  For irrational
    apertures use ``analysis.sector_lattice_bound_oracle``.
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
    _check_eps(eps)
    start = 1 if kind is BoundKind.DIRICHLET else 0
    return CountResult(_column_sum(lam, a, kind.shift, start=start), Rigor.CERTIFIED_EXACT)


# The benchmark's output checks (perfbench/workloads.py) read the two
# double-precision oracles of polyacert.analysis as lattice attributes, and
# the benchmark stays unchanged until its own fix (ROADMAP item 2).  They
# resolve here by importing analysis on first use (PEP 562), so this module
# never imports it otherwise.
_PERFBENCH_ORACLES = frozenset({"count_weighted_oracle", "sector_lattice_bound_oracle"})


def __getattr__(name: str):
    if name in _PERFBENCH_ORACLES:
        from . import analysis

        return getattr(analysis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
