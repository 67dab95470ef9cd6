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
count along each hull edge.  A planar Neumann count makes about
1.5*lambda^(2/3) point tests at lambda 10^4 and 1.7 at 10^5 to 10^7, and
evaluates 1.75*lambda^(2/3) brackets at 10^4, 2.15 at 10^5, 2.4 at 10^6
and 2.9 at 10^7; it decides each point by an exact floor test, by the
chord lemma or by the tangent lemma below, and stops a slope search only
on a proof that arccos(z/lam) <= pi*a*s for the rational slope s, so the
count is exact; a point that cannot be decided raises
UnresolvedFloorError there, and nothing is rerun.
The chord lemma settles a point (m, y) as above the curve
f(m) = G + shift with no bracket, when y exceeds the chord through the
upper ends u1 >= f(m1) and u2 >= f(m2) of tested columns m1 < m < m2:
raised by that excess, both chord ends lie in the strict epigraph
{u > f}, which is convex as f is convex in m, and so does (m, y), so
y > f(m).  It rests on three facts: that convexity; only verified upper
ends enter the chord, each the upper end of the bracket that decided its
column; and a column at z >= lambda, where f is exactly the shift, has
the shift itself as its upper end, not floor(shift).
The tangent lemma settles a point (m, y) as not above the curve with no
bracket, when y <= l1 - s1*(m - m1)/a for the nearest tested column
m1 < m, the lower end l1 <= f(m1) of the bracket that decided it and its
steepness bound s1 >= arccos(z1/lam)/pi: f'(m1) = -arccos(z1/lam)/(pi*a)
>= -s1/a, and f, convex in m, lies above its tangent at m1, so
y <= f(m1) + f'(m1)*(m - m1) <= f(m).  Every point test returns that bound
with its bracket: the upper end of arccos(z/lam) that the bracket already
verified over pi's lower end, exactly 1/2 at z = 0 and 0 at z >= lambda
(where the lower end is the shift), or None where the test took the
reference bracket, whose column then settles nothing by this lemma.  The
same bound is the stop rule: a slope search stops at a point that is not
above when s <= a*p1/q1 for the flatter direction (q1, p1), with s the
bound of the nearest tested column at or left of the point's (arccos
decreases in z, so it bounds the curve there too), which proves
arccos(z/lam) <= pi*a*p1/q1 at the point.  Each check is one integer
cross-multiplication, and the walk keeps the tested columns only at or
right of its current vertex, the only ones a test looks at.  Every
floor test refines on one ladder of accuracies 1/10^r, r = 0 .. 16
(``_ACCURACIES``), from a start rung worked out from lambda alone on
integers (``_start_rung``) to the finest, gives floor(shift) at
z >= lambda, and returns the floor with the bracket that decided it.
No exact count depends on eps: every public count enters through
``_checked_lam``, which raises DomainError for lambda < 0, then for
eps <= 0, even for an empty sum; eps is otherwise ignored.  The walk
prepares its floor test once per sum (:func:`prepare_floor_term`), each
rung's bracket on its first use by :func:`curve.prepare_g_floor_ends`,
whose root comes from one integer square root and whose arccos ends lie
on a power of two (where those do not verify, it is the one-shot
route's), and tests points on the columns' integer parts: that
bracket is of G + shift, each end one integer pair over one denominator,
floored by integer division.  The term-by-term sums call
``certified_floor_term`` for each term, with
:func:`curve.prepare_g_bracket`'s brackets of G + shift, whose root and
arccos ends come from a shortest-rational search; the walk's bracket lies
inside that one at every rung, so the one-shot route is the walk's
independent reference.  Both preparers take (lam, shift, eps) and pi at
preparation, and a rung whose preparation raises is passed over like one
whose bracket does.
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
from bisect import bisect_left, bisect_right
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
    and the ladder returns floor(shift), with no bracketing needed.
    _checked_lam raises DomainError for lam < 0 and eps <= 0 on entry, and
    z < 0 raises it next.  eps is otherwise unused: the floor is exact.
    Each rung's bracket of G + shift comes from
    :func:`curve.prepare_g_bracket`, so this is the independent reference
    of the hull walk's point test, :func:`prepare_floor_term`.
    """
    lam = _checked_lam(lam, eps)
    z, shift = as_rational(z), as_rational(shift)
    if z.numerator < 0:
        raise DomainError(f"z must lie in [0, lam], got z={z}, lam={lam}")
    return _floor_ladder(lam, shift, prepare_g_bracket)(z.numerator, z.denominator)[0]


def _checked_lam(lam, eps) -> Fraction:
    """lam as a Fraction, the counts' one entry check: DomainError unless lam >= 0, then unless eps > 0."""
    lam = as_rational(lam)
    if lam.numerator < 0:
        raise DomainError(f"lam must be non-negative, got {lam}")
    if as_rational(eps).numerator <= 0:
        raise DomainError("eps must be positive")
    return lam


def prepare_floor_term(lam: Fraction, shift: Fraction):
    """The hull walk's point test for one (lam, shift), prepared once: a function of z's integer parts.

    The returned ``floor(zn, zd)`` is (floor(G(lam, zn/zd) + shift),
    (lo, hi, steep)) for integers zn >= 0 and zd > 0, neither normalised,
    decided on certified_floor_term's ladder, from the same start rung,
    with each rung's bracket from :func:`curve.prepare_g_floor_ends`: lo
    and hi are the integer pairs of the ends of the bracket that decided
    it, and steep is that bracket's steepness bound of the curve,
    arccos(z/lam)/pi at most, as an integer pair, or None where the rung
    took the reference bracket.  That bracket lies inside
    certified_floor_term's, so wherever certified_floor_term returns a
    floor this returns the same one, on the same rung or an earlier one.
    lam and shift must be Fractions.
    """
    return _floor_ladder(lam, shift, prepare_g_floor_ends)


def _floor_ladder(lam: Fraction, shift: Fraction, prepare_ends):
    """floor(zn, zd): (floor(G(lam, zn/zd) + shift), bracket), decided by prepare_ends(lam, shift, accuracy)'s brackets.

    prepare_ends returns a function of (zn, zd) whose first two items are
    the ends of a bracket of G + shift as integer pairs (num, den) with
    den > 0, each floored by num // den; bracket is what it returned for
    the rung that decided the floor.  At z >= lam, where G + shift is the
    shift and the curve is flat, bracket is ((shift), (shift), (0, 1)):
    the shift itself as both ends and a steepness bound of 0.  Built once:
    lam's integer parts, floor(shift) and the rungs from _start_rung(lam);
    once per rung, on its first use: its prepared ends.  zn >= 0 and
    zd > 0 need not be normalised; the abscissa of an UnresolvedFloorError
    is.  The rungs are tried once each, from the start rung to the finest,
    passing over one whose preparation or bracket raises GuessFailedError;
    a rung whose preparation raised is prepared again on its next use.  A
    point that no rung decides raises UnresolvedFloorError with the finest
    verified bracket of G + shift (None if none verified) and the
    accuracies tried, from the first GuessFailedError, if any.
    """
    ln, ld = lam.numerator, lam.denominator
    sn, sd = shift.numerator, shift.denominator
    past_lam = sn // sd  # floor(shift), the term at z >= lam, where G + shift is the shift
    first = _start_rung(lam)
    rungs, tries = [None] * len(_ACCURACIES), range(first, len(_ACCURACIES))

    def floor(zn: int, zd: int) -> tuple:
        if zn * ld >= ln * zd:
            return past_lam, ((sn, sd), (sn, sd), (0, 1))
        failed = finest = None
        for rung in tries:
            try:
                ends = rungs[rung]
                if ends is None:
                    ends = rungs[rung] = prepare_ends(lam, shift, _ACCURACIES[rung])
                bracket = ends(zn, zd)
            except GuessFailedError as exc:
                failed = failed or exc
                continue
            (lo_n, lo_d), (hi_n, hi_d) = bracket[0], bracket[1]
            f_lo = lo_n // lo_d
            if f_lo == hi_n // hi_d:
                return f_lo, bracket
            finest = bracket
        interval = None if finest is None else (rational(*finest[0]), rational(*finest[1]))
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
    # peak_rss_mb up 12.6 % (28.15 to 31.69 MB).  Preparing the one-shot
    # ladder, _floor_ladder on prepare_g_bracket, once per sum rather than
    # once per term ran exact_sweep's first 1,500 operations 1.4x faster
    # in-process, with the same outputs; its records grow peak_rss_mb by
    # about 440 bytes an operation, so any gain past about 14 % op/s
    # crosses the 5 % bound (ROADMAP item 7).
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
    (_step_sum).  A point is decided exactly, and only on columns from
    start on (see the module docstring for the two lemmas): above, by the
    chord lemma, when y exceeds the chord through the upper ends of the
    nearest tested columns on each side; not above, by the tangent lemma,
    when y <= l1 - s1*(m - m1)/a for the nearest tested column m1 on the
    left, its lower end l1 and its steepness bound s1; else
    y > floor(f(m)) by prepare_floor_term, once per column.  The walk keeps
    each tested column's floor and bracket while the column lies at or
    right of the current vertex, as no test looks left of it, but none
    whose point is not above in a search whose flatter direction is
    horizontal.

    The next edge is the steepest direction whose first point is above the
    curve; it is searched by mediants between a flatter direction (q1, p1)
    whose point is above and a steeper one whose point is not.  Once a
    mediant's point A is not above, steeper candidates than the flatter
    direction can only lie past A, so the search stops when the curve at A
    is provably at least as flat as that direction: the stop rule
    s <= a*p1/q1 (_steepness_at_most), with s the steepness bound of the
    nearest tested column at or left of A, which proves
    arccos(z/lam) <= pi*a*p1/q1 at A's abscissa z.  A cut-off that is not
    proved, as where s is None, only costs more tests.  A horizontal step
    is never tested, as f decreases.
    """
    z_num, z_add, z_den, top = _columns(lam, a, d)
    a_num, a_den = a.numerator, a.denominator
    if top < start:
        return 0
    point = prepare_floor_term(lam, shift)
    # the tested columns at or right of the vertex x, ascending, and for
    # each its point test's (floor, (lower end, upper end, steepness bound))
    cols, tested = [start], [point(start * z_num + z_add, z_den)]

    def above(m: int, y: int, keep_below: bool = True) -> bool:
        if m > top:
            return False
        i = bisect_left(cols, m)
        if i < len(cols) and cols[i] == m:
            return y > tested[i][0]
        if i:
            m1, (_, ((l1n, l1d), (n1, d1), s1)) = cols[i - 1], tested[i - 1]
            if i < len(cols):  # the chord lemma, with the nearest tested columns on each side
                m2, (n2, d2) = cols[i], tested[i][1][1]
                if (m2 - m) * n1 * d2 + (m - m1) * n2 * d1 < y * (m2 - m1) * d1 * d2:
                    return True
            # the tangent lemma, from the nearest tested column on the left: y <= l1 - s1*(m - m1)/a
            if s1 is not None and (l1n - y * l1d) * s1[1] * a_num >= s1[0] * (m - m1) * a_den * l1d:
                return False
        found = point(m * z_num + z_add, z_den)
        if keep_below or y > found[0]:
            cols.insert(i, m)
            tested.insert(i, found)
        return y > found[0]

    x, y, total = start, tested[0][0] + 1, 0  # total: sum of w*h over the columns start .. x - 1
    stack = [(1, 0), (0, 1)]
    while True:
        q, p = stack.pop()  # the steepest direction left: step along it while above
        if p == 0:
            total += y * (_weight_below(d, top) - _weight_below(d, x))
            x = top
        while above(x + q, y - p):
            total += _step_sum(d, x, y, q, p)
            x, y = x + q, y - p
        drop = bisect_left(cols, x)  # no test looks left of the vertex
        del cols[:drop], tested[:drop]
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
            elif m > top:
                break
            else:
                # the stop rule, on the steepness bound of the nearest tested
                # column at or left of m: arccos decreases in z, so it bounds m's
                j = bisect_right(cols, m)
                if j and _steepness_at_most(tested[j - 1][1][2], a_num * p1, a_den * q1):
                    break
                q, p = q1 + q, pm


def _steepness_at_most(steep, pn: int, pd: int) -> bool:
    """The walk's stop rule: whether the steepness bound steep, an integer pair (n, d) or None, is at most pn/pd.

    pd > 0.  steep = n/d bounds arccos(z/lam)/pi at a column from above,
    so n/d <= pn/pd proves arccos(z/lam) <= pi*pn/pd there, on one integer
    cross-multiplication; a bound that is None proves nothing.
    """
    return steep is not None and steep[0] * pd <= pn * steep[1]


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


def count_weighted(d: int, kind: BoundKind, lam, eps=DEFAULT_EPS) -> CountResult:
    """Certified-exact weighted count: sum of kappa(d, m)*floor(G(lam, z_m) + shift).

    The sum runs over m = 0 .. floor(lam - d/2 + 1); abscissas are
    z_m = m + d/2 - 1.  Neumann counting is only defined in dimension 2.
    A sum of at least _WALK_MIN_TERMS terms, in any dimension, is read off
    the hull walk (_column_sum), a shorter one summed term by term.  An
    undecided term raises UnresolvedFloorError.  eps is only checked.
    """
    _validate_count_args(d, kind)
    lam = _checked_lam(lam, eps)
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
    the clamped floors of g_lower term by term.  A bad lam or eps raises
    DomainError on entry, at lam = 0 too.
    """
    lam = _checked_lam(lam, eps)
    if lam == 0:  # the one term lies at z = lam, where it is floor(3/4)
        return CountResult(0, Rigor.CERTIFIED_LOWER)
    top = _columns(lam, ONE, 2)[3]  # column m lies at z = m
    return CountResult(sum(map(_lower_term(lam, eps), range(top + 1))), Rigor.CERTIFIED_LOWER)


def _lower_term(lam: Fraction, eps):
    """term(m) = kappa(2, m) * max(0, floor(g_lower(lam, m, eps) + 3/4)) for lam > 0.

    Term 0 is g_lower(lam, 0, eps) = lam/pi_hi itself.  The other terms
    share one prepare_g_lower and floor its integer parts; the term at
    z = lam is floor(3/4) = 0.

    A window floor, which decides a term from the range its guesses'
    windows leave g_lower (ROADMAP item 7), ran certify_verify 1.25x
    faster in-process with the same certificates, but is not kept: the
    benchmark's records grow its peak_rss_mb by about 3.7 KB an operation,
    so a gain past about 18 % op/s crosses the 5 % bound.
    """
    first = g_lower(lam, ZERO, eps)
    parts = prepare_g_lower(lam, as_rational(eps))
    ln, ld = lam.numerator, lam.denominator

    def term(m: int) -> int:
        if m == 0:
            return max(0, (4 * first.numerator + 3 * first.denominator) // (4 * first.denominator))  # the Neumann shift
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
    lam = _checked_lam(lam, eps)
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
    lam = _checked_lam(lam, eps)
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
