"""Region sums of G(a, c) and J(a, c), the all-positive and mixed-sign
quadrant problems, by two routes: directly over the cells and through
hyperbola counts.

For 1 <= a, c <= H and delta >= 1, G(a, c) counts the pairs (b, d) with
a*d = delta + b*c, 1 <= d <= H and 1 <= |b| <= H (b of either sign,
b != 0).  J(a, c) counts those with 1 <= b <= H strictly positive.
Region thresholds are the rational lines c = delta/H and
a = c + delta/H; all comparisons are done in integer arithmetic
(a*H vs c*H + delta), never floating point.  A region's enum value is
its geometry, read as the member attributes small_a and (for G)
small_c, so no code branches on which member it is.

The direct route evaluates G and J in closed form over a region's cells
as int64 arrays: the d = d0 (mod c/g), g = gcd(a, c), with the inverse of
a/g mod c/g by extended Euclid, in G's d-interval (|b| <= H)
[max(1, ceil((delta - Hc)/a)), min(H, floor((delta + Hc)/a))] less its
b = 0 point d = delta/a, if any, or in J's, which starts at d > delta/a
(b >= 1).

The hyperbola route counts every column c with one formula, upper minus
lower, over the a-range (U, U+X] cut at the integer split
min((c*H + delta) // H, H).  Upper is the box rows d <= H on the small-a
side and the curve d <= (delta + Hc)/a on the large-a side.  Lower is
the curve d <= lower/a, capped at H on the small-a side and skipped when
lower < 1: lower = delta - Hc - 1 for G (the strict endpoint
d > (delta - Hc)/a, shifted by one over integers) and lower = delta for
J (b >= 1 is d > delta/a).  The congruence admits G's b = 0 pairs, the
points (a, delta/a) with a | delta and delta/a <= H, and each column
subtracts those whose a lies in its a-range, so every column is exact.

The route is one sweep per (H, delta) over every column c = 1..H on
both sides: at each (c, side) it counts the upper part once, then G's
and J's lower curves, all three on the one residue table of
(c, delta) that the hyperbola module keeps, so no table is built twice.
hyper_columns returns the sweep as a value, and each region sum, for G
as for J, adds up its own columns of the sweep it is given, or of a
fresh one: the casework command sweeps once and hands the record to all
six sums.

The two routes share no counter; the casework command and the tests
compare their region sums, which must be equal.
"""

from __future__ import annotations

import enum
from bisect import bisect_right

from . import lazy_import
from .errors import BudgetError
from .hyperbola import (
    CurveQuery,
    HyperbolaQuery,
    Hyperbolic,
    count_box,
    count_under_curve,
)

np = lazy_import("numpy")

# Every region sum visits H*H (a, c) cells and refuses more; at H = 316
# the casework command's hyperbola route takes about 0.05 s, its sign-class
# check 0.11 s and its direct route (array work) 0.05 s on a 2-core host.
CELL_BUDGET = 100_000

# Cells per array pass of the direct route, in whole rows of c; 2^14 is a
# little faster but adds about 0.4 MB of peak RSS at H = 120.
CELL_BLOCK = 1 << 12


class RegionG(enum.Enum):
    """(small/large a) x (small/large c) with thresholds a <= c + delta/H
    and c <= delta/H; the four regions partition (0, H]^2.  A member's
    value is its (small_a, small_c) pair."""

    SS = (True, True)
    SL = (True, False)
    LS = (False, True)
    LL = (False, False)

    def __init__(self, small_a: bool, small_c: bool):
        # plain attributes, as in RegionJ: each route reads the side it
        # sums by name rather than by unpacking Enum.value
        self.small_a = small_a
        self.small_c = small_c


class RegionJ(enum.Enum):
    """Split at a <= delta/H + c; the two regions partition (0, H]^2.  A
    member's value is small_a."""

    SMALL_A = True
    LARGE_A = False

    def __init__(self, small_a: bool):
        self.small_a = small_a


def _check(H: int, delta: int) -> None:
    """G's and J's domain and the H*H cell budget, checked first by every
    region sum of both routes."""
    if H < 1:
        raise ValueError(f"region sums require H >= 1, got {H}")
    if delta < 1:
        raise ValueError(f"region sums require delta >= 1, got {delta}")
    if H * H > CELL_BUDGET:
        raise BudgetError(f"casework(H={H}) visits {H * H} cells, budget is {CELL_BUDGET}")


def _cells(H: int, delta: int, cs: range, small_a: bool):
    """(a, c) int64 arrays of the cells with c in cs and a on the small_a
    side of a*H <= c*H + delta, CELL_BLOCK cells at a time.  Nothing once
    delta > 2H^2, where every d-interval is empty (d_lo >= (delta - Hc)/a
    > H), so every int64 value of a pass stays below 3H^2 + H."""
    if delta > 2 * H * H:
        return
    a = np.arange(1, H + 1, dtype=np.int64)
    rows = max(1, CELL_BLOCK // H)
    for lo in range(cs.start, cs.stop, rows):
        c = np.arange(lo, min(lo + rows, cs.stop), dtype=np.int64)[:, None]
        keep = (a * H <= c * H + delta) == small_a
        yield np.broadcast_to(a, keep.shape)[keep], np.broadcast_to(c, keep.shape)[keep]


def _inverse(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x^-1 mod m for coprime int64 arrays (0 where m = 1) by extended
    Euclid, each entry dropped once its remainder is 0; |values| <= m."""
    inv = np.zeros_like(m)
    i, r0, r1, s0, s1 = np.arange(len(m)), m, x % m, np.zeros_like(m), np.ones_like(m)
    while len(i):
        done = r1 == 0
        inv[i[done]] = s0[done]
        i, r0, r1, s0, s1 = (v[~done] for v in (i, r0, r1, s0, s1))
        q, r = np.divmod(r0, r1)
        r0, r1, s0, s1 = r1, r, s1, s0 - q * s1
    return inv % m


def _congruent_total(a, c, delta: int, d_lo, d_hi) -> int:
    """#{d in [d_lo, d_hi]: a*d = delta (mod c)}, summed over int64
    arrays of cells."""
    g = np.gcd(a, c)
    i = np.flatnonzero((d_lo <= d_hi) & (delta % g == 0))
    a, g, d_lo, d_hi = a[i], g[i], d_lo[i], d_hi[i]
    m = c[i] // g
    d0 = (delta // g) % m * _inverse(a // g, m) % m
    return int(((d_hi - d0) // m - (d_lo - 1 - d0) // m).sum())


def region_sum_G(H: int, delta: int, region: RegionG) -> int:
    """G(a, c) summed over the region's (a, c) lattice points."""
    _check(H, delta)
    total = 0
    for a, c in _cells(H, delta, _c_range_G(H, delta, region), region.small_a):
        d_lo = np.maximum(1, -((H * c - delta) // a))
        total += _congruent_total(a, c, delta, d_lo, np.minimum(H, (delta + H * c) // a))
        total -= int(np.count_nonzero((delta % a == 0) & (delta <= H * a)))  # b = 0
    return total


def _c_range_G(H: int, delta: int, region: RegionG) -> range:
    if region.small_c:
        return range(1, min(H, delta // H) + 1)
    return range(delta // H + 1, H + 1)


Columns = dict[bool, tuple[tuple[int, ...], tuple[int, ...]]]


def hyper_columns(H: int, delta: int) -> Columns:
    """small_a -> (G, J): the points of a*d = delta (mod c) in the column
    at each c = 1..H on that side, upper minus each problem's lower
    curve, as the module docstring states.  G's b = 0 pairs are
    subtracted per column: two bisections of the sorted a with a | delta
    and delta/a <= H count those in the column's a-range.  Each (c, side)
    reads one residue table and counts its upper part once for both
    problems; both sides of a column run in turn, so a table of all
    residues mod c serves both."""
    _check(H, delta)
    b0 = [a for a in range(1, H + 1) if delta % a == 0 and delta // a <= H]
    columns = {small_a: ([], []) for small_a in (True, False)}
    for c in range(1, H + 1):
        split = min((c * H + delta) // H, H)
        for small_a, (G, J) in columns.items():
            U, X = (0, split) if small_a else (split, H - split)
            if X <= 0:
                G.append(0)
                J.append(0)
                continue
            if small_a:
                upper = count_box(HyperbolaQuery(K=delta, q=c, U=U, V=0, X=X, Y=H))
            else:
                upper = count_under_curve(
                    CurveQuery(K=delta, q=c, U=U, X=X, bound=Hyperbolic(delta + H * c))
                )
            for column, lower in ((G, delta - H * c - 1), (J, delta)):
                n = upper
                if lower >= 1:
                    # Capped at H on (0, X], the curve is flat wherever
                    # lower >= H a, so lowering its A to H X changes no row
                    # and keeps A inside the queries' int64 domain however
                    # large delta is.
                    bound = Hyperbolic(min(lower, H * X), cap=H) if small_a else Hyperbolic(lower)
                    n -= count_under_curve(CurveQuery(K=delta, q=c, U=U, X=X, bound=bound))
                column.append(n)
            G[-1] -= bisect_right(b0, U + X) - bisect_right(b0, U)
    return {small_a: (tuple(G), tuple(J)) for small_a, (G, J) in columns.items()}


def region_sum_G_via_hyperbola(
    H: int, delta: int, region: RegionG, *, columns: Columns | None = None
) -> int:
    """Region sum evaluated through box/curve hyperbola counts; the strict
    lower endpoint d > (delta - Hc)/a is the curve at delta - Hc - 1.
    Sums columns, which must be hyper_columns(H, delta), or a fresh
    sweep.  Reads no direct count; it must equal region_sum_G exactly."""
    _check(H, delta)
    G = (columns or hyper_columns(H, delta))[region.small_a][0]
    return sum(G[c - 1] for c in _c_range_G(H, delta, region))


def region_sum_J(H: int, delta: int, region: RegionJ) -> int:
    """J(a, c) summed over the region's (a, c) lattice points."""
    _check(H, delta)
    total = 0
    for a, c in _cells(H, delta, range(1, H + 1), region.small_a):
        d_hi = np.minimum(H, (delta + H * c) // a)
        total += _congruent_total(a, c, delta, delta // a + 1, d_hi)
    return total


def region_sum_J_via_hyperbola(
    H: int, delta: int, region: RegionJ, *, columns: Columns | None = None
) -> int:
    """Hyperbola-based J region sum; the strict lower endpoint d > delta/a
    is the weak-inclusion curve (0, delta/a], so no correction term.
    Sums columns, which must be hyper_columns(H, delta), or a fresh
    sweep.  Reads no direct count; it must equal region_sum_J exactly."""
    _check(H, delta)
    return sum((columns or hyper_columns(H, delta))[region.small_a][1])
