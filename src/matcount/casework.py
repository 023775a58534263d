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

Each route writes one record of the same shape, its columns: for each
side of the split a*H <= c*H + delta (small_a) and each c = 1..H, the G
and the J counts summed over that column's cells.  A region sum adds up
its own columns of the record it is given, or of a fresh one; the
casework command builds each route's record once and hands it to that
route's six region sums.  A record is one pass over the (c, a) grid in
whole rows of c, CELL_BLOCK cells at a time, as int64 arrays.  delta
is read as min(delta, 2H^2 + 1): past 2H^2 every d-interval below is
empty either way (d > (delta - Hc)/a > H), so every value stays below
3H^2 + H + 1.

The direct route solves each cell's congruence once for G and J:
d = d0 (mod c/g), g = gcd(a, c), with the inverse of a/g mod c/g by
extended Euclid (_inverse), counted in G's d-interval (|b| <= H)
[max(1, ceil((delta - Hc)/a)), min(H, floor((delta + Hc)/a))] less its
b = 0 point d = delta/a, if any, and in J's, which starts at d > delta/a
(b >= 1).

The hyperbola route counts each cell's points of u*v = delta (mod c) at
u = a, v = d as upper minus lower rows.  Upper is the box rows v <= H on
the small-a side and the curve v <= (delta + Hc)/a on the large-a side.
Lower is the curve v <= lower/a, capped at H on the small-a side and
empty when lower < 1: lower = delta - Hc - 1 for G (the strict endpoint
d > (delta - Hc)/a, shifted by one over integers) and lower = delta for
J (b >= 1 is d > delta/a).  Every cell of a column c reads the hyperbola
module's residue table of (c, delta mod c), built once per c with pow,
and the points in (lower, upper] are the module's stride count.  The
congruence admits G's b = 0 pairs, the points (a, delta/a) with a | delta
and delta/a <= H, and each such cell subtracts its one.

The two routes share no congruence count, only the grid pass (_record)
and G's b = 0 points (_b0); the casework command and the tests compare
their region sums, which must be equal.
"""

from __future__ import annotations

import enum

from . import hyperbola, lazy_import
from .errors import BudgetError

np = lazy_import("numpy")

# Every region sum visits H*H (a, c) cells and refuses more; at H = 316
# the casework command's hyperbola route takes about 0.03 s, its sign-class
# check 0.003 s and its direct route 0.024 s on a 2-core host.
CELL_BUDGET = 100_000

# Cells per array pass of either route, in whole rows of c; 2^12 was as
# fast as 2^13 and faster than 2^14 and 2^16 at H = 120 and 300.
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


Columns = dict[bool, tuple[tuple[int, ...], tuple[int, ...]]]


def _record(H: int, delta: int, cells) -> Columns:
    """The columns of a route: cells(a, c, small) gives the int64 (G, J)
    counts of a block of rows c (a column vector) by a = 1..H, small the
    cells with a*H <= c*H + delta; each row is summed on each side."""
    a = np.arange(1, H + 1, dtype=np.int64)
    rows = max(1, CELL_BLOCK // H)
    columns = {small_a: ([], []) for small_a in (True, False)}
    for lo in range(1, H + 1, rows):
        c = np.arange(lo, min(lo + rows, H + 1), dtype=np.int64)[:, None]
        small = a * H <= c * H + delta
        for k, counts in enumerate(cells(a, c, small)):
            on_small = np.where(small, counts, 0).sum(axis=1)
            columns[True][k].extend(on_small.tolist())
            columns[False][k].extend((counts.sum(axis=1) - on_small).tolist())
    return {small_a: (tuple(G), tuple(J)) for small_a, (G, J) in columns.items()}


def _b0(H: int, delta: int, a: np.ndarray) -> np.ndarray:
    """G's b = 0 points: the a with a | delta and delta/a <= H."""
    return (delta % a == 0) & (delta <= H * a)


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


def _direct_cells(H: int, delta: int, a, c):
    """(G, J) of each cell of the block, its congruence solved once: the
    d = d0 (mod c/g) in G's and in J's d-interval, G less its b = 0 point.
    Cells with an empty G interval or g not dividing delta count 0."""
    d_hi = np.minimum(H, (delta + H * c) // a)
    g_lo = np.maximum(1, -((H * c - delta) // a))
    g = np.gcd(a, c)
    i = np.flatnonzero((g_lo <= d_hi) & (delta % g == 0))
    ai, ci, g, hi, g_lo = i % H + 1, c.ravel()[i // H], g.flat[i], d_hi.flat[i], g_lo.flat[i]
    m = ci // g
    d0 = (delta // g) % m * _inverse(ai // g, m) % m
    j_lo = delta // ai + 1  # inside G's interval, which holds J's
    G, J = np.zeros(d_hi.shape, np.int64), np.zeros(d_hi.shape, np.int64)
    G.flat[i] = (hi - d0) // m - (g_lo - 1 - d0) // m
    J.flat[i] = np.where(j_lo <= hi, (hi - d0) // m - (j_lo - 1 - d0) // m, 0)
    return G - _b0(H, delta, a), J


def direct_columns(H: int, delta: int) -> Columns:
    """small_a -> (G, J): the direct route's counts per column c = 1..H on
    that side, each cell's congruence solved once for both problems."""
    _check(H, delta)
    delta = min(delta, 2 * H * H + 1)
    return _record(H, delta, lambda a, c, small: _direct_cells(H, delta, a, c))


def hyper_columns(H: int, delta: int) -> Columns:
    """small_a -> (G, J): the points of a*d = delta (mod c) in the column
    at each c = 1..H on that side, upper minus each problem's lower
    rows, as the module docstring states.  A block gathers its cells'
    entries from the residue tables of its rows, one table per c."""
    _check(H, delta)
    K, delta = delta, min(delta, 2 * H * H + 1)

    def cells(a, c, small):
        qs = c.ravel().tolist()
        tables = [hyperbola.period_table(q, K) for q in qs]
        cell = np.cumsum([0, *qs[:-1]])[:, None] + a % c  # u = a in its row's table
        w, m, v0 = (np.concatenate([t[k] for t in tables])[cell] for k in range(3))
        upper = np.where(small, H, (delta + H * c) // a)  # the box, or the curve

        def points(lower):
            rows = np.maximum(lower, 0) // a
            rows = np.where(small, np.minimum(rows, H), rows)
            return np.where(w > 0, hyperbola.stride_count(v0, m, rows, upper - rows), 0)

        return points(delta - H * c - 1) - _b0(H, delta, a), points(delta)

    return _record(H, delta, cells)


def _sum_G(columns: Columns, H: int, delta: int, region: RegionG) -> int:
    """G's columns of a record on the region's side, over its c-range."""
    G = columns[region.small_a][0]
    return sum(G[c - 1] for c in _c_range_G(H, delta, region))


def _c_range_G(H: int, delta: int, region: RegionG) -> range:
    if region.small_c:
        return range(1, min(H, delta // H) + 1)
    return range(delta // H + 1, H + 1)


def region_sum_G(H: int, delta: int, region: RegionG, *, columns: Columns | None = None) -> int:
    """G(a, c) summed over the region's (a, c) lattice points, from
    columns, which must be direct_columns(H, delta), or a fresh record."""
    _check(H, delta)
    return _sum_G(columns or direct_columns(H, delta), H, delta, region)


def region_sum_G_via_hyperbola(
    H: int, delta: int, region: RegionG, *, columns: Columns | None = None
) -> int:
    """Region sum evaluated through box/curve hyperbola counts; the strict
    lower endpoint d > (delta - Hc)/a is the curve at delta - Hc - 1.
    Sums columns, which must be hyper_columns(H, delta), or a fresh
    record.  Reads no direct count; it must equal region_sum_G exactly."""
    _check(H, delta)
    return _sum_G(columns or hyper_columns(H, delta), H, delta, region)


def region_sum_J(H: int, delta: int, region: RegionJ, *, columns: Columns | None = None) -> int:
    """J(a, c) summed over the region's (a, c) lattice points, from
    columns, which must be direct_columns(H, delta), or a fresh record."""
    _check(H, delta)
    return sum((columns or direct_columns(H, delta))[region.small_a][1])


def region_sum_J_via_hyperbola(
    H: int, delta: int, region: RegionJ, *, columns: Columns | None = None
) -> int:
    """Hyperbola-based J region sum; the strict lower endpoint d > delta/a
    is the weak-inclusion curve (0, delta/a], so no correction term.
    Sums columns, which must be hyper_columns(H, delta), or a fresh
    record.  Reads no direct count; it must equal region_sum_J exactly."""
    _check(H, delta)
    return sum((columns or hyper_columns(H, delta))[region.small_a][1])
