"""Per-(a, c) solution counts for the all-positive and mixed-sign
quadrant problems, their region decompositions, and hyperbola-based
re-evaluation of the region sums.

G(a, c) counts pairs (b, d) with a*d = delta + b*c, 1 <= d <= H and
1 <= |b| <= H (b of either sign, b != 0).  J(a, c) is the variant with
1 <= b <= H strictly positive.  Region thresholds are the rational lines
c = delta/H and a = c + delta/H; all comparisons are done in integer
arithmetic (a*H vs c*H + delta), never floating point, and a column's
a-range is cut at the integer floor (c*H + delta) // H.

The hyperbola-based evaluations intentionally include the b = 0 pairs
(the congruence formulation admits them) and subtract an explicit
correction; exact agreement with the direct double loop is the test
currency of this module.  Strict endpoints (d < f(a)) are realized by
shifting the integer numerator by one: d < (M)/a over integers is
d <= (M-1)/a.  Curves that must stay inside the box rows d <= H are
hyperbolic bounds capped at H.
"""

from __future__ import annotations

import enum
import math

from .errors import InvariantError
from .hyperbola import (
    CurveQuery,
    HyperbolaQuery,
    Hyperbolic,
    count_box,
    count_under_curve,
)


class RegionG(enum.Enum):
    """(small/large a) x (small/large c) with thresholds a <= c + delta/H
    and c <= delta/H; the four regions partition (0, H]^2."""

    SS = "small_a_small_c"
    SL = "small_a_large_c"
    LS = "large_a_small_c"
    LL = "large_a_large_c"


class RegionJ(enum.Enum):
    """Split at a <= delta/H + c; the two regions partition (0, H]^2."""

    SMALL_A = "small_a"
    LARGE_A = "large_a"


def _ceil_div(p: int, q: int) -> int:
    return -(-p // q)


def _count_congruent(a: int, c: int, delta: int, d_lo: int, d_hi: int) -> int:
    """#{d in [d_lo, d_hi]: a*d = delta (mod c)}."""
    if d_lo > d_hi:
        return 0
    g = math.gcd(a, c)
    if delta % g:
        return 0
    m = c // g
    if m == 1:
        return d_hi - d_lo + 1
    d0 = ((delta // g) * pow((a // g) % m, -1, m)) % m
    return (d_hi - d0) // m - (d_lo - 1 - d0) // m


def _g_interval(a: int, c: int, H: int, delta: int) -> tuple[int, int]:
    """The d-interval of the b-window |b| <= H: [max(1, ceil((delta-Hc)/a)),
    min(H, floor((delta+Hc)/a))]."""
    d_lo = max(1, _ceil_div(delta - H * c, a))
    d_hi = min(H, (delta + H * c) // a)
    return d_lo, d_hi


def count_G_with_b0(a: int, c: int, H: int, delta: int) -> int:
    """As count_G but permitting b = 0 (the raw congruence count)."""
    d_lo, d_hi = _g_interval(a, c, H, delta)
    return _count_congruent(a, c, delta, d_lo, d_hi)


def _has_b0(a: int, H: int, delta: int) -> bool:
    """Whether (a, *) admits the b = 0 solution d = delta/a in [1, H]."""
    return delta % a == 0 and 1 <= delta // a <= H


def count_G(a: int, c: int, H: int, delta: int) -> int:
    """Exact #{(b, d): a*d = delta + b*c, 1 <= d <= H, 1 <= |b| <= H}."""
    if not (1 <= a <= H and 1 <= c <= H):
        raise ValueError("count_G() requires 1 <= a, c <= H")
    if delta < 1:
        raise ValueError(f"count_G() requires delta >= 1, got {delta}")
    n = count_G_with_b0(a, c, H, delta)
    if _has_b0(a, H, delta):
        n -= 1  # at most one d solves a*d = delta
    return n


def count_J(a: int, c: int, H: int, delta: int) -> int:
    """Exact #{(b, d): a*d = delta + b*c, 1 <= b, d <= H}.

    The b >= 1 constraint is the strict lower endpoint d > delta/a; the
    count is zero for every (a, c) once delta >= H^2.
    """
    if not (1 <= a <= H and 1 <= c <= H):
        raise ValueError("count_J() requires 1 <= a, c <= H")
    if delta < 1:
        raise ValueError(f"count_J() requires delta >= 1, got {delta}")
    d_lo = delta // a + 1
    d_hi = min(H, (delta + c * H) // a)
    return _count_congruent(a, c, delta, d_lo, d_hi)


def _in_region_G(a: int, c: int, H: int, delta: int, region: RegionG) -> bool:
    small_c = c * H <= delta
    if a * H <= c * H + delta:
        return region is (RegionG.SS if small_c else RegionG.SL)
    return region is (RegionG.LS if small_c else RegionG.LL)


def region_sum_G(H: int, delta: int, region: RegionG) -> int:
    """Sum of count_G over the region's (a, c) lattice points."""
    total = 0
    for c in range(1, H + 1):
        for a in range(1, H + 1):
            if _in_region_G(a, c, H, delta, region):
                total += count_G(a, c, H, delta)
    return total


def _c_range_G(H: int, delta: int, region: RegionG) -> range:
    small_c = region in (RegionG.SS, RegionG.LS)
    if small_c:
        return range(1, min(H, delta // H) + 1)
    return range(delta // H + 1, H + 1)


def _column(c: int, H: int, delta: int, small_a: bool) -> tuple[int, int]:
    """The a-range (U, U+X] of a column at c: a <= c + delta/H on the small-a
    side, the rest of (0, H] on the large-a side."""
    split = min((c * H + delta) // H, H)
    return (0, split) if small_a else (split, H - split)


def _b0_count_region(H: int, delta: int, region: RegionG) -> int:
    total = 0
    for a in range(1, H + 1):
        if not _has_b0(a, H, delta):
            continue
        for c in range(1, H + 1):
            if _in_region_G(a, c, H, delta, region):
                total += 1
    return total


def _hyper_region_c(
    c: int, H: int, delta: int, region: RegionG
) -> int:
    """Hyperbola-based congruence count (b = 0 included) of the region's
    column at this c."""
    U, X = _column(c, H, delta, region in (RegionG.SS, RegionG.SL))
    if X <= 0:
        return 0
    if region == RegionG.SL:
        return count_box(HyperbolaQuery(K=delta, q=c, U=U, V=0, X=X, Y=H))
    if region == RegionG.SS:
        n = count_box(HyperbolaQuery(K=delta, q=c, U=U, V=0, X=X, Y=H))
        strict_lo = delta - H * c - 1  # d < (delta - Hc)/a over integers
        if strict_lo >= 1:
            n -= count_under_curve(
                CurveQuery(K=delta, q=c, U=U, X=X, bound=Hyperbolic(strict_lo, cap=H))
            )
        return n
    if region == RegionG.LL:
        return count_under_curve(
            CurveQuery(K=delta, q=c, U=U, X=X, bound=Hyperbolic(delta + H * c))
        )
    # LL handled; LS = band (f_-, f_+]
    n = count_under_curve(
        CurveQuery(K=delta, q=c, U=U, X=X, bound=Hyperbolic(delta + H * c))
    )
    strict_lo = delta - H * c - 1
    if strict_lo >= 1:
        n -= count_under_curve(
            CurveQuery(K=delta, q=c, U=U, X=X, bound=Hyperbolic(strict_lo))
        )
    return n


def _check_column(
    col: int, direct: int, c: int, H: int, delta: int, region: RegionG | RegionJ
) -> None:
    if col != direct:
        raise InvariantError(
            f"hyperbola column mismatch at c={c} "
            f"(H={H}, delta={delta}, region={region.name}): {col} != {direct}"
        )


def region_sum_G_via_hyperbola(H: int, delta: int, region: RegionG) -> int:
    """Region sum evaluated through box/curve hyperbola counts.

    Must equal region_sum_G exactly; every column is compared against the
    direct congruence count, and the first mismatching c raises
    InvariantError.
    """
    total = 0
    for c in _c_range_G(H, delta, region):
        col = _hyper_region_c(c, H, delta, region)
        direct = sum(
            count_G_with_b0(a, c, H, delta)
            for a in range(1, H + 1)
            if _in_region_G(a, c, H, delta, region)
        )
        _check_column(col, direct, c, H, delta, region)
        total += col
    return total - _b0_count_region(H, delta, region)


def _in_region_J(a: int, c: int, H: int, delta: int, region: RegionJ) -> bool:
    small_a = a * H <= delta + c * H
    return small_a if region is RegionJ.SMALL_A else not small_a


def region_sum_J(H: int, delta: int, region: RegionJ) -> int:
    """Sum of count_J over the region's (a, c) lattice points."""
    total = 0
    for c in range(1, H + 1):
        for a in range(1, H + 1):
            if _in_region_J(a, c, H, delta, region):
                total += count_J(a, c, H, delta)
    return total


def region_sum_J_via_hyperbola(H: int, delta: int, region: RegionJ) -> int:
    """Hyperbola-based J region sum; the strict lower endpoint d > delta/a
    is the weak-inclusion curve (0, delta/a], so no correction term.
    Every column is checked against the direct count, as in
    region_sum_G_via_hyperbola."""
    total = 0
    for c in range(1, H + 1):
        U, X = _column(c, H, delta, region is RegionJ.SMALL_A)
        if X <= 0:
            continue
        if region is RegionJ.SMALL_A:
            col = count_box(HyperbolaQuery(K=delta, q=c, U=U, V=0, X=X, Y=H))
            col -= count_under_curve(
                CurveQuery(K=delta, q=c, U=U, X=X, bound=Hyperbolic(delta, cap=H))
            )
        else:
            col = count_under_curve(
                CurveQuery(K=delta, q=c, U=U, X=X, bound=Hyperbolic(delta + H * c))
            )
            col -= count_under_curve(
                CurveQuery(K=delta, q=c, U=U, X=X, bound=Hyperbolic(delta))
            )
        direct = sum(
            count_J(a, c, H, delta)
            for a in range(1, H + 1)
            if _in_region_J(a, c, H, delta, region)
        )
        _check_column(col, direct, c, H, delta, region)
        total += col
    return total
