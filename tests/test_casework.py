"""Region partitions, golden fixtures, both routes against per-cell
enumeration, and exact agreement between the direct and hyperbola-based
region sums."""

import random
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings, strategies as st

from matcount import casework
from matcount.casework import (
    RegionG,
    RegionJ,
    region_sum_G,
    region_sum_G_via_hyperbola,
    region_sum_J,
    region_sum_J_via_hyperbola,
)
from matcount.errors import BudgetError
from matcount.hyperbola import (
    CurveQuery,
    HyperbolaQuery,
    Hyperbolic,
    count_box,
    count_under_curve,
)
from matcount.exact import SignClass, fast_count, sign_class_count, zero_entry_count
from matcount.tau_tables import TauWindows, build_tau_table, self_convolution, shifted_sum


def enumerate_cell(a, c, H, delta):
    """(G, J) of the cell (a, c) by enumeration: for each d in 1..H, the b
    with a*d = delta + b*c when it is an integer, counted if it is in
    G's range 1 <= |b| <= H and, for J, in 1 <= b <= H."""
    G = J = 0
    for d in range(1, H + 1):
        b, r = divmod(a * d - delta, c)
        if r == 0 and 1 <= abs(b) <= H:
            G += 1
            J += b > 0
    return G, J


def test_regions_partition_and_cross_module_totals():
    for H in (10, 20):
        for delta in (1, 3, 7, 25, H, 2 * H, H * H // 2):
            g_total = sum(region_sum_G(H, delta, r) for r in RegionG)
            assert g_total == sign_class_count(H, delta, SignClass(1, 1, 1))
            j_total = sum(region_sum_J(H, delta, r) for r in RegionJ)
            assert j_total == sign_class_count(H, delta, SignClass(1, 1, -1))
            assert j_total == shifted_sum(build_tau_table(H), delta)


def test_direct_route_checks_the_tau_pass_at_its_real_window_size(monkeypatch):
    # J counts ad - bc = D over a, b, c, d in [1, H], the shifted sum S,
    # and G - J counts ad + bc = D, the self-convolution M, by a route
    # that shares no code with tau_tables.  At H = 1500, tau_H spans two
    # 2^21-cell windows, and the deltas put shifts and mirror partners
    # inside one window, across the first window's edge and at 2H^2.
    H = 1500
    monkeypatch.setattr(casework, "CELL_BUDGET", H * H)
    windows = TauWindows(H)
    for delta in (720, 2**21 + 1, 2 * H * H - 3):
        columns = casework.direct_columns(H, delta)
        G = sum(region_sum_G(H, delta, r, columns=columns) for r in RegionG)
        J = sum(region_sum_J(H, delta, r, columns=columns) for r in RegionJ)
        assert J == shifted_sum(windows, delta), delta
        assert G - J == self_convolution(windows, delta), delta
        total = fast_count(H, delta, windows)
        assert 4 * (G + J) + zero_entry_count(H, delta, windows) == total, delta


def test_small_delta_empties_small_c_regions():
    # delta < H leaves no positive integer c <= delta/H
    for region in (RegionG.SS, RegionG.LS):
        assert region_sum_G(9, 5, region) == 0


def test_golden_fixtures():
    # frozen from the direct double loop
    assert {r.name: region_sum_G(20, 60, r) for r in RegionG} == {
        "SS": 118,
        "SL": 647,
        "LS": 200,
        "LL": 295,
    }
    assert {r.name: region_sum_J(20, 7, r) for r in RegionJ} == {
        "SMALL_A": 225,
        "LARGE_A": 236,
    }


# The module's threshold tests, written out per cell.
def cells_G(H, delta, region):
    return [(a, c) for c in range(1, H + 1) for a in range(1, H + 1)
            if (a * H <= c * H + delta) == region.small_a
            and (c * H <= delta) == region.small_c]


def cells_J(H, delta, region):
    return [(a, c) for c in range(1, H + 1) for a in range(1, H + 1)
            if (a * H <= c * H + delta) == region.small_a]


@given(st.integers(1, 25).flatmap(
    lambda H: st.tuples(st.just(H), st.integers(1, 2 * H * H + H + 1))))
@example((25, 2 * 25 * 25)).via("delta = 2H^2, the last delta with cells to count")
@example((25, 2 * 25 * 25 + 1)).via("delta = 2H^2 + 1, where the arrays are skipped")
@example((7, 2 * 7 * 7)).via("delta = 2H^2 at a small H")
@settings(max_examples=150, deadline=None)
def test_direct_route_equals_the_per_cell_counts(point):
    H, delta = point
    counts = {(a, c): enumerate_cell(a, c, H, delta)
              for a in range(1, H + 1) for c in range(1, H + 1)}
    for region in RegionG:
        assert region_sum_G(H, delta, region) == sum(
            counts[cell][0] for cell in cells_G(H, delta, region)), (H, delta, region)
    for region in RegionJ:
        assert region_sum_J(H, delta, region) == sum(
            counts[cell][1] for cell in cells_J(H, delta, region)), (H, delta, region)


def test_direct_route_blocks_do_not_change_the_sums(monkeypatch):
    points = [(13, 200), (30, 77), (40, 60)]
    expected = [[region_sum_G(H, delta, r) for r in RegionG] +
                [region_sum_J(H, delta, r) for r in RegionJ] for H, delta in points]
    for block in (1, 7, 50):  # below one row, a few rows, rows that cross a region
        monkeypatch.setattr(casework, "CELL_BLOCK", block)
        assert expected == [[region_sum_G(H, delta, r) for r in RegionG] +
                            [region_sum_J(H, delta, r) for r in RegionJ] for H, delta in points]


def test_direct_route_past_int64_counts_zero():
    for region in RegionG:
        assert region_sum_G(5, 2**70, region) == 0
    for region in RegionJ:
        assert region_sum_J(5, 2**70, region) == 0


@pytest.mark.parametrize("region_sum, regions", [
    (region_sum_G, RegionG),
    (region_sum_G_via_hyperbola, RegionG),
    (region_sum_J, RegionJ),
    (region_sum_J_via_hyperbola, RegionJ),
], ids=lambda v: v.__name__)
def test_both_routes_refuse_H_and_delta_below_1(region_sum, regions):
    for H, delta, message in ((5, 0, "delta >= 1, got 0"), (5, -5, "delta >= 1, got -5"),
                              (0, 5, "H >= 1, got 0"), (-1, 5, "H >= 1, got -1")):
        for region in regions:
            with pytest.raises(ValueError, match=f"^region sums require {message}$"):
                region_sum(H, delta, region)


@pytest.mark.parametrize("region_sum, regions", [
    (region_sum_G, RegionG),
    (region_sum_G_via_hyperbola, RegionG),
    (region_sum_J, RegionJ),
    (region_sum_J_via_hyperbola, RegionJ),
], ids=lambda v: v.__name__)
def test_every_region_sum_refuses_past_the_cell_budget(region_sum, regions, monkeypatch):
    def visited(*args):
        raise AssertionError("a region sum read its cells past the budget")

    for name in ("_record", "direct_columns", "hyper_columns"):
        monkeypatch.setattr(casework, name, visited)
    for region in regions:
        with pytest.raises(BudgetError, match=(
            r"^casework\(H=317\) visits 100489 cells, budget is 100000$"
        )):
            region_sum(317, 1, region)


def test_delta_H_squared_kills_J():
    H = 7
    assert sum(region_sum_J(H, H * H, r) for r in RegionJ) == 0


@pytest.mark.parametrize("H", [10, 20])
def test_hyperbola_equals_direct(H):
    for delta in (1, 3, 7, 25, H, 2 * H, H * H // 2):
        for region in RegionG:
            assert region_sum_G_via_hyperbola(H, delta, region) == \
                region_sum_G(H, delta, region), (H, delta, region)
        for region in RegionJ:
            assert region_sum_J_via_hyperbola(H, delta, region) == \
                region_sum_J(H, delta, region), (H, delta, region)


@given(st.integers(1, 15).flatmap(lambda H: st.tuples(st.just(H), st.integers(1, 2 * H * H + 1))))
@settings(max_examples=300, deadline=None)
def test_hyperbola_equals_direct_for_every_delta(point):
    # delta runs past H^2 and 2H^2, where the lower curve and the split
    # at H take over
    H, delta = point
    for region in RegionG:
        assert region_sum_G_via_hyperbola(H, delta, region) == region_sum_G(H, delta, region)
    for region in RegionJ:
        assert region_sum_J_via_hyperbola(H, delta, region) == region_sum_J(H, delta, region)


def _sample_deltas(H):
    """1, 2H^2, 2H^2 + 1 and up to six deltas in between, seeded by H."""
    top = 2 * H * H + 1
    return sorted({1, top - 1, top, *random.Random(H).sample(range(1, top + 1), min(6, top))})


def assert_per_cell_sums(record, H):
    # each (c, side) column, G's b = 0 pairs already taken out, is the sum
    # of the per-cell counts over the a on that side of a*H <= c*H + delta
    for delta in _sample_deltas(H):
        columns = record(H, delta)
        for small_a, (G, J) in columns.items():
            assert len(G) == len(J) == H
            for c in range(1, H + 1):
                side = [enumerate_cell(a, c, H, delta) for a in range(1, H + 1)
                        if (a * H <= c * H + delta) == small_a]
                assert G[c - 1] == sum(g for g, _ in side), (H, delta, c)
                assert J[c - 1] == sum(j for _, j in side), (H, delta, c)


@pytest.mark.parametrize("H", range(1, 13))
def test_each_hyperbola_column_is_its_per_cell_sum(H):
    assert_per_cell_sums(casework.hyper_columns, H)


@pytest.mark.parametrize("H", range(1, 13))
def test_each_direct_column_is_its_per_cell_sum(H):
    assert_per_cell_sums(casework.direct_columns, H)


def reference_hyper_columns(H, delta):
    """The column sweep by one count_box or count_under_curve query per
    (c, side) for the upper rows and a box and a curve for each lower
    rows, over the column's a-range (U, U+X] cut at the split
    min((c*H + delta) // H, H)."""
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
                    CurveQuery(K=delta, q=c, U=U, X=X, bound=Hyperbolic(delta + H * c)))
            for column, lower in ((G, delta - H * c - 1), (J, delta)):
                n = upper
                if lower >= 1:
                    # on the small-a side the rows min(lower // a, H) are a
                    # box of H rows up to a = lower // H, the curve past it
                    cut = min(lower // H, X) if small_a else 0
                    n -= count_box(HyperbolaQuery(K=delta, q=c, U=U, V=0, X=cut, Y=H))
                    n -= count_under_curve(
                        CurveQuery(K=delta, q=c, U=U + cut, X=X - cut, bound=Hyperbolic(lower)))
                column.append(n)
            G[-1] -= bisect_right(b0, U + X) - bisect_right(b0, U)
    return {small_a: (tuple(G), tuple(J)) for small_a, (G, J) in columns.items()}


@st.composite
def column_points(draw):
    """(H, delta) with H <= 60 and delta from 1 to past 2H^2, often a
    multiple of H or a multiple a * e of an a <= H with e <= H, which
    puts a b = 0 point of G in a column."""
    H = draw(st.integers(1, 60))
    delta = draw(st.integers(1, 2 * H * H + 2 * H)
                 | st.integers(1, 2 * H + 1).map(lambda k: k * H)
                 | st.tuples(st.integers(1, H), st.integers(1, H)).map(lambda ae: ae[0] * ae[1]))
    return H, delta


@given(column_points())
@example((60, 2 * 60 * 60)).via("delta = 2H^2 at the largest H")
@example((60, 2 * 60 * 60 + 1)).via("delta = 2H^2 + 1, past every cell")
@example((60, 60 * 60)).via("delta = H^2, a multiple of H and of a = H with delta/a = H")
@example((1, 1)).via("one cell")
@settings(max_examples=60, deadline=None)
def test_hyper_columns_equal_the_per_query_sweep(point):
    H, delta = point
    assert casework.hyper_columns(H, delta) == reference_hyper_columns(H, delta)


def test_blocks_do_not_change_the_hyperbola_record(monkeypatch):
    points = [(13, 200), (30, 77), (40, 60), (7, 2**70)]
    expected = [casework.hyper_columns(H, delta) for H, delta in points]
    for block in (1, 7, 50):  # below one row, a few rows, rows that cross a region
        monkeypatch.setattr(casework, "CELL_BLOCK", block)
        assert expected == [casework.hyper_columns(H, delta) for H, delta in points]


# Region sums at H = 10, frozen from the direct double loop.
FROZEN_H10 = {
    3: ({"SS": 0, "SL": 66, "LS": 0, "LL": 65}, {"SMALL_A": 63, "LARGE_A": 64}),
    25: ({"SS": 16, "SL": 77, "LS": 32, "LL": 21}, {"SMALL_A": 31, "LARGE_A": 29}),
}


def test_hyperbola_route_reads_no_direct_count(monkeypatch):
    # each route computes only itself; the caller compares them
    def direct(*args):
        raise AssertionError("direct counter called")

    for name in ("_direct_cells", "_inverse"):
        monkeypatch.setattr(casework, name, direct)
    for delta, (g, j) in FROZEN_H10.items():
        assert {r.name: region_sum_G_via_hyperbola(10, delta, r) for r in RegionG} == g
        assert {r.name: region_sum_J_via_hyperbola(10, delta, r) for r in RegionJ} == j


def test_direct_route_reads_no_hyperbola_count(monkeypatch):
    def hyperbola(*args):
        raise AssertionError("hyperbola counter called")

    for name in ("period_table", "stride_count"):
        monkeypatch.setattr(casework.hyperbola, name, hyperbola)
    for delta, (g, j) in FROZEN_H10.items():
        assert {r.name: region_sum_G(10, delta, r) for r in RegionG} == g
        assert {r.name: region_sum_J(10, delta, r) for r in RegionJ} == j


def test_a_casework_sweep_builds_each_table_at_most_once(table_builds):
    """At H = 120 every cell of a column c reads the one period table of
    (c, delta), built once for the upper and both lower rows of G and of
    J on both sides.  The six region sums read one record, as the
    casework command hands it to them."""
    H, delta = 120, 903
    columns = casework.hyper_columns(H, delta)
    G = [region_sum_G_via_hyperbola(H, delta, r, columns=columns) for r in RegionG]
    J = [region_sum_J_via_hyperbola(H, delta, r, columns=columns) for r in RegionJ]
    assert (sum(G), sum(J)) == (30270, 19198)  # the sign-class totals
    keys = [key for key, _ in table_builds]
    assert keys == [(0, c, c, delta % c) for c in range(1, H + 1)]
