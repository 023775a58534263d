"""Region partitions, golden fixtures, both routes against per-cell
enumeration, and exact agreement between the direct and hyperbola-based
region sums."""

import random

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
from matcount.exact import SignClass, sign_class_count
from matcount.tau_tables import build_tau_table, shifted_sum


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

    monkeypatch.setattr(casework, "_cells", visited)
    monkeypatch.setattr(casework, "_hyper_columns", visited)
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


@pytest.mark.parametrize("H", range(1, 13))
def test_each_hyperbola_column_is_its_per_cell_sum(H):
    # each (c, side) column, G's b = 0 pairs already taken out, is the sum
    # of the per-cell counts over the a on that side of a*H <= c*H + delta
    casework._hyper_columns.cache_clear()
    for delta in _sample_deltas(H):
        columns = casework._hyper_columns(H, delta)
        for small_a, (G, J) in columns.items():
            for c in range(1, H + 1):
                side = [enumerate_cell(a, c, H, delta) for a in range(1, H + 1)
                        if (a * H <= c * H + delta) == small_a]
                assert G[c - 1] == sum(g for g, _ in side), (H, delta, c)
                assert J[c - 1] == sum(j for _, j in side), (H, delta, c)


# Region sums at H = 10, frozen from the direct double loop.
FROZEN_H10 = {
    3: ({"SS": 0, "SL": 66, "LS": 0, "LL": 65}, {"SMALL_A": 63, "LARGE_A": 64}),
    25: ({"SS": 16, "SL": 77, "LS": 32, "LL": 21}, {"SMALL_A": 31, "LARGE_A": 29}),
}


def test_hyperbola_route_reads_no_direct_count(monkeypatch):
    # each route computes only itself; the caller compares them
    def direct(*args):
        raise AssertionError("direct counter called")

    for name in ("_cells", "_congruent_total"):
        monkeypatch.setattr(casework, name, direct)
    for delta, (g, j) in FROZEN_H10.items():
        assert {r.name: region_sum_G_via_hyperbola(10, delta, r) for r in RegionG} == g
        assert {r.name: region_sum_J_via_hyperbola(10, delta, r) for r in RegionJ} == j


def test_direct_route_reads_no_hyperbola_count(monkeypatch):
    def hyperbola(*args):
        raise AssertionError("hyperbola counter called")

    for name in ("count_box", "count_under_curve"):
        monkeypatch.setattr(casework, name, hyperbola)
    for delta, (g, j) in FROZEN_H10.items():
        assert {r.name: region_sum_G(10, delta, r) for r in RegionG} == g
        assert {r.name: region_sum_J(10, delta, r) for r in RegionJ} == j


def test_a_casework_sweep_builds_each_table_at_most_once(table_builds):
    """At H = 120 each (c, side) reads one residue table, built once for
    the box or curve above and both lower curves of G and of J; a period
    table of (c, delta) serves both sides of its column."""
    H, delta = 120, 903
    casework._hyper_columns.cache_clear()
    G = [region_sum_G_via_hyperbola(H, delta, r) for r in RegionG]
    J = [region_sum_J_via_hyperbola(H, delta, r) for r in RegionJ]
    assert (sum(G), sum(J)) == (30270, 19198)  # the sign-class totals
    keys = [key for key, _ in table_builds]
    assert len(set(keys)) == len(keys) <= 2 * H
