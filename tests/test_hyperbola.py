"""Modular hyperbola point counts: hand-enumerated examples, additivity,
band subtraction, and the estimator diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from matcount import casework, hyperbola
from matcount.cli import random_hyperbola_queries
from matcount.hyperbola import (
    CurveQuery,
    Hyperbolic,
    HyperbolaQuery,
    box_report,
    count_box,
    count_under_curve,
    curve_report,
    curvature_scale,
    error_bound_box,
    error_bound_curve,
    main_term_box,
    main_term_curve,
)


def naive_box(K, q, U, V, X, Y):
    total = 0
    for u in range(math.floor(U) + 1, math.floor(U + X) + 1):
        for v in range(math.floor(V) + 1, math.floor(V + Y) + 1):
            if (u * v - K) % q == 0:
                total += 1
    return total


def test_box_hand_examples():
    assert count_box(HyperbolaQuery(K=0, q=1, U=0, V=0, X=3, Y=3)) == 9
    assert count_box(HyperbolaQuery(K=1, q=2, U=0, V=0, X=4, Y=4)) == 4
    assert count_box(HyperbolaQuery(K=2, q=4, U=0, V=0, X=4, Y=4)) == 4


def past_int64(ks):
    """K from ks, shifted by j * 10^30 with j in [-2, 2]: the tables must
    reduce K mod q before it meets an int64 array."""
    return st.builds(lambda k, j: k + j * 10**30, ks, st.integers(-2, 2))


@given(
    past_int64(st.integers(-20, 20)),
    st.integers(1, 12),
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(0, 15),
    st.integers(0, 15),
)
@settings(max_examples=150, deadline=None)
def test_box_matches_enumeration(K, q, U, V, X, Y):
    q2 = count_box(HyperbolaQuery(K=K, q=q, U=U, V=V, X=X, Y=Y))
    assert q2 == naive_box(K, q, U, V, X, Y)


def test_box_additive_in_u_and_v():
    base = HyperbolaQuery(K=5, q=7, U=0, V=0, X=20, Y=20)
    left = HyperbolaQuery(K=5, q=7, U=0, V=0, X=8, Y=20)
    right = HyperbolaQuery(K=5, q=7, U=8, V=0, X=12, Y=20)
    low = HyperbolaQuery(K=5, q=7, U=0, V=0, X=20, Y=11)
    high = HyperbolaQuery(K=5, q=7, U=0, V=11, X=20, Y=9)
    assert count_box(base) == count_box(left) + count_box(right)
    assert count_box(base) == count_box(low) + count_box(high)


def test_main_term_box_hand_examples():
    assert main_term_box(HyperbolaQuery(K=1, q=1, U=0, V=0, X=5, Y=7)) == 35
    assert main_term_box(HyperbolaQuery(K=6, q=4, U=0, V=0, X=4, Y=4)) == 4.0


def test_error_bound_box():
    got = error_bound_box(HyperbolaQuery(K=1, q=100, U=0, V=0, X=1000, Y=1), 0.0)
    assert got == pytest.approx(10 + 10 + 1)
    small = error_bound_box(HyperbolaQuery(K=1, q=9, U=0, V=0, X=10, Y=1), 0.0)
    large = error_bound_box(HyperbolaQuery(K=1, q=9, U=0, V=0, X=100, Y=1), 0.0)
    assert small < large  # monotone in X


def naive_curve(K, q, U, X, f):
    total = 0
    for u in range(math.floor(U) + 1, math.floor(U + X) + 1):
        v = 1
        while v <= f(u):
            if (u * v - K) % q == 0:
                total += 1
            v += 1
    return total


def test_curve_hand_examples():
    assert count_under_curve(
        CurveQuery(K=0, q=1, U=0, X=3, bound=Hyperbolic(3))
    ) == 5
    assert count_under_curve(
        CurveQuery(K=1, q=2, U=0, X=3, bound=Hyperbolic(3))
    ) == 3
    assert count_under_curve(
        CurveQuery(K=3, q=5, U=0, X=10, bound=Hyperbolic(0))
    ) == 0


@given(st.integers(-15, 15), st.integers(1, 9), st.integers(0, 8), st.integers(0, 40))
@settings(max_examples=120, deadline=None)
def test_curve_matches_enumeration(K, q, X, A):
    query = CurveQuery(K=K, q=q, U=0, X=X, bound=Hyperbolic(A))
    assert count_under_curve(query) == naive_curve(K, q, 0, X, lambda u: A / u)


def test_band_subtraction():
    # (f_-, f_+] band equals the difference of the two under-curve counts
    for K, q in ((3, 4), (6, 5)):
        hi = CurveQuery(K=K, q=q, U=0, X=12, bound=Hyperbolic(60))
        lo = CurveQuery(K=K, q=q, U=0, X=12, bound=Hyperbolic(25))
        band = naive_curve(K, q, 0, 12, lambda u: 60 / u) - naive_curve(
            K, q, 0, 12, lambda u: 25 / u
        )
        assert count_under_curve(hi) - count_under_curve(lo) == band


def test_main_term_curve_hand_example():
    got = main_term_curve(CurveQuery(K=1, q=1, U=0, X=3, bound=Hyperbolic(3)))
    assert got == pytest.approx(4.0)
    flat = main_term_curve(CurveQuery(K=1, q=2, U=0, X=3, bound=Hyperbolic(0)))
    assert flat == 0.0


def test_error_bound_curve_formula():
    # q^0 * (X L^(-1/3) + sqrt(D) sqrt(L) / q + sqrt(q) + D) at q=D=1
    query = CurveQuery(K=1, q=1, U=10, X=10, bound=Hyperbolic(1))
    L = curvature_scale(query)
    assert L == pytest.approx(1000.0)
    got = error_bound_curve(query, 0.0)
    assert got == pytest.approx(10 / 10 + math.sqrt(1000) + 1 + 1)


def test_curvature_scale_edges():
    assert curvature_scale(CurveQuery(K=1, q=1, U=0, X=5, bound=Hyperbolic(0))) == math.inf
    # left endpoint clamped to u >= 1
    assert curvature_scale(
        CurveQuery(K=1, q=1, U=0, X=5, bound=Hyperbolic(2))
    ) == pytest.approx(0.5)


def test_reports():
    rep = box_report(HyperbolaQuery(K=6, q=4, U=0, V=0, X=4, Y=4), 0.0)
    assert rep.exact - rep.main == rep.error
    crep = curve_report(CurveQuery(K=1, q=3, U=0, X=9, bound=Hyperbolic(20)), 0.0)
    assert crep.normalized == pytest.approx(abs(crep.error) / crep.bound)


def test_class_tables_are_read_only():
    # a range shorter than q, one period, and more than one period
    for X in (5, 12, 40):
        hyperbola._classes.cache_clear()
        tables, _ = hyperbola._table(3, X, 12, 8)
        for table in tables:
            with pytest.raises(ValueError):
                table[0] = 1


def test_every_shared_table_is_read_only(table_builds):
    for region in casework.RegionJ:
        casework.region_sum_J_via_hyperbola(20, 37, region)
    for box, curve in random_hyperbola_queries(5, 10):
        box_report(box, 0.25)
        curve_report(curve, 0.25)
    assert table_builds
    for _, tables in table_builds:
        for table in tables:
            with pytest.raises(ValueError):
                table[0] = 1


def test_a_query_pair_builds_one_table_per_period_range(table_builds):
    pairs = random_hyperbola_queries(187425552, 40)
    for box, curve in pairs:
        box_report(box, 0.25)
        curve_report(curve, 0.25)
    # box and curve share q, K and X; only a range shorter than q has a
    # table of its own U
    short = sum(box.X < box.q for box, _ in pairs)
    assert 0 < short < len(pairs)
    assert len(table_builds) == len(pairs) + short


def test_reports_that_share_a_table_are_unchanged_by_it():
    # box and curve of one (U, X, q, K): the second call of each, and the
    # other's calls in between, read the table the first one built
    box = HyperbolaQuery(K=8, q=12, U=3, V=5, X=40, Y=17)
    curve = CurveQuery(K=8, q=12, U=3, X=40, bound=Hyperbolic(300))
    fresh = []
    for report, query in ((box_report, box), (curve_report, curve)):
        hyperbola._classes.cache_clear()
        fresh.append(report(query, 0.25))
    shared = [box_report(box, 0.25), curve_report(curve, 0.25),
              box_report(box, 0.25), curve_report(curve, 0.25)]
    assert shared == fresh * 2


def test_query_validation():
    with pytest.raises(ValueError):
        HyperbolaQuery(K=1, q=0, X=1, Y=1)
    with pytest.raises(ValueError):
        HyperbolaQuery(K=1, q=2, X=-1, Y=1)
    with pytest.raises(ValueError):
        CurveQuery(K=1, q=2, U=0, X=3, bound=Hyperbolic(-1))
    # _replace builds through the same checks
    with pytest.raises(ValueError):
        HyperbolaQuery(K=1, q=5)._replace(q=0)
    with pytest.raises(ValueError):
        CurveQuery(K=1, q=2, U=0, X=3, bound=Hyperbolic(1))._replace(bound=Hyperbolic(-1))


def reference_main_box(query):
    """The per-u main term: (Y/q) * sum of gcd weights over every u."""
    s = 0
    for u in range(query.U + 1, query.U + query.X + 1):
        g = math.gcd(u, query.q)
        s += g if query.K % g == 0 else 0
    return float(query.Y) * s / query.q


def reference_main_curve(query):
    """The per-u main term under a curve, summed in u order."""
    A = query.bound.A
    s = 0.0
    for u in range(query.U + 1, query.U + query.X + 1):
        g = math.gcd(u, query.q)
        if query.K % g == 0:
            s += g * (A / u)
    correction = float(query.X) / 2 if query.K % query.q == 0 else 0.0
    return s / query.q - correction


@given(
    st.integers(1, 40).flatmap(lambda q: st.tuples(st.just(q), st.integers(0, 3 * q))),
    past_int64(st.integers(-50, 50)),
    st.integers(0, 2000),
    st.integers(0, 30),
    st.integers(0, 30),
    st.integers(0, 20),
    st.integers(0, 200),
)
@settings(max_examples=300, deadline=None)
def test_residue_tables_match_per_u(qX, K, U, V, Y, rows, extra):
    q, X = qX
    A = rows * (U + 1) + extra  # up to about 20 rows at the left endpoint, for any U
    box = HyperbolaQuery(K=K, q=q, U=U, V=V, X=X, Y=Y)
    assert count_box(box) == naive_box(K, q, U, V, X, Y)
    assert main_term_box(box) == reference_main_box(box)
    curve = CurveQuery(K=K, q=q, U=U, X=X, bound=Hyperbolic(A))
    expect = sum(
        1
        for u in range(U + 1, U + X + 1)
        for v in range(1, A // u + 1)
        if (u * v - K) % q == 0
    )
    assert count_under_curve(curve) == expect
    assert main_term_curve(curve) == reference_main_curve(curve)


def test_curve_blocks_match_per_u(monkeypatch):
    """Blocks of a few u give the same count and the same main-term bits
    as the per-u sums: the running total carries over from block to block."""
    monkeypatch.setattr(hyperbola, "U_BLOCK", 5)
    rng = np.random.default_rng(11)
    for _ in range(200):
        q, X, U = (int(v) for v in rng.integers(1, 40, 3))
        K = int(rng.integers(-50, 51))
        A = int(rng.integers(0, 30 * (U + 1)))
        curve = CurveQuery(K=K, q=q, U=U, X=X, bound=Hyperbolic(A))
        assert count_under_curve(curve) == naive_curve(K, q, U, X, lambda u: A / u)
        assert main_term_curve(curve) == reference_main_curve(curve)


LIMIT = 2**62


def test_queries_just_below_the_int64_limit():
    """q, A and U + X at 2^62 - 1 still count exactly: with A // u = 1 on
    (2^62 - 4, 2^62 - 1], only u = K (mod q) carries a point."""
    curve = CurveQuery(K=LIMIT - 2, q=LIMIT - 1, U=LIMIT - 4, X=3, bound=Hyperbolic(LIMIT - 1))
    assert count_under_curve(curve) == 1
    assert main_term_curve(curve) == pytest.approx(reference_main_curve(curve), rel=1e-12)
    box = HyperbolaQuery(K=LIMIT - 2, q=LIMIT - 1, U=LIMIT - 4, V=0, X=3, Y=1)
    assert count_box(box) == 1
    # rows near 2^62 at each of u = 1..4: a count past 2^63, exact
    steep = CurveQuery(K=0, q=1, U=0, X=4, bound=Hyperbolic(LIMIT - 1))
    assert count_under_curve(steep) == sum((LIMIT - 1) // u for u in range(1, 5)) > 2**63


@pytest.mark.parametrize("field", ["q", "A", "U + X"])
def test_queries_at_the_int64_limit_raise(field):
    q = LIMIT if field == "q" else 7
    A = LIMIT if field == "A" else 100
    U = LIMIT - 3 if field == "U + X" else 0
    with pytest.raises(ValueError, match=r"2\^62"):
        CurveQuery(K=1, q=q, U=U, X=3, bound=Hyperbolic(A))
    if field != "A":
        with pytest.raises(ValueError, match=r"2\^62"):
            HyperbolaQuery(K=1, q=q, U=U, V=0, X=3, Y=1)


def naive_box_any(K, q, U, V, X, Y):
    """The box count for any V and Y: each u's solutions v = r (mod q),
    counted in (V, V+Y] by floor division."""
    return sum(
        (V + Y - r) // q - (V - r) // q
        for u in range(U + 1, U + X + 1)
        for r in range(q)
        if (u * r - K) % q == 0
    )


def expected(query):
    """(count, main term) of a query from the per-u references."""
    if isinstance(query, HyperbolaQuery):
        args = (query.K, query.q, query.U, query.V, query.X, query.Y)
        return naive_box_any(*args), reference_main_box(query)
    A = query.bound.A
    return (naive_curve(query.K, query.q, query.U, query.X, lambda u: A // u),
            reference_main_curve(query))


def evaluate(query, what):
    if isinstance(query, HyperbolaQuery):
        return (count_box if what == "count" else main_term_box)(query)
    return (count_under_curve if what == "count" else main_term_curve)(query)


@st.composite
def shared_queries(draw):
    """Box and curve queries on one (q, K): ranges shorter than, equal to
    and longer than q, starting anywhere from 0 to past q, or ending just
    below 2^62."""
    q = draw(st.integers(1, 12))
    K = draw(st.sampled_from([0, q, -q, -7 * q]) | past_int64(st.integers(-40, 40)))
    queries = []
    for _ in range(draw(st.integers(1, 5))):
        X = draw(st.sampled_from([0, 1, max(q - 1, 0), q, q + 1, 3 * q + 2]) |
                 st.integers(0, 3 * q))
        U = draw(st.integers(0, 3 * q) | st.integers(q, 10**6) |
                 st.integers(1, 3).map(lambda j: LIMIT - X - j))
        if draw(st.booleans()):
            V = draw(past_int64(st.integers(-30, 30)))
            Y = draw(st.integers(0, 30) | st.integers(0, 10**30))
            queries.append(HyperbolaQuery(K=K, q=q, U=U, V=V, X=X, Y=Y))
        else:
            A = min(draw(st.integers(0, 20)) * (U + 1) + draw(st.integers(0, 50)), LIMIT - 1)
            queries.append(CurveQuery(K=K, q=q, U=U, X=X, bound=Hyperbolic(A)))
    return queries


def _queries(q, K, U_X_kinds):
    return [
        HyperbolaQuery(K=K, q=q, U=U, V=-3, X=X, Y=10**25 + 4) if kind == "box"
        else CurveQuery(K=K, q=q, U=U, X=X, bound=Hyperbolic(min(9 * (U + 1), LIMIT - 1)))
        for U, X, kind in U_X_kinds
    ]


@given(shared_queries().flatmap(lambda qs: st.tuples(
    st.just(qs),
    st.permutations([(j, what) for j in range(len(qs)) for what in ("count", "main")] * 2))))
@example((_queries(7, -14, [(2, 3, "box"), (2, 7, "curve"), (9, 7, "box"), (9, 20, "curve"),
                            (LIMIT - 8, 7, "box"), (LIMIT - 8, 7, "curve")]),
          [(j, what) for j in (5, 0, 4, 1, 3, 2) for what in ("main", "count")] * 2)
         ).via("X < q, X = q, X > q, U >= q and U + X near 2^62 on K = 0 (mod q), K < 0")
@example((_queries(1, 5, [(0, 4, "box"), (3, 2, "curve")]),
          [(1, "count"), (0, "count"), (1, "main"), (0, "main")])).via("q = 1")
@settings(max_examples=300, deadline=None)
def test_queries_sharing_tables_match_enumeration(case):
    """Every query equals its per-u reference whichever queries ran
    before it on the same (q, K), in any order, each one twice."""
    queries, order = case
    want = [expected(query) for query in queries]
    for j, what in order:
        got = evaluate(queries[j], what)
        count, main = want[j]
        if what == "count":
            assert got == count, queries[j]
        elif isinstance(queries[j], CurveQuery) and queries[j].bound.A >= 2**53:
            # A is rounded to float64 before A / u, the reference divides exactly
            assert got == pytest.approx(main, rel=1e-12), queries[j]
        else:
            assert got == main, queries[j]


@given(shared_queries(), st.sampled_from([0.0, 0.25]))
@settings(max_examples=150, deadline=None)
def test_a_report_is_its_count_main_term_and_bound(queries, epsilon):
    """A report reads its table once, and a curve's count and main term
    share one gather per block, yet each of its fields is bit for bit
    the separate function's, whichever query read the table before."""
    for query in queries:
        if isinstance(query, HyperbolaQuery):
            parts = (count_box(query), main_term_box(query), error_bound_box(query, epsilon))
            rep = box_report(query, epsilon)
        else:
            parts = (count_under_curve(query), main_term_curve(query),
                     error_bound_curve(query, epsilon))
            rep = curve_report(query, epsilon)
        assert (rep.exact, rep.main, rep.bound) == parts, query
