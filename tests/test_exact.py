"""Ground-truth matrix counting: naive vs. fast agreement, frozen small
values, sign classes and the decomposition identities."""

import math
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from matcount import errors, exact
from matcount.asymptotics import report
from matcount.errors import BudgetError
from matcount.exact import (
    ALL_SIGN_CLASSES,
    SignClass,
    _det_histogram_2x2,
    decompose,
    delta_pass,
    fast_count,
    naive_count,
    sign_class_count,
    zero_entry_count,
)
from matcount.rng import SplitMix64
from matcount.tau_tables import TauWindows, build_tau_table


def enumerate_count(H, delta):
    r = range(-H, H + 1)
    return sum(
        1
        for a in r
        for b in r
        for c in r
        for d in r
        if a * d - b * c == delta
    )


# Brute-force-confirmed values (each re-derivable with enumerate_count):
# the full 81- and 625-matrix boxes.
FROZEN = {(1, 1): 20, (1, 0): 33, (2, 0): 129, (2, 1): 52}


@pytest.mark.parametrize("key,value", sorted(FROZEN.items()))
def test_frozen_small_values(key, value):
    H, delta = key
    assert enumerate_count(H, delta) == value
    assert naive_count(H, delta) == value
    assert fast_count(H, delta) == value


def test_naive_matches_pure_python_enumeration():
    for H in (1, 2, 3):
        for delta in range(-2 * H * H - 1, 2 * H * H + 2):
            assert naive_count(H, delta) == enumerate_count(H, delta)


def test_cached_histogram_is_read_only():
    hist = _det_histogram_2x2(2)
    with pytest.raises(ValueError):
        hist[2 * 2 * 2 + 1] = 0
    assert naive_count(2, 1) == FROZEN[(2, 1)]


def test_naive_rejects():
    with pytest.raises(ValueError):
        naive_count(0, 1)
    # one a's (2H+1)^3 determinants, the bins and the products of H = 127
    # fit errors.BYTE_BUDGET, H = 128's do not
    with pytest.raises(BudgetError, match=r"^naive_count\(H=128\) needs 137375784 bytes, "
                       rf"budget is {errors.BYTE_BUDGET}$"):
        naive_count(128, 1)


def test_fast_equals_naive_exhaustive():
    # from either source of tau_H: the whole table or its windows
    for H in range(1, 9):
        for table in (build_tau_table(H), TauWindows(H)):
            for delta in range(-2 * H * H, 2 * H * H + 1):
                want = naive_count(H, delta)
                assert fast_count(H, delta, table=table) == want, (H, delta, table)


def test_every_reader_takes_either_source():
    H = 40
    table, windows = build_tau_table(H), TauWindows(H)
    for delta in (0, 7, -7, 1601):
        assert fast_count(H, delta, table=windows) == fast_count(H, delta, table=table)
        assert report(H, delta, table=windows) == report(H, delta, table=table)
        assert zero_entry_count(H, delta, table=windows) == zero_entry_count(
            H, delta, table=table
        )
    for delta in (0, 5, -12):
        rep = decompose(8, delta, table=TauWindows(8))
        assert rep.assembly_ok and rep.total == naive_count(8, delta), delta


def test_fast_equals_naive_random_larger():
    rng = SplitMix64(0x5EED)
    for H in (12, 16, 20):
        table = build_tau_table(H)
        for _ in range(200):
            delta = rng.randint(-2 * H * H, 2 * H * H)
            assert fast_count(H, delta, table=table) == naive_count(H, delta)


@given(st.integers(1, 6), st.integers(-80, 80))
@settings(max_examples=80, deadline=None)
def test_fast_symmetry_and_support(H, delta):
    assert fast_count(H, delta) == fast_count(H, -delta)
    if abs(delta) > 2 * H * H:
        assert fast_count(H, delta) == 0


def test_fast_rejects_mismatched_table():
    with pytest.raises(ValueError):
        fast_count(3, 1, table=build_tau_table(4))
    with pytest.raises(ValueError, match="N=4"):
        fast_count(3, 1, table=TauWindows(4))
    # checked before the |delta| > 2H^2 shortcut returns 0
    for delta in (19, -19):
        with pytest.raises(ValueError, match="N=4"):
            fast_count(3, delta, table=TauWindows(4))


def test_fast_rejects_a_pass_that_misses_delta():
    sums = delta_pass(5, [1])
    for reader in (fast_count, report):
        with pytest.raises(ValueError, match=r"^delta pass for N=5 does not cover \|delta\|=3$"):
            reader(5, 3, table=sums)
        with pytest.raises(ValueError, match=r"\|delta\|=3$"):
            reader(5, -3, table=sums)
    # a pass covers the deltas it was given, of either sign
    assert fast_count(5, -1, table=sums) == fast_count(5, 1) == naive_count(5, 1)


def naive_sign_class(H, delta, sc):
    total = 0
    for a in range(-H, H + 1):
        for b in range(-H, H + 1):
            for c in range(-H, H + 1):
                for d in range(-H, H + 1):
                    if a * d - b * c != delta:
                        continue
                    if 0 in (a, b, c, d):
                        continue
                    if (a > 0) == (sc.alpha > 0) and (c > 0) == (sc.gamma > 0) \
                            and (d > 0) == (sc.delta_prime > 0):
                        total += 1
    return total


def test_sign_class_small_values(monkeypatch):
    assert sign_class_count(1, 1, SignClass(1, 1, 1)) == 0
    assert sign_class_count(2, 4, SignClass(1, 1, 1)) == 4
    for H in (1, 2, 3, 4):
        edge = 2 * H * H  # largest |ad - bc|
        for delta in (0, 1, -1, 7, -7, -2, 5, edge, -edge, edge + 1, -edge - 1):
            for sc in ALL_SIGN_CLASSES:
                expect = naive_sign_class(H, delta, sc)
                assert sign_class_count(H, delta, sc) == expect
                with monkeypatch.context() as m:
                    # a budget of exactly the histogram's plan admits it
                    m.setattr(errors, "BYTE_BUDGET", 16 * H * H + 8 * H + 8)
                    assert sign_class_count(H, delta, sc) == expect
                    m.setattr(errors, "BYTE_BUDGET", 16 * H * H + 8 * H + 7)
                    with pytest.raises(BudgetError, match=rf"^sign_class_count\(H={H}\) needs"):
                        sign_class_count(H, delta, sc)


def divmod_sign_class(H, delta, sc):
    """The sign class by integer division: b = k / (gamma c) with
    k = a d - delta, checked with divmod."""
    total = 0
    for a in range(1, H + 1):
        for d in range(1, H + 1):
            k = sc.alpha * a * sc.delta_prime * d - delta
            if k == 0:
                continue
            for c in range(1, H + 1):
                b, r = divmod(k, sc.gamma * c)
                total += r == 0 and -H <= b <= H
    return total


@given(
    st.integers(1, 30).flatmap(
        lambda H: st.tuples(st.just(H), st.integers(-2 * H * H, 2 * H * H))),
    st.sampled_from(ALL_SIGN_CLASSES),
)
@example((30, 2 * 30 * 30), SignClass(1, 1, 1)).via("delta = 2H^2 at the largest H")
@example((30, -2 * 30 * 30), SignClass(1, -1, -1)).via("delta = -2H^2")
@example((30, 0), SignClass(-1, 1, 1)).via("delta = 0, where k = 0 is b = 0")
@settings(max_examples=120, deadline=None)
def test_sign_class_histogram_matches_divmod(point, sc):
    H, delta = point
    assert sign_class_count(H, delta, sc) == divmod_sign_class(H, delta, sc)


def test_sign_class_refuses_past_its_byte_budget():
    # the products, bins and entries of H = 2896 fit errors.BYTE_BUDGET,
    # H = 2897's do not, and a refusal allocates nothing first, however
    # large H is
    def plan(H):
        return 16 * H * H + 8 * H + 8

    assert plan(2896) <= errors.BYTE_BUDGET < plan(2897)
    tracemalloc.start()
    try:
        for H, delta in ((2897, 5), (10**9, 0), (10**9, 2 * 10**18 + 1)):
            with pytest.raises(BudgetError, match=(
                rf"^sign_class_count\(H={H}\) needs {plan(H)} bytes, "
                rf"budget is {errors.BYTE_BUDGET}$"
            )):
                sign_class_count(H, delta, SignClass(1, 1, 1))
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_sign_class_rejects_bad_signs():
    with pytest.raises(ValueError):
        SignClass(0, 1, 1)
    with pytest.raises(ValueError):
        SignClass(1, 1, 1)._replace(gamma=0)


def naive_zero_entry(H, delta):
    r = range(-H, H + 1)
    return sum(
        1
        for a in r
        for b in r
        for c in r
        for d in r
        if a * d - b * c == delta and 0 in (a, b, c, d)
    )


def test_zero_entry_small():
    assert zero_entry_count(1, 0) == 25
    for H in (1, 2, 3):
        for delta in (0, 1, 2, -3):
            assert zero_entry_count(H, delta) == naive_zero_entry(H, delta)


def test_zero_entry_scaling_delta0():
    # at least one zero entry with det 0 happens O(H^2) often
    ratios = [zero_entry_count(H, 0) / H**2 for H in (10, 20, 40)]
    assert max(ratios) < 30


def test_decompose_identities():
    for H in (1, 5, 10, 30):
        for delta in (-5, -1, 0, 1, 3, 5, 12, 100):
            rep = decompose(H, delta)
            assert rep.assembly_ok, (H, delta, rep.failures)
            c111 = rep.per_class[(1, 1, 1)]
            c11m1 = rep.per_class[(1, 1, -1)]
            assert rep.total == 4 * (c111 + c11m1) + rep.zero_entry
            assert rep.total == fast_count(H, delta)


def test_decompose_sign_flip_totals_match():
    for H in (4, 9):
        for delta in (1, 7, 13):
            assert decompose(H, delta).total == decompose(H, -delta).total


def test_zero_entry_consistent_with_product_counter():
    table = build_tau_table(6)
    for delta in (0, 1, 4, 36):
        assert zero_entry_count(6, delta, table=table) == naive_zero_entry(6, delta)
    with pytest.raises(ValueError):
        zero_entry_count(5, 1, table=table)
