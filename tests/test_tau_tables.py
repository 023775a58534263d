"""Restricted divisor function: sieve vs. enumeration, moments, shifted
sums, the signed product counter, and the table's memory contract."""

import os
import subprocess
import sys
import tracemalloc
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matcount import tau_tables
from matcount.arith import divisors, sieve, tau
from matcount.errors import BudgetError
from matcount.exact import delta_pass, fast_count, naive_count
from matcount.tau_tables import (
    TauWindows,
    build_tau_table,
    c2,
    self_convolution,
    shifted_sum,
    shifted_sums,
    square_sum,
    tau_moment,
)


def tau_by_pairs(N, n):
    return sum(1 for a in range(1, N + 1) for b in range(1, N + 1) if a * b == n)


def tau_by_window(N, n):
    # divisor-window form: d | n with n/N <= d <= N
    return sum(1 for d in divisors(n) if d <= N and n <= d * N)


def test_small_tables():
    assert list(build_tau_table(2).counts[1:]) == [1, 2, 0, 1]
    assert list(build_tau_table(1).counts[1:]) == [1]
    assert build_tau_table(5).counts[4] == 3


@given(st.integers(1, 30))
@settings(max_examples=30, deadline=None)
def test_table_matches_enumeration(N):
    t = build_tau_table(N)
    assert int(t.counts[1:].sum()) == N * N
    for n in range(1, N * N + 1):
        assert int(t.counts[n]) == tau_by_window(N, n)
        assert int(t.counts[n]) <= tau(n)


def test_pair_vs_window_forms():
    for N in (1, 2, 3, 7, 12):
        for n in range(1, N * N + 1):
            assert tau_by_pairs(N, n) == tau_by_window(N, n)


def test_monotone_in_N():
    a, b = build_tau_table(6), build_tau_table(9)
    for n in range(1, 37):
        assert a.counts[n] <= b.counts[n]


def test_moments():
    assert tau_moment(build_tau_table(10), 1) == 100
    assert tau_moment(build_tau_table(2), 2) == 6
    with pytest.raises(ValueError):
        tau_moment(build_tau_table(2), 0)


def test_reductions_match_enumeration():
    for N in (7, 50, 130):
        t = build_tau_table(N)
        limit = N * N
        ref = [0] + [tau_by_window(N, n) for n in range(1, limit + 1)]
        for k in (1, 2, 3, 5):
            assert tau_moment(t, k) == sum(v**k for v in ref)
        for delta in (0, 1, 2, 17, limit - 1):
            want = sum(ref[n] * ref[n + delta] for n in range(1, limit - delta + 1))
            assert shifted_sum(t, delta) == want
        assert shifted_sum(t, 0) == tau_moment(t, 2)
        padded = ref + [0] * (limit + 2)  # tau_N vanishes above N^2
        for D in (1, 2, 17, limit, limit + 1, 2 * limit, 2 * limit + 1):
            want = sum(padded[m] * padded[D - m] for m in range(1, D))
            assert self_convolution(t, D) == want, (N, D)


def square_sum_by_totients(N):
    """sum_{m <= N} (2 phi(m) - [m = 1]) floor(N/m)^2 term by term in
    Python ints: the O(N) form of the totient identity."""
    phi = sieve(N).tolist()
    return sum(2 * phi[m] * (N // m) ** 2 for m in range(1, N + 1)) - N * N


def test_square_sum_equals_the_table_routes():
    for N in range(1, 301):
        t = build_tau_table(N)
        assert square_sum(N) == shifted_sum(t, 0) == tau_moment(t, 2), N


@given(st.integers(1, 3000))
@settings(max_examples=15, deadline=None)
def test_square_sum_equals_the_table_routes_sampled(N):
    t = build_tau_table(N)
    assert square_sum(N) == shifted_sum(t, 0) == tau_moment(t, 2)


@pytest.mark.parametrize("N", [1, 2, 3, 10, 100, 1234, 46340, 10**6])
def test_square_sum_equals_the_totient_formula(N):
    assert square_sum(N) == square_sum_by_totients(N)


@given(st.integers(1, 2 * 10**5))
@settings(max_examples=10, deadline=None)
def test_square_sum_equals_the_totient_formula_sampled(N):
    assert square_sum(N) == square_sum_by_totients(N)


def test_both_square_sum_routes_equal_the_totient_formula(monkeypatch):
    want = [square_sum_by_totients(N) for N in range(1, 3001)]
    # a limit of 0 sends every N to numpy, one past every L to the lists
    for limit in (0, 1 << 30):
        monkeypatch.setattr(tau_tables, "_LIST_SIEVE_LIMIT", limit)
        assert [square_sum(N) for N in range(1, 3001)] == want, limit


def test_square_sum_routes_meet_at_the_list_limit(monkeypatch):
    limit = tau_tables._LIST_SIEVE_LIMIT
    # the largest N whose phi sieve ends at limit; L grows by 0 or 1 per N
    lo, hi = 1, 8 * limit**2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if tau_tables._square_sum_plan(mid)[0] <= limit else (lo, mid - 1)
    edge = lo
    assert tau_tables._square_sum_plan(edge)[0] == limit
    assert tau_tables._square_sum_plan(edge + 1)[0] == limit + 1
    sieved = []
    monkeypatch.setattr(tau_tables, "sieve", lambda L: sieved.append(L) or sieve(L))
    assert square_sum(edge) == square_sum_by_totients(edge)
    assert sieved == []  # the list route
    assert square_sum(edge + 1) == square_sum_by_totients(edge + 1)
    assert sieved == [limit + 1]  # the numpy route


def test_square_sum_domain():
    with pytest.raises(ValueError, match="N >= 1"):
        square_sum(0)
    # no table is read, so the tables' N^2 < 2^31 does not apply
    assert square_sum(46341) == square_sum_by_totients(46341)


# The largest N whose phi sieve and Phi memo fit SQUARE_SUM_BUDGET; the
# README and the CI job quote it.
LARGEST_SQUARE_SUM_N = 62_389_816_424


def test_square_sum_budget(monkeypatch):
    budget = tau_tables.SQUARE_SUM_BUDGET
    assert tau_tables._square_sum_plan(LARGEST_SQUARE_SUM_N)[2] <= budget
    assert tau_tables._square_sum_plan(LARGEST_SQUARE_SUM_N + 1)[2] > budget
    # below it every int64 sum of Phi values is under N^(5/3) < 2^63
    assert LARGEST_SQUARE_SUM_N ** 5 < 2 ** (3 * 63)
    # the largest N reaches the sieve; one more is refused before it, with
    # one line that names N
    class Sieved(Exception):
        pass

    def sieve_stub(limit):
        raise Sieved

    monkeypatch.setattr(tau_tables, "sieve", sieve_stub)
    with pytest.raises(Sieved):
        square_sum(LARGEST_SQUARE_SUM_N)
    for N in (LARGEST_SQUARE_SUM_N + 1, 10**30, 10**400):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match=f"^square_sum\\(N={N}\\) needs \\d+ bytes, "
                               f"budget is {budget}$"):
                square_sum(N)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
    # the function reads the module constant when it runs
    monkeypatch.setattr(tau_tables, "SQUARE_SUM_BUDGET", 1000)
    with pytest.raises(BudgetError):
        square_sum(10**6)


def test_integer_cube_root():
    for n in [*range(1, 2000), 10**18 - 1, 10**18, 10**18 + 1, 2**189 - 1, 2**189]:
        r = tau_tables._icbrt(n)
        assert r**3 <= n < (r + 1) ** 3, n
    assert tau_tables._icbrt(10**600) == 10**200


def test_fast_count_at_zero_builds_no_table(monkeypatch):
    monkeypatch.setattr(tau_tables, "_sieve", None)
    for H in range(1, 13):
        assert fast_count(H, 0) == naive_count(H, 0), H


def test_fast_count_at_zero_still_checks_a_given_table():
    with pytest.raises(ValueError, match="N=4"):
        fast_count(3, 0, table=build_tau_table(4))
    with pytest.raises(ValueError, match="N=4"):
        fast_count(3, 0, table=TauWindows(4))


def tau_by_factorization(N, lo, hi):
    """tau_N(n) for lo < n <= hi, one cell at a time in pure Python: the
    divisors d of n with n/N <= d <= N, listed from n's factorization.
    The primes up to sqrt(hi) are marked at their multiples in the
    window, so no cell is factored by trial division."""
    top = isqrt(hi)
    composite = bytearray(top + 1)
    factors = [[] for _ in range(hi - lo)]
    for p in range(2, top + 1):
        if composite[p]:
            continue
        composite[p * p :: p] = b"\x01" * len(range(p * p, top + 1, p))
        for m in range(lo + p - lo % p, hi + 1, p):
            factors[m - lo - 1].append(p)
    out = []
    for n, primes in zip(range(lo + 1, hi + 1), factors):
        divs, rest = [1], n
        for p in primes:
            power, more = 1, []
            while rest % p == 0:
                rest //= p
                power *= p
                more += [d * power for d in divs]
            divs += more
        if rest > 1:  # one prime factor above sqrt(hi)
            divs += [d * rest for d in divs]
        out.append(sum(1 for d in divs if d <= N and n <= d * N))
    return out


def test_window_kernel_at_the_largest_N():
    # the largest N the uint16 cells admit, N^2 < 2^31 <= (N + 1)^2: the
    # top window holds the largest products, the middle one about 0.2 N rows
    N, cells = 46340, 4096
    for hi in (N * N, N * N // 2):
        window = TauWindows(N).cells(hi - cells, hi)
        assert window.tolist() == tau_by_factorization(N, hi - cells, hi), hi


def test_uint16_cells_and_overflow_guard(monkeypatch):
    t = build_tau_table(40)
    assert t.counts.dtype == np.uint16
    assert not t.counts.flags.writeable
    # 46341^2 >= 2^31: refused before the 4 GB table is allocated, even
    # under a cell budget that admits it, and before any window
    monkeypatch.setattr(tau_tables, "CELL_BUDGET", 1 << 40)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="2\\^31"):
            build_tau_table(46341)
        with pytest.raises(ValueError, match="2\\^31"):
            TauWindows(46341)
        with pytest.raises(ValueError, match="2\\^31"):
            TauWindows(5)._replace(N=46341)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_reductions_allocate_less_than_the_table():
    t = build_tau_table(1000)
    calls = [
        lambda: fast_count(1000, 0, table=t),
        lambda: fast_count(1000, 7, table=t),
        lambda: fast_count(1000, -1_500_000, table=t),
        lambda: shifted_sum(t, 3),
        lambda: self_convolution(t, 1_500_000),
        lambda: tau_moment(t, 2),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < t.counts.nbytes


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_window_is_a_slice_of_the_whole_table(data):
    N = data.draw(st.integers(1, 300))
    lo = data.draw(st.integers(0, N * N - 1))
    hi = data.draw(st.integers(lo + 1, N * N))
    window = TauWindows(N).cells(lo, hi)
    assert np.array_equal(window, build_tau_table(N).counts[lo + 1 : hi + 1])
    assert not window.flags.writeable


@pytest.mark.parametrize("cells", [1, 7, 64])
def test_windowed_moments_equal_the_whole_table(cells, monkeypatch):
    monkeypatch.setattr(tau_tables, "_WINDOW_CELLS", cells)
    for N in (1, 2, 3, 4, 7, 12, 25, 39, 40):
        t, windows = build_tau_table(N), TauWindows(N)
        for k in range(1, 5):
            assert tau_moment(windows, k) == tau_moment(t, k), (cells, N, k)


@pytest.mark.parametrize("cells", [1, 7, 64])
def test_windowed_fast_count_equals_naive(cells, monkeypatch):
    monkeypatch.setattr(tau_tables, "_WINDOW_CELLS", cells)
    for H in range(1, 9):
        for delta in range(-2 * H * H - 1, 2 * H * H + 2):
            assert fast_count(H, delta) == naive_count(H, delta), (cells, H, delta)


def test_windowed_fast_count_equals_whole_table(monkeypatch):
    H, window = 300, 1 << 10
    monkeypatch.setattr(tau_tables, "_WINDOW_CELLS", window)
    t = build_tau_table(H)
    limit = H * H
    # D = 0, 1, inside one window, past it, past H^2 and the support edge
    for D in (0, 1, 17, window - 1, window, window + 1, 5 * window + 3,
              limit - 1, limit, limit + 1, limit + 4321, 2 * limit - 1, 2 * limit):
        for delta in (D, -D):
            assert fast_count(H, delta) == fast_count(H, delta, table=t), delta


@pytest.mark.parametrize("source", [build_tau_table, TauWindows])
def test_delta_sums_equal_the_reductions_one_by_one(source, monkeypatch):
    N, window = 20, 64
    monkeypatch.setattr(tau_tables, "_WINDOW_CELLS", window)
    t = build_tau_table(N)
    # inside one window, its edge, past it, H^2 and the support edge 2H^2
    Ds = [1, window - 1, window, window + 1, N * N, 2 * N * N]
    assert delta_pass(N, Ds, source(N)).terms == {
        D: (c2(t, D), shifted_sum(t, D), self_convolution(t, D)) for D in Ds
    }


def test_forked_passes_equal_the_serial_pass(monkeypatch):
    window = 64
    monkeypatch.setattr(tau_tables, "_WINDOW_CELLS", window)

    def sums(cpus, N, Ds):
        monkeypatch.setattr(tau_tables, "cpu_count", lambda: cpus)
        table = TauWindows(N)
        return (shifted_sums(table, Ds), delta_pass(N, Ds, table).terms,
                [tau_moment(table, k) for k in (1, 3)])

    for N in range(20, 41):
        Ds = [1, window - 1, window, window + 1, N * N, 2 * N * N]
        want = sums(1, N, Ds)
        for cpus in (2, 3, 4):
            assert sums(cpus, N, Ds) == want, (N, cpus)


# A count whose pass forks one worker, recording at each fork whether
# numpy, which builds numpy.linalg as it loads, is loaded in the parent.
_NUMPY_AT_FORK = """
import os, sys
from matcount import cli, tau_tables
fork, loaded = os.fork, []
def watched_fork():
    loaded.append("numpy.linalg" in sys.modules)
    return fork()
os.fork = watched_fork
tau_tables.cpu_count = lambda: 2
before = "numpy.linalg" in sys.modules
code = cli.main(["count", "--H", "3000", "--delta", "7"])
print(code, before, loaded)
"""


def test_a_pass_loads_numpy_before_it_forks():
    # each child would otherwise import numpy itself
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_AT_FORK], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(tau_tables.__file__).parent.parent)),
    )
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == "0 False [True]"


@pytest.mark.parametrize("top, step", [(1, 64), (64, 64), (65, 64), (1600, 64), (3200, 64)])
def test_deal_hands_each_window_start_to_one_worker(top, step):
    starts = range(0, top, step)
    for workers in range(1, len(starts) + 1):
        shares = tau_tables._deal(starts, workers)
        assert len(shares) == workers and all(shares)
        assert sorted(lo for share in shares for lo in share) == list(starts)


def test_deal_snakes_over_two_workers():
    assert tau_tables._deal(range(8), 2) == [[0, 3, 4, 7], [1, 2, 5, 6]]
    # N = 8000's 31 windows
    first = [0, 3, 4, 7, 8, 11, 12, 15, 16, 19, 20, 23, 24, 27, 28]
    second = [1, 2, 5, 6, 9, 10, 13, 14, 17, 18, 21, 22, 25, 26, 29, 30]
    assert tau_tables._deal(range(0, 31 * 64, 64), 2) == [
        [64 * i for i in first], [64 * i for i in second]
    ]
    assert tau_tables._deal(range(7), 3) == [[0, 5, 6], [1, 4], [2, 3]]


@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=64))
@settings(max_examples=200, deadline=None)
def test_snake_deal_never_loads_a_worker_more_than_round_robin(costs):
    # windows get lighter as a pass goes on: non-increasing costs
    costs = sorted(costs, reverse=True)
    starts = range(len(costs))
    snake = max(sum(costs[i] for i in share) for share in tau_tables._deal(starts, 2))
    round_robin = max(sum(costs[0::2]), sum(costs[1::2]))
    assert snake <= round_robin


def python_dot(x, y, n):
    return sum(a * b for a, b in zip(x.tolist()[:n], y.tolist()[:n]))


def test_dots_are_exact_at_the_block_edges():
    block = tau_tables._DOT_BLOCK
    rng = np.random.default_rng(5)
    # half the cells 65535, the largest a uint16 cell holds, half random
    size = 4 * block + 3 * block // 2 + 7
    x = np.where(rng.integers(0, 2, size) == 1, 65535, rng.integers(0, 65536, size))
    x = x.astype(np.uint16)
    other = x[::-1][: 3 * block + 5]  # a reversed view
    for n in (0, 1, block - 1, block, block + 1, 2 * block, 3 * block + 5):
        lags = [0, 1, block - 1, block, block + 1, 2 * block + 3]
        pairs = [(lag, n) for lag in lags] + [(other, n), (x[block - 1 :], n)]
        want = [python_dot(x, x[lag:], n) for lag in lags]
        want += [python_dot(x, other, n), python_dot(x, x[block - 1 :], n)]
        assert tau_tables._dots(x, pairs) == want, n
        # each pair alone, and a pair with no cells
        assert [tau_tables._dots(x, [pair])[0] for pair in pairs] == want, n
    assert tau_tables._dots(x, [(3, -5), (x, 0)]) == [0, 0]
    assert tau_tables._dots(x, []) == []


def test_dots_add_block_sums_past_float64_precision():
    # 2^22 + 3 cells of 65535 sum to about 2^54, an odd integer that no
    # float64 holds: only exact block sums added as ints give it
    n = (1 << 22) + 3
    x = np.full(n + 1, 65535, dtype=np.uint16)
    assert tau_tables._dots(x, [(1, n), (x[::-1], n)]) == [n * 65535**2] * 2


def test_dot_scratch_holds_at_most_two_blocks():
    block = tau_tables._DOT_BLOCK
    x = np.ones(16 * block, dtype=np.uint16)
    n = 8 * block
    # the lags up to a block share one cast; a longer lag or a view casts
    # its own block, so the scratch does not grow with the lag
    for pairs in ([(1, n), (block, n)], [(1, n), (block + 1, n), (7 * block, n)],
                  [(x[::-1], n), (3, n)]):
        tracemalloc.start()
        try:
            assert tau_tables._dots(x, pairs) == [n] * len(pairs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * block * 8 + 4096, (pairs, peak)


def count_by_convolution(t, delta):
    """#D_2(H, delta) as sum_m c2(m) c2(m - delta) in Python ints, c2 read
    from the table's cells by the product-count law."""
    H = t.N
    ref = t.counts.tolist()

    def c(m):
        return 4 * H + 1 if m == 0 else 2 * ref[abs(m)] if abs(m) <= H * H else 0

    return sum(c(m) * c(m - delta) for m in range(-H * H, H * H + 1))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_small_windows_and_blocks_equal_python_sums(data):
    # windows and dot blocks of a few cells, so that the deltas straddle
    # both edges in every window
    window = data.draw(st.integers(2, 40), label="window")
    block = data.draw(st.integers(1, window), label="block")
    N = data.draw(st.integers(1, 30), label="N")
    limit = N * N
    edges = [block - 1, block, block + 1, window - 1, window, window + 1, limit]
    Ds = data.draw(st.lists(st.sampled_from(edges) | st.integers(0, 2 * limit + 1),
                            min_size=1, max_size=5), label="Ds")
    t = build_tau_table(N)
    ref = t.counts.tolist() + [0] * max(Ds)  # tau_N vanishes above N^2
    want = {D: sum(ref[n] * ref[n + D] for n in range(1, limit + 1)) for D in Ds}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tau_tables, "_WINDOW_CELLS", window)
        patch.setattr(tau_tables, "_DOT_BLOCK", block)
        for source in (t, TauWindows(N)):
            assert shifted_sums(source, Ds) == want
            for D in Ds:
                mirror = sum(ref[m] * ref[D - m] for m in range(1, D))
                assert self_convolution(source, D) == mirror, D
                for delta in (D, -D):
                    assert fast_count(N, delta, table=source) == count_by_convolution(t, delta)
        for D in Ds:
            assert fast_count(N, D) == count_by_convolution(t, D)


def test_windowed_fast_count_memory_is_bounded(monkeypatch):
    window = 1 << 14
    monkeypatch.setattr(tau_tables, "_WINDOW_CELLS", window)
    # the dot's block scales with the window, as 2^15 does with 2^21 cells
    monkeypatch.setattr(tau_tables, "_DOT_BLOCK", min(1 << 15, window // 4))
    # 4 windows' bytes (a window and its shift or mirror take 2 at 2 bytes
    # a cell), plus the dot's float64 scratch of at most two blocks, 16
    # bytes a block cell, which fits in 2 * np.getbufsize() * 8 bytes
    bound = 4 * window * 2 + 2 * np.getbufsize() * 8
    whole = build_tau_table(1000).counts.nbytes
    assert bound < whole // 4
    for delta in (0, 7, -1_500_000, 1_999_999):
        tracemalloc.start()
        try:
            fast_count(1000, delta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (delta, peak)


def test_shifted_small():
    assert shifted_sum(build_tau_table(1), 1) == 0
    t2 = build_tau_table(2)
    assert shifted_sum(t2, 1) == 2
    assert shifted_sum(t2, 2) == 2
    with pytest.raises(ValueError, match="delta >= 0"):
        shifted_sum(t2, -1)


def naive_c2(H, m):
    return sum(
        1
        for x in range(-H, H + 1)
        for y in range(-H, H + 1)
        if x * y == m
    )


@pytest.mark.parametrize("H", range(1, 13))
def test_product_count_law_pinned_by_brute_force(H):
    # the signed counter satisfies c2(0) = 4H+1 and c2(m) = 2 tau_H(|m|)
    table = build_tau_table(H)
    for m in range(-H * H - 2, H * H + 3):
        assert c2(table, m) == naive_c2(H, m), (H, m)


def test_product_count_examples():
    t1, t2 = build_tau_table(1), build_tau_table(2)
    assert c2(t1, 0) == 5 and c2(t1, 1) == c2(t1, -1) == 2
    assert c2(t2, 0) == 9
    # xy = 4 in the H = 2 box: only (2,2) and (-2,-2)
    assert c2(t2, 4) == naive_c2(2, 4) == 2


def test_budget(monkeypatch):
    monkeypatch.setattr(tau_tables, "CELL_BUDGET", 10)
    with pytest.raises(BudgetError):
        build_tau_table(1000)
    # the budget counts the N^2 + 1 cells of the table
    assert build_tau_table(3).counts.size == 10
    with pytest.raises(BudgetError):
        build_tau_table(4)
