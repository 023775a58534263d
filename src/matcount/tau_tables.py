"""The restricted divisor function tau_N and its tables.

tau_N(n) counts ordered factorizations n = a*b with 1 <= a, b <= N;
equivalently, divisors d of n with n/N <= d <= N.  One private O(N^2)
sieve over a window (lo, hi] of [1, N^2] is the only source of tau_N's
cells, and it reaches the reductions through two sources:
``build_tau_table(N)``, the whole read-only uint16 table, and
``TauWindows(N)``, which sieves windows of _WINDOW_CELLS cells as a
reduction reads them, so its memory does not grow with N.  Every
reduction (the moments, the shifted sums, the self-convolution and the
signed product counter c2) reads either source one window at a time, a
whole table being one window, without a table-sized copy, and adds up
exact Python-int partial sums, one per window; no other module reads
tau_N's cells.  Every dot is ``_dots``, over float64 blocks whose sums
are exact integers below 2^53, each cast once for all its deltas.

A pass's windows are independent, so ``_pass`` deals them in snake
order to at most min(windows, CPUs) workers: this process and
``os.fork`` children, each holding at most three windows at once.  A
child sends its exact partial sums back over a pipe, and the parent
adds them up, so the integers do not depend on how many CPUs the
process may run on.  A pass of one window, such as any whole table,
forks nothing.

The rule for choosing a source: every read streams ``TauWindows(N)``,
except that when all of tau_N fits one window that window may be the
whole table.  One pass serves every delta of an N: ``shifted_sums``
sieves each window once, with max(D) extra cells for the deltas D that
fit a window, and dots it with all of them at once, and a delta past a
window sieves its own shifted windows in the same pass; a
self-convolution streams its own mirror windows.

The sum of squares needs no table.  ``square_sum(N)`` counts the
solutions of ab = cd in [1, N]^4, which is sum_{n <= N^2} tau_N(n)^2,
by the totient identity

    sum_{n <= N^2} tau_N(n)^2 = sum_{m=1}^{N} (2 phi(m) - [m = 1]) floor(N/m)^2.

Proof: with g = gcd(a, c) write a = gu, c = gv, gcd(u, v) = 1.  Then
ab = cd reads ub = vd, so v | b and u | d: b = vk, d = uk for one
k >= 1.  All four entries are at most N exactly when g, k <=
N / max(u, v), so each coprime pair (u, v) contributes floor(N/m)^2
solutions, m = max(u, v).  For m >= 2 exactly 2 phi(m) coprime pairs
have max(u, v) = m, namely (u, m) and (m, u) for 1 <= u < m with
gcd(u, m) = 1; for m = 1 there is the one pair (1, 1).

floor(N/m) takes O(sqrt N) values, so the sum runs over the blocks of m
where it is constant, each weighted by a difference of the summatory
totient Phi(x) = phi(1) + ... + phi(x).  Every Phi it reads is at some
x = N // k, and counting the pairs 1 <= u <= v <= x by gcd gives

    Phi(x) = x(x+1)/2 - sum_{d=2}^{x} Phi(x // d),

whose right side reads Phi only at values x // d = N // (kd) again.
Phi comes from a phi sieve up to about L = N^(2/3) / 2 and, above it,
from this recursion memoised on the values N // k (Deleglise and Rivat,
Experiment. Math. 5, 1996), so ``square_sum`` takes O(N^(2/3)) time and
memory.  Up to L = _LIST_SIEVE_LIMIT (N up to about 7 * 10^5) the sieve
and the recursion run over Python lists, so such an N imports no numpy;
above it they run over int64 numpy arrays.

The signed counter c2(m) = #{(x, y): |x|, |y| <= H, x*y = m} obeys the
brute-force-derived law

    c2(0) = 4H + 1,    c2(m) = 2 * tau_H(|m|)   for m != 0,

(each positive factorization (a, b) of |m| lifts to exactly two signed
pairs: (a, b)/(-a, -b) for m > 0 and (a, -b)/(-a, b) for m < 0).  The
law is pinned against exhaustive enumeration for H <= 12 in the tests.
"""

from __future__ import annotations

import os
import warnings
from itertools import accumulate, chain
from math import isqrt
from typing import Callable, Iterable, NamedTuple

from . import checked, lazy_import
from .arith import sieve
from .errors import BudgetError

np = lazy_import("numpy")
pickle = lazy_import("pickle")  # only a pass that forks sends results
signal = lazy_import("signal")  # only a pass that must kill a child

# Cells allowed in a whole table (not bytes).  It guards only library
# callers of build_tau_table: no command builds a table past one window.
# TauWindows needs no budget: a pass holds at most 3 * _WINDOW_CELLS of
# its cells at once.
CELL_BUDGET = 200_000_000

# tau_N(n) <= tau(n) <= 1600 < 2^16 for every n < 2^31 (the maximum, 1600,
# is reached at n = 2095133040), so uint16 cells cannot overflow while
# N^2 < 2^31.
_MAX_LIMIT = 1 << 31

# Cells per np.bincount call in tau_moment; bincount casts its input to
# intp, so a block costs 8 bytes per cell of scratch.
_MOMENT_BLOCK = 1 << 16

# Cells per window when a reduction reads tau_N without a kept table:
# 4 MB of uint16 cells, and at most three windows' worth alive at once.
_WINDOW_CELLS = 1 << 21

# Cells per float64 block of _dots, whose scratch holds two: 512 KB.
_DOT_BLOCK = 1 << 15

# Bytes square_sum may hold: while the prefix sum is taken, its phi sieve
# and the summatory totient are two int64 arrays of L + 1 cells, about
# 8 N^(2/3) bytes; the memo above L adds a Python int and its list slot
# per entry.  128 MiB admits N up to 62,389,816,424.
SQUARE_SUM_BUDGET = 1 << 27
_MEMO_ENTRY_BYTES = 48

# The largest phi sieve square_sum builds in Python lists rather than
# numpy (its L, N up to about 7 * 10^5): below it the list route costs a
# few ms, less than importing numpy.
_LIST_SIEVE_LIMIT = 1 << 12


class TauTable(NamedTuple):
    """counts[n] = tau_N(n) for 0 < n <= N^2 (index 0 unused), read-only
    uint16 cells: the whole table."""

    N: int
    counts: np.ndarray

    @property
    def limit(self) -> int:
        return self.N * self.N

    @property
    def window(self) -> int:
        """Cells a reduction reads at once: all of them."""
        return self.limit

    def cells(self, lo: int, hi: int) -> np.ndarray:
        """tau_N(n) for lo < n <= hi, a view of this table."""
        return self.counts[lo + 1 : hi + 1]


@checked
class TauWindows(NamedTuple):
    """tau_N over [1, N^2] as windows of _WINDOW_CELLS cells, each sieved
    when a reduction reads it and dropped after, so memory stays bounded
    for any N the uint16 cells admit; a pass deals its windows to one
    worker per CPU (_pass)."""

    N: int

    def _check(self):
        _check_limit(self.N)

    @property
    def limit(self) -> int:
        return self.N * self.N

    @property
    def window(self) -> int:
        return _WINDOW_CELLS

    def cells(self, lo: int, hi: int) -> np.ndarray:
        """tau_N(n) for lo < n <= hi, sieved now."""
        return _sieve(self.N, lo, hi)[1:]


def _check_limit(N: int) -> None:
    if N * N >= _MAX_LIMIT:
        raise ValueError(f"tau_N with N={N}: N^2 >= 2^31 overflows uint16 cells")


def build_tau_table(N: int) -> TauTable:
    """The whole tau_N table, for reductions that share it; refused past
    CELL_BUDGET cells and past the uint16 limit."""
    if N < 1:
        raise ValueError(f"build_tau_table() requires N >= 1, got {N}")
    if N * N + 1 > CELL_BUDGET:
        raise BudgetError(
            f"build_tau_table(N={N}) needs {N * N + 1} cells, budget is {CELL_BUDGET}"
        )
    _check_limit(N)
    return TauTable(N=N, counts=_sieve(N, 0, N * N))


def _sieve(N: int, lo: int, hi: int) -> np.ndarray:
    """counts[n - lo] = tau_N(n) for 0 <= lo < n <= hi <= N^2 (index 0
    unused), read-only uint16 cells; the callers bound the window.

    A product a*b with a < b counts for both orders, so row a adds 2 at
    the multiples a*b, a < b <= N, that fall in the window, as one
    strided slice, and the squares a*a get 1 each: half the strided
    updates of looping every ordered pair.  Only rows lo/N < a <=
    sqrt(hi) reach the window; their slice bounds are computed at once
    in int64, so the loop does one in-place add per row.
    """
    counts = np.zeros(hi - lo + 1, dtype=np.uint16)
    two = np.uint16(2)  # the increment, a uint16 scalar so np.add needs no cast
    rows = range(lo // N + 1, isqrt(hi) + 1)
    a = np.arange(rows.start, rows.stop, dtype=np.int64)
    # row a covers b in [max(a + 1, lo//a + 1), min(N, hi//a)]; an empty
    # row starts past the window's end, so its slice is empty
    start = a * np.maximum(a + 1, lo // a + 1) - lo
    stop = a * np.minimum(N, hi // a) - lo + 1
    for step, s, e in zip(rows, start.tolist(), stop.tolist()):
        view = counts[s:e:step]
        np.add(view, two, view)
    roots = np.arange(isqrt(lo) + 1, isqrt(hi) + 1)
    counts[roots * roots - lo] += 1
    counts.flags.writeable = False
    return counts


def _dots(x: np.ndarray, pairs: list[tuple[int | np.ndarray, int]]) -> list[int]:
    """Exact sums of x[i] * y[i] over 0 <= i < n for each (y, n) in pairs;
    y is a view or an int lag, y[i] = x[lag + i], and n <= 0 sums to 0.

    x is cast to float64 a _DOT_BLOCK-cell block at a time, with the lags
    up to a block past it, once for all those lags; a longer lag or a view
    casts its own block after them.  A block sums below 2^15 (2^16 - 1)^2
    < 2^53, exactly, and the block sums add up as ints.  No BLAS (_fork).
    """
    block = _DOT_BLOCK
    top = max([0, *(n for _, n in pairs)])
    shared = [isinstance(y, int) and y <= block for y, _ in pairs]
    order = sorted(range(len(pairs)), key=lambda j: not shared[j])  # shared casts first
    reach = max((y for (y, _), s in zip(pairs, shared) if s), default=0)
    width = min(top, block)
    scratch = np.empty(width + max(reach, 0 if all(shared) else width))
    sums = [0] * len(pairs)
    for lo in range(0, top, block):
        cast = scratch[: min(width + reach, x.size - lo)]
        cast[:] = x[lo : lo + cast.size]
        for j in order:
            y, n = pairs[j]
            b = min(block, n - lo)
            if b <= 0:
                continue
            if shared[j]:
                other = cast[y : y + b]
            else:
                other = scratch[width : width + b]
                other[:] = x[lo + y : lo + y + b] if isinstance(y, int) else y[lo : lo + b]
            sums[j] += int(np.einsum("i,i->", cast[:b], other))
    return sums


def cpu_count() -> int:
    """CPUs this process may run on: the cap on a pass's workers."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _deal(starts: range, workers: int) -> list[list[int]]:
    """starts dealt to workers shares in snake order (0, 1, ..., w - 1,
    w - 1, ..., 0, 0, 1, ...), each start in one: windows get lighter as
    lo grows (at N = 8000 with four deltas, window 0 takes about 20 ms,
    window 30 about 3 ms), and round-robin would hand worker 0 the
    heavier window of every round."""
    rounds = 2 * workers
    return [[lo for i, lo in enumerate(starts) if i % rounds in (k, rounds - 1 - k)]
            for k in range(workers)]


def _window_sums(
    starts: Iterable[int], width: int, window: Callable[[int], list[int]], parent: int = 0
) -> list[int]:
    """The width sums window(lo)[i] over the starts lo, in this process.
    A worker forked by process parent exits before each window once
    parent is gone: nobody would read its sums."""
    sums = [0] * width
    for lo in starts:
        if parent and os.getppid() != parent:
            os._exit(1)
        sums = [a + b for a, b in zip(sums, window(lo))]
    return sums


def _pass(starts: range, width: int, window: Callable[[int], list[int]]) -> list[int]:
    """The width exact sums window(lo)[i] over the window starts lo of one
    pass, the windows dealt to min(windows, CPUs) workers.

    This process reads the first share; each other share is read by a
    child made with os.fork (_fork).  The parent re-raises a child's
    exception, and a child that ends without a result, killed by the
    kernel's out-of-memory killer say, raises MemoryError.  A share that
    could not be forked (no free pid, no file descriptor) is read here
    too.  Every child is killed, if still running, and reaped on every
    path out.
    """
    workers = min(len(starts), cpu_count())
    if workers <= 1:
        return _window_sums(starts, width, window)
    np.ndarray, pickle.dumps  # imports both here, once, rather than in every child
    shares = _deal(starts, workers)
    here = [shares[0]]  # the shares this process reads
    children = []  # (pid, read end of its pipe), not yet reaped
    try:
        for i, share in enumerate(shares[1:], 1):
            try:
                children.append(_fork(share, width, window))
            except OSError:
                here += shares[i:]
                break
        sums = _window_sums(chain.from_iterable(here), width, window)
        while children:
            pid, read = children[0]
            with open(read, "rb", closefd=False) as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            os.close(read)
            sums = [a + b for a, b in zip(sums, _child_result(data, status))]
        return sums
    finally:
        for pid, read in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)


def _fork(share: range, width: int, window: Callable[[int], list[int]]) -> tuple[int, int]:
    """A child that reads share, and the read end of the pipe its result
    comes back on.  os.fork needs no re-import (a spawned worker would
    import numpy again, about 0.16 s): the child inherits window itself
    and the numpy that _pass loaded before it forked."""
    parent = os.getpid()
    read, write = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns that a process with threads (numpy's
            # BLAS pool) forks; the child calls no BLAS and no lock.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        os.close(read)
        _child(parent, write, share, width, window)
    os.close(write)
    return pid, read


def _child(parent: int, write: int, share: range, width: int, window: Callable[[int], list[int]]):
    """A forked worker: reads its share and sends (True, sums), or
    (False, the exception raised), then exits by os._exit; it never
    returns, prints nothing (its stdout and stderr are /dev/null, so it
    holds no pipe of the command's open either) and runs none of the
    parent's exit handlers."""
    code = 1  # no complete result sent
    try:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, 1)
        os.dup2(null, 2)
        try:
            result = (True, _window_sums(share, width, window, parent))
        except BaseException as exc:  # the parent re-raises it
            result = (False, exc)
        with open(write, "wb") as pipe:
            pickle.dump(result, pipe)
        code = 0
    finally:
        os._exit(code)


def _child_result(data: bytes, status: int) -> list[int]:
    """A child's sums from what it sent and its wait status; its
    exception is raised here."""
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise MemoryError(f"a tau_N worker {how} before it sent its sums")
    ok, value = pickle.loads(data)  # written by the child of this pass
    if not ok:
        raise value
    return value


def _icbrt(n: int) -> int:
    """floor(n^(1/3)) for n >= 1, by Newton's method in integers, so it is
    exact for any n (a float cube root overflows past 10^308)."""
    x = 1 << -(-n.bit_length() // 3)  # at least n^(1/3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def _square_sum_plan(N: int) -> tuple[int, int, int]:
    """(L, K, bytes) for square_sum(N): phi is sieved up to L, about
    N^(2/3) / 2 and never below sqrt(N), where the tail of the Phi
    recursion reads; Phi(N // k) is memoised for the k <= K with
    N // k > L; bytes is the most that the sieve, its prefix sum, the
    memo and the recursion's int64 scratch, at most four arrays of
    sqrt(N) cells, hold at once."""
    L = max(isqrt(N), _icbrt(N * N) // 2)
    K = N // (L + 1)
    return L, K, 16 * (L + 1) + _MEMO_ENTRY_BYTES * (K + 1) + 32 * (isqrt(N) + 1)


def square_sum(N: int) -> int:
    """Exact sum of tau_N(n)^2 over 1 <= n <= N^2 by the block route of
    the module docstring, in O(N^(2/3)); it builds no tau table, so the
    uint16 limit of the tables does not apply.

    It refuses, before it allocates, an N whose phi sieve and Phi memo
    would exceed SQUARE_SUM_BUDGET bytes.  The budget keeps N below
    2^36, where every int64 sum of Phi values stays under N^(5/3) < 2^63;
    the blocks are summed in Python ints.
    """
    if N < 1:
        raise ValueError(f"square_sum() requires N >= 1, got {N}")
    L, K, need = _square_sum_plan(N)
    if need > SQUARE_SUM_BUDGET:
        raise BudgetError(
            f"square_sum(N={N}) needs {need} bytes, budget is {SQUARE_SUM_BUDGET}"
        )
    # small[x] = Phi(x) for x <= L
    if L <= _LIST_SIEVE_LIMIT:
        small = list(accumulate(_phi_list(L)))
    else:
        small = np.cumsum(sieve(L))
    big = _large_totient_sums(N, small, K)
    # m runs over the blocks [m, top] of constant q = floor(N/m); the
    # weight 2 phi(m) - [m = 1] sums to 2 Phi(top) - 2 Phi(m - 1), and the
    # -[m = 1] term, once q = N, gives the -N^2
    total, m, prev = 0, 1, 0
    while m <= N:
        q = N // m
        top = N // q
        cur = big[q] if q <= K else int(small[top])
        total += q * q * (cur - prev)
        m, prev = top + 1, cur
    return 2 * total - N * N


def _phi_list(limit: int) -> list[int]:
    """phi(n) for 0 <= n <= limit in Python ints: each prime p, a cell
    still equal to its index when the sieve reaches it, scales its
    multiples by 1 - 1/p."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            phi[p::p] = [v - v // p for v in phi[p::p]]
    return phi


def _large_totient_sums(N: int, small: list[int] | np.ndarray, K: int) -> list[int]:
    """big[k] = Phi(N // k) for 1 <= k <= K, from the recursion of the
    module docstring, given small[x] = Phi(x) for every x up to
    max(isqrt(N), N // (K + 1)), a list or an int64 array.

    Largest k first, so big[k * d] is known when big[k] reads it.  With
    x = N // k and s = isqrt(x), the terms d <= s with k * d <= K read the
    memo in Python ints; the other d <= s read small at x // d, and the
    d > s are grouped by v = x // d <= s, x // v - x // (v + 1) of them
    each; both read small in its own type, an array in int64.
    """
    big = [0] * (K + 1)
    for k in range(K, 0, -1):
        x = N // k
        s = isqrt(x)
        known = min(K // k, s)
        top = x // (s + 1)  # the largest v
        if isinstance(small, list):
            rest = sum(small[x // d] for d in range(known + 1, s + 1)) + sum(
                small[v] * (x // v - x // (v + 1)) for v in range(1, top + 1)
            )
        else:
            d = np.arange(known + 1, s + 1, dtype=np.int64)
            v = np.arange(1, top + 1, dtype=np.int64)
            rest = int(small[x // d].sum()) + int(small[v] @ (x // v - x // (v + 1)))
        big[k] = x * (x + 1) // 2 - sum(big[k * j] for j in range(2, known + 1)) - rest
    return big


def tau_moment(table: TauTable | TauWindows, k: int) -> int:
    """Exact sum of tau_N(n)^k over 1 <= n <= N^2.

    One exact partial sum per window of n; a whole table is one window.
    """
    if k < 1:
        raise ValueError(f"tau_moment() requires k >= 1, got {k}")
    step = table.window
    (total,) = _pass(
        range(0, table.limit, step),
        1,
        lambda lo: [_moment_window(table.cells(lo, min(lo + step, table.limit)), k)],
    )
    return total


def _moment_window(cells: np.ndarray, k: int) -> int:
    """sum v^k over the cells v of one window, through a value histogram
    built _MOMENT_BLOCK cells at a time, so the k-th powers are taken in
    Python ints: exact for any k."""
    freq = np.zeros(int(cells.max()) + 1, dtype=np.int64)
    for lo in range(0, cells.size, _MOMENT_BLOCK):
        freq += np.bincount(cells[lo : lo + _MOMENT_BLOCK], minlength=freq.size)
    return sum(int(f) * v**k for v, f in enumerate(freq) if f)


def shifted_sum(table: TauTable | TauWindows, delta: int) -> int:
    """Exact sum of tau_N(n) * tau_N(n + delta) over 1 <= n <= N^2;
    delta = 0 gives the sum of tau_N(n)^2.  The one-delta case of
    shifted_sums."""
    return shifted_sums(table, [delta])[delta]


def shifted_sums(table: TauTable | TauWindows, deltas: list[int]) -> dict[int, int]:
    """sum tau_N(n) * tau_N(n + D) over 1 <= n <= N^2 for every D >= 0 in
    deltas, reading tau_N once for all of them.

    Each window (lo, lo + window] is sieved once with max(D) extra cells,
    over the D that fit a window, and dotted once per delta; a D past a
    window sieves its shift (lo + D, lo + window + D] apart.  A window is
    dropped before its worker sieves the next one, so a worker holds at
    most three windows' cells.  A whole table is one window.
    """
    if not deltas:
        return {}
    if min(deltas) < 0:
        raise ValueError(f"shifted_sum() requires delta >= 0, got {min(deltas)}")
    deltas = list(dict.fromkeys(deltas))
    step = table.window
    near = [D for D in deltas if D <= step]
    extra = max(near, default=0)
    top = table.limit - min(deltas)  # no n past top has a term

    def window(lo: int) -> list[int]:
        cells = table.cells(lo, min(lo + step + extra, table.limit))
        # terms with n + D > N^2 vanish
        n = {D: min(step, table.limit - D - lo) for D in deltas}
        sums = dict(zip(near, _dots(cells, [(D, n[D]) for D in near])))
        for D in deltas:  # a delta past a window: one shift sieved at a time
            if D > step and n[D] > 0:
                (sums[D],) = _dots(cells, [(table.cells(lo + D, lo + D + n[D]), n[D])])
        return [sums.get(D, 0) for D in deltas]

    return dict(zip(deltas, _pass(range(0, top, step), len(deltas), window)))


def self_convolution(table: TauTable | TauWindows, D: int) -> int:
    """Exact sum of tau_N(m) * tau_N(D - m) over 0 < m < D.

    The pairs m and D - m give equal terms, so only m < D/2 is read and
    doubled, and tau_N(D/2)^2 is added when D is even.  One exact partial
    sum per window of m, each paired with its mirror window of D - m; a
    whole table is one window.
    """
    hi = min(D - 1, table.limit)
    lo = D - hi  # mirror index >= 1; both factors need support <= N^2
    mid = (D - 1) // 2  # the largest m < D/2
    step = table.window
    (half,) = _pass(
        range(lo - 1, mid, step),
        1,
        lambda a: [_mirror_window(table, a, min(a + step, mid), D)],
    )
    total = 2 * half
    if D % 2 == 0 and 2 <= D <= 2 * table.limit:
        total += int(table.cells(D // 2 - 1, D // 2)[0]) ** 2
    return total


def _mirror_window(table: TauTable | TauWindows, lo: int, hi: int, D: int) -> int:
    """sum tau_N(m) * tau_N(D - m) over lo < m <= hi."""
    return _dots(table.cells(lo, hi), [(table.cells(D - hi - 1, D - lo - 1)[::-1], hi - lo)])[0]


def c2(table: TauTable | TauWindows, m: int) -> int:
    """c2(m) = #{(x, y): |x|, |y| <= H, x*y = m} for H = table.N."""
    H = table.N
    if m == 0:
        return 4 * H + 1
    a = abs(m)
    if a > H * H:
        return 0
    return 2 * int(table.cells(a - 1, a)[0])
