"""The restricted divisor function tau_N and its tables.

tau_N(n) counts ordered factorizations n = a*b with 1 <= a, b <= N;
equivalently, divisors d of n with n/N <= d <= N.  ``build_tau_table``
is the only source of tau_N: an O(N^2) sieve into a read-only uint16
table.  The exact moments, the shifted sums, the self-convolution and
the signed product counter c2 all read that table in place; every
reduction accumulates in int64 without a table-sized copy, and no other
module reads the table's cells.

The signed counter c2(m) = #{(x, y): |x|, |y| <= H, x*y = m} obeys the
brute-force-derived law

    c2(0) = 4H + 1,    c2(m) = 2 * tau_H(|m|)   for m != 0,

(each positive factorization (a, b) of |m| lifts to exactly two signed
pairs: (a, b)/(-a, -b) for m > 0 and (a, -b)/(-a, b) for m < 0).  The
law is pinned against exhaustive enumeration for H <= 12 in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError

# Table cells allowed per build (not bytes).
CELL_BUDGET = 200_000_000

# tau_N(n) <= tau(n) <= 1600 < 2^16 for every n < 2^31 (the maximum, 1600,
# is reached at n = 2095133040), so uint16 cells cannot overflow while
# N^2 < 2^31.
_MAX_LIMIT = 1 << 31

# Cells per np.bincount call in tau_moment; bincount casts its input to
# intp, so a block costs 8 bytes per cell of scratch.
_MOMENT_BLOCK = 1 << 16


@dataclass(frozen=True)
class TauTable:
    """counts[n] = tau_N(n) for 1 <= n <= N^2 (index 0 unused), read-only
    uint16 cells."""

    N: int
    counts: np.ndarray

    @property
    def limit(self) -> int:
        return self.N * self.N


def build_tau_table(N: int) -> TauTable:
    """Sieve tau_N over [1, N^2].

    A product a*b with a < b counts for both orders, so row a adds 2 at
    the multiples a*b, a < b <= N, and the squares a*a get 1 each: half
    the strided updates of looping every ordered pair.
    """
    if N < 1:
        raise ValueError(f"build_tau_table() requires N >= 1, got {N}")
    if N * N + 1 > CELL_BUDGET:
        raise BudgetError(
            f"build_tau_table(N={N}) needs {N * N + 1} cells, budget is {CELL_BUDGET}"
        )
    if N * N >= _MAX_LIMIT:
        raise ValueError(f"build_tau_table(N={N}): N^2 >= 2^31 overflows uint16 cells")
    counts = np.zeros(N * N + 1, dtype=np.uint16)
    for a in range(1, N + 1):
        counts[a * a + a : a * N + 1 : a] += 2
    counts[np.arange(1, N + 1) ** 2] += 1
    counts.flags.writeable = False
    return TauTable(N=N, counts=counts)


def _dot(x: np.ndarray, y: np.ndarray) -> int:
    """Exact sum of x[i] * y[i] over two equal-length table views.

    einsum casts through small buffers, so the int64 accumulation needs
    no copy of either view.  While N^2 < 2^31 the sum stays below
    2^31 * 1600^2 < 2^63.
    """
    return int(np.einsum("i,i->", x, y, dtype=np.int64))


def tau_moment(table: TauTable, k: int) -> int:
    """Exact sum of tau_N(n)^k over 1 <= n <= N^2.

    Goes through a value histogram, built one block at a time, so the
    k-th powers are taken with Python integers; exact for any k, no
    overflow.
    """
    if k < 1:
        raise ValueError(f"tau_moment() requires k >= 1, got {k}")
    counts = table.counts
    freq = np.zeros(int(counts.max()) + 1, dtype=np.int64)
    for lo in range(1, counts.size, _MOMENT_BLOCK):
        freq += np.bincount(counts[lo : lo + _MOMENT_BLOCK], minlength=freq.size)
    return sum(int(f) * v**k for v, f in enumerate(freq) if f)


def shifted_sum(table: TauTable, delta: int) -> int:
    """Exact sum of tau_N(n) * tau_N(n + delta) over 1 <= n <= N^2;
    delta = 0 gives the sum of tau_N(n)^2."""
    if delta < 0:
        raise ValueError(f"shifted_sum() requires delta >= 0, got {delta}")
    limit = table.limit
    if delta >= limit:
        return 0
    c = table.counts
    # terms with n + delta > N^2 vanish
    return _dot(c[1 : limit - delta + 1], c[1 + delta : limit + 1])


def self_convolution(table: TauTable, D: int) -> int:
    """Exact sum of tau_N(m) * tau_N(D - m) over 0 < m < D."""
    hi = min(D - 1, table.limit)
    lo = D - hi  # mirror index >= 1; both factors need support <= N^2
    if lo > hi:
        return 0
    c = table.counts
    return _dot(c[lo : hi + 1], c[hi : lo - 1 : -1])


def c2(table: TauTable, m: int) -> int:
    """c2(m) = #{(x, y): |x|, |y| <= H, x*y = m} for H = table.N."""
    H = table.N
    if m == 0:
        return 4 * H + 1
    a = abs(m)
    if a > H * H:
        return 0
    return 2 * int(table.counts[a])
