"""Ground-truth counting of bounded-height integer matrices with fixed
determinant.

Two independent routes are kept side by side: ``naive_count`` enumerates
every matrix in the box, while ``fast_count`` evaluates the product
convolution sum(m) c2(m) * c2(m - delta) from tau_H.  Its one source of
the reductions it assembles, ``c2``, ``shifted_sum`` and
``self_convolution`` of ``tau_tables`` (the one module that reads
tau_H's cells), is ``delta_pass``, which reads them for every delta of
one H, the shifted sums in a single pass, into a ``DeltaSums`` that
``fast_count`` takes in place of a table.  Given no table, the pass
streams tau_H one window at a time, so its memory stays bounded at any
H whose uint16 cells cannot overflow (H^2 < 2^31).
At delta = 0 fast_count reads no table at all:

    #D_2(H, 0) = (4H+1)^2 + 8 * sum_{n <= H^2} tau_H(n)^2,

and ``tau_tables.square_sum`` gives the sum of squares from the
totient identity proved in that module's docstring, in O(H^(2/3)) time
and memory, so delta = 0 has no uint16 limit, only the byte budget of
square_sum.
The two counters must agree exactly; the tests enforce this
exhaustively at small heights.

Also provides sign-class counts (prescribed signs of a, c, d with all
four entries nonzero), the zero-entry count via inclusion-exclusion, and
the decomposition report asserting

    total = 4 * (c_{1,1,1} + c_{1,1,-1}) + zero_entry

together with the eight sign-class equalities.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import checked, lazy_import, tau_tables
from .errors import BudgetError
from .tau_tables import (
    TauTable,
    TauWindows,
    build_tau_table,
    c2,
    self_convolution,
    shifted_sums,
    square_sum,
)

np = lazy_import("numpy")

# Hard cap on full enumeration: (2H+1)^4 matrices.
NAIVE_ENUM_LIMIT = 10**10

# Cells per (a, d) block in sign_class_count; each float64 temporary of a
# block costs 8 bytes per cell.
_SIGN_CLASS_BLOCK = 1 << 16


@checked
class SignClass(NamedTuple):
    """Signs of entries a, c, d; membership additionally requires b != 0."""

    alpha: int
    gamma: int
    delta_prime: int

    def _check(self):
        for s in (self.alpha, self.gamma, self.delta_prime):
            if s not in (-1, 1):
                raise ValueError(f"sign components must be +-1, got {s}")


ALL_SIGN_CLASSES = tuple(
    SignClass(a, g, d) for a in (1, -1) for g in (1, -1) for d in (1, -1)
)


class DecompositionReport(NamedTuple):
    total: int
    per_class: dict[tuple[int, int, int], int]
    zero_entry: int
    assembly_ok: bool
    failures: list[str]


class DeltaSums(NamedTuple):
    """The reductions of tau_N that fast_count assembles, read in one
    pass: terms[D] = (c2(D), shifted_sum(D), self_convolution(D)) for
    each D of the pass."""

    N: int
    terms: dict[int, tuple[int, int, int]]


@lru_cache(maxsize=8)
def _det_histogram_2x2(H: int) -> np.ndarray:
    """Histogram of ad - bc over all (2H+1)^4 matrices; index m + 2H^2.

    Full enumeration: every (a, d) row is crossed with every (b, c) pair,
    chunked by a to bound memory.
    """
    v = np.arange(-H, H + 1, dtype=np.int64)
    bc = np.multiply.outer(v, v).ravel()
    off = 2 * H * H
    hist = np.zeros(4 * H * H + 1, dtype=np.int64)
    for a in v:
        dets = (a * v)[:, None] - bc[None, :]
        hist += np.bincount((dets + off).ravel(), minlength=hist.size)
    hist.flags.writeable = False  # shared by every caller through the cache
    return hist


def naive_count(H: int, delta: int) -> int:
    """Exact #D_2(H, delta) by full enumeration of the box."""
    if H < 1:
        raise ValueError(f"naive_count() requires H >= 1, got {H}")
    if (2 * H + 1) ** 4 > NAIVE_ENUM_LIMIT:
        raise BudgetError(f"naive_count(H={H}) would enumerate (2H+1)^4 matrices")
    hist = _det_histogram_2x2(H)
    idx = delta + 2 * H * H
    if idx < 0 or idx >= hist.size:
        return 0
    return int(hist[idx])


def _tau_table(H: int, table: TauTable | TauWindows | DeltaSums | None):
    """The given source of tau_H, refused unless it is for N = H; when
    none is given, tau_H streamed: TauWindows(H), or the whole table when
    all of it fits one window and tau_tables.CELL_BUDGET, read when
    called."""
    if table is None:
        # The whole-table branch stays only because the bench counts tau
        # cells through build_tau_table and pins fast_count(5, 3) building
        # one 26-cell table; TauWindows(H) alone gives the same values.
        windows = TauWindows(H)
        whole = windows.limit < min(windows.window, tau_tables.CELL_BUDGET)
        return build_tau_table(H) if whole else windows
    if table.N != H:
        raise ValueError(f"tau table is for N={table.N}, expected H={H}")
    return table


def delta_pass(
    H: int, deltas: list[int], table: TauTable | TauWindows | None = None
) -> DeltaSums:
    """The reductions of tau_H that fast_count assembles, for every delta
    in deltas with 0 < |delta| <= 2H^2: their shifted sums from one pass
    over tau_H (tau_tables.shifted_sums), then c2 and self_convolution of
    each |delta| read from the same source once no pass window is alive.
    The source is table, or the one _tau_table chooses; none is read when
    no delta needs it.  fast_count takes the result as its table."""
    if H < 1:
        raise ValueError(f"delta_pass() requires H >= 1, got {H}")
    Ds = sorted({abs(d) for d in deltas if 0 < abs(d) <= 2 * H * H})
    if not Ds:
        return DeltaSums(H, {})
    source = _tau_table(H, table)
    shifted = shifted_sums(source, Ds)
    return DeltaSums(
        H, {D: (c2(source, D), shifted[D], self_convolution(source, D)) for D in Ds}
    )


def fast_count(
    H: int, delta: int, table: TauTable | TauWindows | DeltaSums | None = None
) -> int:
    """Exact #D_2(H, delta) as sum(m) c2(m) * c2(m - delta).

    With t = tau_H and D = |delta| > 0 the signed sum collapses to

        2*(4H+1)*c2(D) + 8*sum_{k>=1} t(k)t(k+D) + 4*sum_{0<m<D} t(m)t(D-m),

    and for delta = 0 to (4H+1)^2 + 8*sum t(k)^2.  Each term for D > 0
    is one reduction of tau_H, c2, shifted_sum and self_convolution,
    taken from delta_pass(H, [D], table), or from table itself when it
    is the DeltaSums of a pass that covers D (a pass that does not
    raises ValueError); the sum of squares is square_sum(H), which reads
    no table, so at delta = 0 and at |delta| > 2H^2 a given table is
    only checked and none is built, and at delta = 0 H is bounded by
    square_sum's byte budget instead of H^2 < 2^31.
    """
    if H < 1:
        raise ValueError(f"fast_count() requires H >= 1, got {H}")
    if table is not None:
        _tau_table(H, table)
    D = abs(delta)
    if D > 2 * H * H:
        return 0
    if D == 0:
        return (4 * H + 1) ** 2 + 8 * square_sum(H)
    if not isinstance(table, DeltaSums):
        table = delta_pass(H, [D], table)
    elif D not in table.terms:
        raise ValueError(f"delta pass for N={table.N} does not cover |delta|={D}")
    c, shifted, mirror = table.terms[D]
    return 2 * (4 * H + 1) * c + 8 * shifted + 4 * mirror


def sign_class_count(H: int, delta: int, sign_class: SignClass) -> int:
    """Exact count of matrices in D_2(H, delta) with sgn a = alpha,
    sgn c = gamma, sgn d = delta' and b != 0.

    Direct enumeration of (a, c, d) in the prescribed orthant; b is read
    off from b = (a*d - delta) / c and checked for integrality and range.
    k = a*d - delta is a float64 block of (a, d) rows of at most
    _SIGN_CLASS_BLOCK cells (one row when H exceeds it), divided by each
    c in turn, so memory stays O(H + _SIGN_CLASS_BLOCK).  The division
    is exact evidence: |k| <= 3H^2 < 2^53, so k and c are exact floats;
    a multiple of c gives the exact integer b, and any other k a quotient
    at least 1/c from every integer, which its rounding error (half an
    ulp of |k/c| < 2^53 / c) cannot close.  k = 0 (b = 0) is set to NaN,
    which is never integral.  Returns 0 for |delta| > 2H^2, where
    |ad - bc| <= 2H^2 leaves no matrix.
    """
    if H < 1:
        raise ValueError(f"sign_class_count() requires H >= 1, got {H}")
    if 3 * H * H >= 1 << 53:
        raise ValueError(f"sign_class_count() requires 3H^2 < 2^53, got H={H}")
    if abs(delta) > 2 * H * H:
        return 0
    al, ga, dp = sign_class.alpha, sign_class.gamma, sign_class.delta_prime
    d_vals = dp * np.arange(1, H + 1, dtype=np.float64)
    rows = max(1, _SIGN_CLASS_BLOCK // H)
    total = 0
    for lo in range(1, H + 1, rows):
        a_vals = al * np.arange(lo, min(lo + rows, H + 1), dtype=np.float64)[:, None]
        k = a_vals * d_vals - delta
        k[k == 0] = np.nan
        size = np.abs(k)
        for c in range(1, H + 1):
            b = k / (ga * c)
            total += int(np.count_nonzero((b == np.rint(b)) & (size <= H * c)))  # |b| <= H
    return total


def zero_entry_count(H: int, delta: int, table: TauTable | TauWindows | None = None) -> int:
    """Exact count of matrices in D_2(H, delta) with at least one zero entry.

    Inclusion-exclusion over the four events {entry == 0}; each term
    reduces to the signed product counter c2 of the tau_H table.
    """
    if H < 1:
        raise ValueError(f"zero_entry_count() requires H >= 1, got {H}")
    c2d = c2(_tau_table(H, table), delta)  # c2 is even in m
    side = 2 * H + 1
    z = 4 * side * c2d - 2 * c2d
    if delta == 0:
        z += -4 * side * side + 4 * side - 1
    return z


def decompose(
    H: int,
    delta: int,
    table: TauTable | TauWindows | None = None,
) -> DecompositionReport:
    """Full sign decomposition of #D_2(H, delta) with exact identity checks."""
    table = _tau_table(H, table)
    total = fast_count(H, delta, table=table)
    per_class = {
        (sc.alpha, sc.gamma, sc.delta_prime): sign_class_count(H, delta, sc)
        for sc in ALL_SIGN_CLASSES
    }
    zero = zero_entry_count(H, delta, table=table)

    failures: list[str] = []
    c111 = per_class[(1, 1, 1)]
    c11m1 = per_class[(1, 1, -1)]
    if total != sum(per_class.values()) + zero:
        failures.append("total != sum(per_class) + zero_entry")
    if total != 4 * (c111 + c11m1) + zero:
        failures.append("total != 4*(c111 + c11-1) + zero_entry")
    for (al, ga, dp), cnt in per_class.items():
        expect = c111 if dp == al else c11m1
        if cnt != expect:
            failures.append(f"class ({al},{ga},{dp}) = {cnt}, expected {expect}")
    return DecompositionReport(
        total=total,
        per_class=per_class,
        zero_entry=zero,
        assembly_ok=not failures,
        failures=failures,
    )
