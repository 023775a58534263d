"""Ground-truth counting of bounded-height integer matrices with fixed
determinant.

Two independent routes are kept side by side: ``naive_count`` enumerates
every matrix in the box, while ``fast_count`` evaluates the product
convolution sum(m) c2(m) * c2(m - delta) from tau_H.  Its one source of
the reductions it assembles, ``c2``, ``shifted_sum`` and
``self_convolution`` of ``tau_tables`` (the one module that reads
tau_H's cells), is ``delta_pass``, which reads them for every delta of
one H in one walk over tau_H (``tau_tables.pair_sums``), each mirror
sum from the windows that hold its m, into a ``DeltaSums`` that
``fast_count`` takes in place of a table.  Given no table, the walk
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
four entries nonzero), read for each c off one histogram of the
products |a d| in O(H^2) integer work, the zero-entry count via
inclusion-exclusion, and the decomposition report asserting

    total = 4 * (c_{1,1,1} + c_{1,1,-1}) + zero_entry

together with the eight sign-class equalities.

tau_tables is bound through lazy_import, so it runs at the first read
of one of its names: a caller of naive_count, SignClass and
sign_class_count alone, as casework is, runs no tau_tables.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from . import checked, lazy_import
from .errors import check_bytes

if TYPE_CHECKING:
    from .tau_tables import TauTable, TauWindows

np = lazy_import("numpy")
tau_tables = lazy_import("matcount.tau_tables")


def __getattr__(name: str):
    """exact.build_tau_table, the name the bench's spans wrap, read from
    tau_tables at each access, so importing exact runs no tau_tables."""
    if name == "build_tau_table":
        return tau_tables.build_tau_table
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    one a at a time in one reused block, each d's row written in place (a
    broadcast subtraction adds numpy's buffers at small H).  A pure
    function of H, read-only, so the cache may keep it: no caller can see
    whether it was built again.
    """
    v = np.arange(-H, H + 1, dtype=np.int64)
    bc = np.multiply.outer(v, v).ravel()
    off = 2 * H * H
    hist = np.zeros(4 * H * H + 1, dtype=np.int64)
    dets = np.empty((v.size, bc.size), dtype=np.int64)  # ad - bc + off for one a
    for a in range(-H, H + 1):
        for row, d in zip(dets, range(-H, H + 1)):
            np.subtract(a * d + off, bc, out=row)
        hist += np.bincount(dets.ravel(), minlength=hist.size)
    hist.flags.writeable = False  # shared by every caller through the cache
    return hist


def naive_count(H: int, delta: int) -> int:
    """Exact #D_2(H, delta) by full enumeration of the box.  Its peak, in
    int64 cells, is one a's (2H+1)^3 determinants, the histogram and one
    bincount of 4H^2 + 1 bins each and the (2H+1)^2 products bc and 2H + 1
    entries: refused past errors.BYTE_BUDGET (H > 127) before it allocates."""
    if H < 1:
        raise ValueError(f"naive_count() requires H >= 1, got {H}")
    check_bytes(f"naive_count(H={H})", 8 * ((2 * H + 1) ** 3 + 12 * H * H + 6 * H + 4))
    hist = _det_histogram_2x2(H)
    idx = delta + 2 * H * H
    if idx < 0 or idx >= hist.size:
        return 0
    return int(hist[idx])


def _tau_table(H: int, table: TauTable | TauWindows | DeltaSums | None):
    """The given source of tau_H, refused unless it is for N = H; when
    none is given, tau_H streamed: TauWindows(H), or the whole table when
    all of it fits one window, the only tables build_tau_table builds."""
    if table is None:
        # The whole-table branch stays only because the bench counts tau
        # cells through build_tau_table and pins fast_count(5, 3) building
        # one 26-cell table; TauWindows(H) alone gives the same values.
        windows = tau_tables.TauWindows(H)
        return tau_tables.build_tau_table(H) if windows.limit < windows.window else windows
    if table.N != H:
        raise ValueError(f"tau table is for N={table.N}, expected H={H}")
    return table


def delta_pass(
    H: int, deltas: list[int], table: TauTable | TauWindows | None = None
) -> DeltaSums:
    """The reductions of tau_H that fast_count assembles, for every delta
    in deltas with 0 < |delta| <= 2H^2: the shifted sum and the
    self-convolution of each |delta| from one walk over tau_H
    (tau_tables.pair_sums, one pass), then its c2 from the same source.
    The source is table, or the one _tau_table chooses; none is read when
    no delta needs it.  fast_count takes the result as its table."""
    if H < 1:
        raise ValueError(f"delta_pass() requires H >= 1, got {H}")
    Ds = sorted({abs(d) for d in deltas if 0 < abs(d) <= 2 * H * H})
    if not Ds:
        return DeltaSums(H, {})
    source = _tau_table(H, table)
    shifted, mirror = tau_tables.pair_sums(source, Ds, Ds)
    return DeltaSums(H, {D: (tau_tables.c2(source, D), shifted[D], mirror[D]) for D in Ds})


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
        return (4 * H + 1) ** 2 + 8 * tau_tables.square_sum(H)
    if not isinstance(table, DeltaSums):
        table = delta_pass(H, [D], table)
    elif D not in table.terms:
        raise ValueError(f"delta pass for N={table.N} does not cover |delta|={D}")
    c, shifted, mirror = table.terms[D]
    return 2 * (4 * H + 1) * c + 8 * shifted + 4 * mirror


def sign_class_count(H: int, delta: int, sign_class: SignClass) -> int:
    """Exact count of matrices in D_2(H, delta) with sgn a = alpha,
    sgn c = gamma, sgn d = delta' and b != 0.

    With P = |a d| in [1, H^2] and s = alpha * delta', the entry b solves
    b * c = a d - delta = s P - delta, so it exists, nonzero and in
    [-H, H], exactly when s P - delta = j |c| with 0 < |j| <= H, that is
    at P = e + j |c| for e = s * delta (j runs over a symmetric range, so
    its sign is free, and gamma only sets the sign of b).  The products
    P of the H^2 pairs (|a|, |d|) are binned once (np.bincount over
    [1, H^2]); for each |c| = 1..H the admissible P form one strided
    slice of the bins, and every slice holds j = 0 (b = 0) at P = e when
    1 <= e <= H^2, which is taken out once per c.  That is O(H^2)
    integer work.  The products, their bins and the entries 1..H take
    16 H^2 + 8 H + 8 bytes, refused past errors.BYTE_BUDGET (H > 2896)
    before anything is allocated.
    Returns 0 for |delta| > 2H^2, where |ad - bc| <= 2H^2 leaves no
    matrix.
    """
    if H < 1:
        raise ValueError(f"sign_class_count() requires H >= 1, got {H}")
    check_bytes(f"sign_class_count(H={H})", 16 * H * H + 8 * H + 8)
    if abs(delta) > 2 * H * H:
        return 0
    v = np.arange(1, H + 1, dtype=np.int64)
    bins = np.bincount(np.multiply.outer(v, v).ravel(), minlength=H * H + 1)
    e = sign_class.alpha * sign_class.delta_prime * delta
    total = 0
    for c in range(1, H + 1):
        lo, hi = max(1, e - H * c), min(H * H, e + H * c)
        if lo <= hi:
            total += int(bins[lo + (e - lo) % c : hi + 1 : c].sum())
    if 1 <= e <= H * H:
        total -= H * int(bins[e])  # b = 0
    return total


def zero_entry_count(H: int, delta: int, table: TauTable | TauWindows | None = None) -> int:
    """Exact count of matrices in D_2(H, delta) with at least one zero entry.

    Inclusion-exclusion over the four events {entry == 0}; each term
    reduces to the signed product counter c2 of the tau_H table.
    """
    if H < 1:
        raise ValueError(f"zero_entry_count() requires H >= 1, got {H}")
    c2d = tau_tables.c2(_tau_table(H, table), delta)  # c2 is even in m
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
