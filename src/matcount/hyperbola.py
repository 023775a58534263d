"""Exact point counts on the modular hyperbola u*v = K (mod q), in boxes
and under curves, with the matching main-term estimators and nominal
error bounds.

Interval convention: every range is half-open on the left and closed on
the right, (U, U+X] x (V, V+Y], with integer endpoints.  A curve bound is
always u -> A/u with integer A >= 0, optionally capped at an integer, so
the rows under it are the integer floor min(A // u, cap) and the whole
count runs in integers.  This module owns that convention; the casework
module passes it integer endpoints only.

The solutions v of u*v = K (mod q), and the gcd weight of u, depend on
u only through u mod q, so every query reads them from an int64 table
over residues: the weights from one np.gcd with q, each solvable
entry's v0 from one exact Python pow.  A range of a full period or more
(X >= q) reads the one table over all residues mod q, which depends on
(q, K mod q) alone, at the offset (U + 1) mod q; a shorter range has a
table of its own X integers.  The last table built is kept read-only,
so every query that reads it shares it: a report's count and main
term, the box and curve of one `hyperbola` query pair (same q, K and
X), and the upper and both lower counts of a casework column.  A box
sums the table as int64 arrays: each entry's points in the Y // q full
periods of v, plus one stride count in the rest of (V, V+Y], weighted
by how often each residue occurs.  A curve evaluates all u of (U, U+X]
as int64 arrays, one block of U_BLOCK at a time: the row limit
min(A // u, cap), the gather from the table and the stride count.  Its
float main term is still added in u order (np.cumsum adds sequentially,
np.sum would not), so it does not depend on the blocks or the table.

The array path needs int64 room, so both queries refuse q, A or U + X
at or above INT64_LIMIT = 2^62 with ValueError rather than wrap.  The
tables read K and U only mod q, and a box reads V and Y only mod q
(m divides q) and through the Python int Y // q, so K, V and Y are
unbounded; a sum that could reach 2^63 is taken in Python ints.  Each
curve quotient A / u is the correctly rounded float64 of two integers
below 2^53; above that, A is rounded to float64 first.

K = 0 needs no special case: every gcd(u, q) divides 0, so each u
carries its full gcd weight, and the bounds' D = gcd(0, q) is q.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from . import checked, lazy_import
from .reports import AsymptoticReport

np = lazy_import("numpy")

# Queries keep q, A and U + X below this, so the curve's int64 arrays
# (u, A // u, limit - v0) cannot wrap.
INT64_LIMIT = 1 << 62

# u values per array pass under a curve: a few MB of arrays at most.
U_BLOCK = 1 << 16


class Hyperbolic(NamedTuple):
    """Curve bound u -> A / u (A >= 0), capped at min(A / u, cap) when a
    cap is given."""

    A: int
    cap: int | None = None


@checked
class HyperbolaQuery(NamedTuple):
    K: int
    q: int
    U: int = 0
    V: int = 0
    X: int = 0
    Y: int = 0

    def _check(self):
        if self.q < 1:
            raise ValueError(f"modulus must be >= 1, got {self.q}")
        if self.X < 0 or self.Y < 0:
            raise ValueError("box side lengths must be non-negative")
        if max(self.q, self.U + self.X) >= INT64_LIMIT:
            raise ValueError("box queries need q and U + X below 2^62")


@checked
class CurveQuery(NamedTuple):
    K: int
    q: int
    U: int
    X: int
    bound: Hyperbolic

    def _check(self):
        if self.q < 1:
            raise ValueError(f"modulus must be >= 1, got {self.q}")
        if self.X < 0:
            raise ValueError("interval length must be non-negative")
        if self.bound.A < 0 or (self.bound.cap is not None and self.bound.cap < 0):
            raise ValueError("hyperbolic bound needs A >= 0 and cap >= 0")
        if self.U < 0:
            raise ValueError("curve interval needs U >= 0")
        if max(self.q, self.bound.A, self.U + self.X) >= INT64_LIMIT:
            raise ValueError("curve queries need q, A and U + X below 2^62")


@lru_cache(maxsize=1)
def _classes(u0: int, n: int, q: int, K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only int64 tables over the n <= q integers u0, u0 + 1, ...
    (0 <= u0, K < q).  The weight w is gcd(u, q) where it divides K,
    else 0; where w > 0, the solutions of u*v = K (mod q) are v = v0
    (mod m) with m = q // w, and elsewhere v0 = 0, m = q.  One np.gcd for
    the weights, one exact Python pow per solvable entry; the last table
    is kept."""
    g = np.gcd(np.arange(u0, u0 + n, dtype=np.int64), q)
    w = np.where(K % g == 0, g, 0)
    m = q // np.maximum(w, 1)
    v0 = np.zeros_like(m)
    i = np.flatnonzero(w)
    v0[i] = [
        K // g * pow((u0 + j) // g, -1, n) % n
        for j, g, n in zip(i.tolist(), w[i].tolist(), m[i].tolist())
    ]
    for table in (w, m, v0):
        table.flags.writeable = False
    return w, m, v0


def _table(U: int, X: int, q: int, K: int):
    """The residue tables that cover (U, U+X], and the shift s such that
    its j-th integer U + 1 + j has its entries at index (j + s) % q.  A
    range of X >= q reads the one table over all residues mod q, keyed
    by (q, K mod q) alone, at s = (U + 1) % q; a shorter range has a
    table of its own X integers, at s = 0.  U and K are taken mod q, so
    neither has to fit int64."""
    if X >= q:
        return _classes(0, q, q, K % q), (U + 1) % q
    return _classes((U + 1) % q, X, q, K % q), 0


def _count_ap(v0, m, lo, length):
    """Integers v = v0 (mod m) in (lo, lo + length], for ints or arrays."""
    return (lo + length - v0) // m - (lo - v0) // m


def _total(values: np.ndarray, bound: int) -> int:
    """Exact sum of an int64 array with entries in [0, bound]: in int64
    when it cannot reach 2^63, else in Python ints."""
    if len(values) * bound < 1 << 63:
        return int(values.sum())
    return sum(values.tolist())


def _class_total(table: np.ndarray, s: int, X: int, q: int) -> int:
    """Sum of a residue table's entries (each in [0, q]) over a length-X
    range that starts at index s: every index recurs X // q times, and
    the X % q indices s, s + 1, ... (mod q) once more."""
    full, extra = divmod(X, q)
    total = full * _total(table, q) if full else 0
    return total + _total(table[s : s + extra], q) + _total(table[: max(0, s + extra - q)], q)


def count_box(query: HyperbolaQuery) -> int:
    """Exact number of lattice points of the hyperbola in the box
    (U, U+X] x (V, V+Y]; O(min(X, q)) array work over the residue table.
    m divides q, so an entry of weight w counts w points in each of the
    Y // q full periods of v, and one stride count in (V mod q,
    V mod q + Y mod q]; V and Y are unbounded, and only Y // q is a
    Python int."""
    U, X, q, V, Y = query.U, query.X, query.q, query.V, query.Y
    (w, m, v0), s = _table(U, X, q, query.K)
    counts = np.where(w > 0, _count_ap(v0, m, V % q, Y % q), 0)
    return Y // q * _class_total(w, s, X, q) + _class_total(counts, s, X, q)


def main_term_box(query: HyperbolaQuery) -> float:
    """Main term (Y/q) * sum over r | K of r * #{u in range: gcd(u, q) = r},
    evaluated exactly over the per-residue table of gcd weights."""
    U, X, q = query.U, query.X, query.q
    (w, _, _), s = _table(U, X, q, query.K)
    return float(query.Y) * _class_total(w, s, X, q) / q


def error_bound_box(query: HyperbolaQuery, epsilon: float) -> float:
    """Nominal bound q^eps * (sqrt(q) + X*D/q + D) with D = gcd(K, q)."""
    q = query.q
    D = math.gcd(query.K, q)
    return q**epsilon * (math.sqrt(q) + float(query.X) * D / q + D)


def _u_blocks(U: int, X: int, q: int, s: int):
    """(u, i) int64 arrays over (U, U+X], U_BLOCK integers at a time: each
    u with the index (u - U - 1 + s) % q of its residue table entry."""
    for lo in range(0, X, U_BLOCK):
        offset = np.arange(lo, min(lo + U_BLOCK, X), dtype=np.int64)
        yield offset + (U + 1), (offset + s) % q


def count_under_curve(query: CurveQuery) -> int:
    """Exact number of lattice points with U < u <= U+X, 0 < v <= f(u) on
    the hyperbola, f(u) = min(A // u, cap); one stride count per u, all
    u of a block at once, with the residue classes gathered from the
    per-residue table."""
    U, X, q = query.U, query.X, query.q
    A, cap = query.bound.A, query.bound.cap
    (w, m, v0), s = _table(U, X, q, query.K)
    cap = A if cap is None else min(cap, A)  # A // u <= A, so a larger cap never binds
    total = 0
    for u, i in _u_blocks(U, X, q, s):
        counts = np.where(w[i] > 0, _count_ap(v0[i], m[i], 0, np.minimum(A // u, cap)), 0)
        total += _total(counts, cap + 1)
    return total


def main_term_curve(query: CurveQuery) -> float:
    """Main term (1/q) * sum r * f(u) over u with gcd(u, q) = r | K, minus
    the boundary correction X * delta_q(K) / 2, with f(u) = min(A / u, cap)."""
    U, X, q = query.U, query.X, query.q
    A, cap = query.bound.A, query.bound.cap
    (weights, _, _), shift = _table(U, X, q, query.K)
    s = 0.0
    for u, i in _u_blocks(U, X, q, shift):
        f = A / u if cap is None else np.minimum(A / u, min(cap, A))  # A / u <= A
        terms = weights[i] * f
        terms[0] += s
        s = float(np.cumsum(terms)[-1])  # in u order, one addition at a time
    correction = float(query.X) / 2 if query.K % query.q == 0 else 0.0
    return s / query.q - correction


def curvature_scale(query: CurveQuery) -> float:
    """Second-derivative scale L for a hyperbolic bound A/u: |f''| = 2A/u^3,
    so L is of order U^3/A, taken at the left endpoint (clamped to u >= 1).

    Only the order matters for the nominal bound, so a cap is ignored;
    A = 0 gives a flat curve and is reported as infinite L.
    """
    A = float(query.bound.A)
    if A == 0.0:
        return math.inf
    u0 = max(float(query.U), 1.0)
    return u0**3 / A


def error_bound_curve(query: CurveQuery, epsilon: float) -> float:
    """Nominal bound q^eps * (X*L^(-1/3) + D^(1/2)*L^(1/2)/q + sqrt(q) + D)."""
    q = query.q
    D = math.gcd(query.K, q)
    L = curvature_scale(query)
    X = float(query.X)
    if math.isinf(L):
        # flat bound: no curvature terms survive
        return q**epsilon * (math.sqrt(q) + D)
    return q**epsilon * (X * L ** (-1 / 3) + math.sqrt(D) * math.sqrt(L) / q + math.sqrt(q) + D)


def box_report(query: HyperbolaQuery, epsilon: float) -> AsymptoticReport:
    return AsymptoticReport(
        count_box(query), main_term_box(query), error_bound_box(query, epsilon)
    )


def curve_report(query: CurveQuery, epsilon: float) -> AsymptoticReport:
    return AsymptoticReport(
        count_under_curve(query), main_term_curve(query), error_bound_curve(query, epsilon)
    )
