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
u only through u mod q, so each query tabulates them once over the first
min(X, q) integers of (U, U+X] as int64 arrays: the weights from one
np.gcd with q, each solvable entry's v0 from one exact Python pow.  A
box sums the table in Python ints, weighted by how often each residue
occurs.  A curve evaluates all u of (U, U+X] as int64 arrays, one
block of U_BLOCK at a time: the row limit min(A // u, cap), the gather
from the table and the stride count.  Its float main term is still
added in u order (np.cumsum adds sequentially, np.sum would not), so it
does not depend on the blocks or the table.

The array path needs int64 room, so both queries refuse q, A or U + X
at or above INT64_LIMIT = 2^62 with ValueError rather than wrap.  The
tables read K and U only mod q and a box counts in Python ints, so K, V
and Y are unbounded.  Each curve quotient A / u is the correctly
rounded float64 of two integers below 2^53; above that, A is rounded to
float64 first.

K = 0 needs no special case: every gcd(u, q) divides 0, so each u
carries its full gcd weight, and the bounds' D = gcd(0, q) is q.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import checked, lazy_import

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


class AsymptoticReport(NamedTuple):
    """Exact value vs. main term for one query or identity instance, with
    the nominal bound on their difference.  A zero bound normalizes a zero
    error to 0 and any other error to infinity."""

    exact: int | float
    main: float
    bound: float

    @property
    def error(self) -> float:
        return self.exact - self.main

    @property
    def normalized(self) -> float:
        if self.bound > 0:
            return abs(self.error) / self.bound
        return 0.0 if self.error == 0 else math.inf


def _weights(U: int, X: int, q: int, K: int) -> np.ndarray:
    """gcd(u, q) where it divides K, else 0, for the first min(X, q)
    integers u of (U, U+X]; any u of the range has its entry at index
    (u - U - 1) % q.  u runs from (U + 1) % q and K is taken mod q, so
    neither has to fit int64."""
    g = np.gcd(np.arange(min(X, q), dtype=np.int64) + (U + 1) % q, q)
    return np.where(K % q % g == 0, g, 0)


def _classes(U: int, X: int, q: int, K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The weights w of _weights and, where w > 0, the solutions
    v = v0 (mod m) of u*v = K (mod q) with m = q // w; v0 = 0, m = q where
    there are none.  One exact Python pow per solvable entry."""
    w = _weights(U, X, q, K)
    m = q // np.maximum(w, 1)
    v0 = np.zeros_like(m)
    K, u0 = K % q, (U + 1) % q
    i = np.flatnonzero(w)
    v0[i] = [
        K // g * pow((u0 + j) // g, -1, n) % n
        for j, g, n in zip(i.tolist(), w[i].tolist(), m[i].tolist())
    ]
    return w, m, v0


def _count_ap(v0, m, lo, length):
    """Integers v = v0 (mod m) in (lo, lo + length], for ints or arrays."""
    return (lo + length - v0) // m - (lo - v0) // m


def _class_total(values: list[int], X: int, q: int) -> int:
    """Sum of a residue table's entries over a length-X range, where
    index i recurs X // q + (i < X % q) times."""
    full, extra = divmod(X, q)
    return full * sum(values) + sum(values[:extra])


def count_box(query: HyperbolaQuery) -> int:
    """Exact number of lattice points of the hyperbola in the box
    (U, U+X] x (V, V+Y]; one stride count per entry of the per-residue
    table, in Python ints since V + Y is unbounded, so O(min(X, q)) work."""
    U, X, q = query.U, query.X, query.q
    w, m, v0 = _classes(U, X, q, query.K)
    counts = [
        _count_ap(a, b, query.V, query.Y) if g else 0
        for a, b, g in zip(v0.tolist(), m.tolist(), w.tolist())
    ]
    return _class_total(counts, X, q)


def main_term_box(query: HyperbolaQuery) -> float:
    """Main term (Y/q) * sum over r | K of r * #{u in range: gcd(u, q) = r},
    evaluated exactly over the per-residue table of gcd weights."""
    U, X, q = query.U, query.X, query.q
    s = _class_total(_weights(U, X, q, query.K).tolist(), X, q)
    return float(query.Y) * s / q


def error_bound_box(query: HyperbolaQuery, epsilon: float) -> float:
    """Nominal bound q^eps * (sqrt(q) + X*D/q + D) with D = gcd(K, q)."""
    q = query.q
    D = math.gcd(query.K, q)
    return q**epsilon * (math.sqrt(q) + float(query.X) * D / q + D)


def _u_blocks(U: int, X: int, q: int):
    """(u, i) int64 arrays over (U, U+X], U_BLOCK integers at a time: each
    u with the index (u - U - 1) % q of its residue table entry."""
    for lo in range(0, X, U_BLOCK):
        offset = np.arange(lo, min(lo + U_BLOCK, X), dtype=np.int64)
        yield offset + (U + 1), offset % q


def count_under_curve(query: CurveQuery) -> int:
    """Exact number of lattice points with U < u <= U+X, 0 < v <= f(u) on
    the hyperbola, f(u) = min(A // u, cap); one stride count per u, all
    u of a block at once, with the residue classes gathered from the
    per-residue table."""
    U, X, q = query.U, query.X, query.q
    A, cap = query.bound.A, query.bound.cap
    w, m, v0 = _classes(U, X, q, query.K)
    cap = A if cap is None else min(cap, A)  # A // u <= A, so a larger cap never binds
    total = 0
    for u, i in _u_blocks(U, X, q):
        counts = _count_ap(v0[i], m[i], 0, np.minimum(A // u, cap))
        total += sum(counts[w[i] > 0].tolist())  # Python ints: no int64 sum
    return total


def main_term_curve(query: CurveQuery) -> float:
    """Main term (1/q) * sum r * f(u) over u with gcd(u, q) = r | K, minus
    the boundary correction X * delta_q(K) / 2, with f(u) = min(A / u, cap)."""
    U, X, q = query.U, query.X, query.q
    A, cap = query.bound.A, query.bound.cap
    weights = _weights(U, X, q, query.K)
    s = 0.0
    for u, i in _u_blocks(U, X, q):
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
