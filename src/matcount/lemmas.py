"""Exact evaluators for the summation identities behind the 6/pi^2
constants, with their main terms and error envelopes.

Covered: the gcd-power partial sum upper bound, the totient ratio sums
sum phi(n)/n and sum phi(n)/n^2, the coprime counting function, four
pair sums over gcd(x, y) = r, and the truncated divisor sum
sum_{r | delta, r <= H} 1/r against sigma(delta)/delta.

The one-Y coprime count runs the Moebius sum over the products of prime
subsets of Y, read off one factorization.  The pair sums need a count
for every y up to M, so `coprime_counts` gets them all at once from one
sieved mu table (`arith.mobius_sieve`), in about 2 sqrt(M) numpy calls,
for one row of bounds or a 2-D stack of rows in the same calls;
the sum of r/(x y) reads its mu from the same table, and the totient
ratio sums divide the sieved phi table in numpy.  `xy_sums` evaluates
many pair sums of one X from one mu table, one coprime_counts pass per
M for all the sums whose counts run to M (the lemma grid's variants 2,
3 and 4 at each r); `xy_sum` is one of them.  No evaluator factorizes
per term.  Each term is one int/int quotient, and while both
integers are below 2^53 (n^2 in sum phi(n)/n^2 passes it past
n = 9.4 * 10^7) numpy rounds it as Python does; math.fsum makes the
order of terms irrelevant, so the values are those of per-term loops.
The pair sums take integer X, Y and r only, X and Y below
PAIR_SUM_LIMIT = 2^53, so every strict bound y < x + Y/r is an integer
floor that fits int64.

Every evaluator is exact up to floating-point rounding; sums are
accumulated with math.fsum, and the tests compare against independent
naive double loops at 1e-9 relative.  Envelopes are the stated O-terms
with constant 1, and each report carries its envelope as the bound, so
the normalized error |error| / envelope is a direct regression statistic.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import lazy_import
from .arith import divisors, factorize, mobius_sieve, phi, sieve, sigma, tau
from .reports import AsymptoticReport

np = lazy_import("numpy")
fractions = lazy_import("fractions")  # only divisor_tail builds a Fraction

SIX_OVER_PI2 = 6.0 / math.pi**2

# The epsilon of the gcd-power bound K^(A+1+eps) L^eps.
GCD_POWER_EPS = 0.05

# xy_sum's X and Y stay below 2^53: every bound then fits int64, and every
# count and y' converts to float64 exactly, so count / y' rounds once.
PAIR_SUM_LIMIT = 1 << 53


def gcd_power_sum(K: int, L: int, A: float, B: float) -> float:
    """Exact sum of c^A * gcd(c, L)^B over 1 <= c <= K; requires B <= 1."""
    if K < 1 or L < 1:
        raise ValueError("gcd_power_sum() requires K, L >= 1")
    if B > 1:
        raise ValueError(f"gcd_power_sum() requires B <= 1, got {B}")
    return math.fsum(c**A * math.gcd(c, L) ** B for c in range(1, K + 1))


def gcd_power_report(K: int, L: int, A: float, B: float) -> AsymptoticReport:
    """Upper-bound report: main = 0, envelope = K^(A+1+eps) * L^eps with
    eps = GCD_POWER_EPS.

    This identity is a bound, not an asymptotic, so the whole sum is the
    'error' and the report checks it stays under the envelope.
    """
    exact = gcd_power_sum(K, L, A, B)
    envelope = K ** (A + 1 + GCD_POWER_EPS) * L**GCD_POWER_EPS
    return AsymptoticReport(exact, 0.0, envelope)


def phi_ratio_sum(X: int) -> float:
    """Exact sum of phi(n)/n over 1 <= n <= X."""
    if X < 1:
        raise ValueError(f"phi_ratio_sum() requires X >= 1, got {X}")
    n = np.arange(1, X + 1, dtype=np.int64)
    return math.fsum((sieve(X)[1:] / n).tolist())


def phi_over_square_sum(X: int) -> float:
    """Exact sum of phi(n)/n^2 over 1 <= n <= X."""
    if X < 1:
        raise ValueError(f"phi_over_square_sum() requires X >= 1, got {X}")
    n = np.arange(1, X + 1, dtype=np.int64)
    return math.fsum((sieve(X)[1:] / (n * n)).tolist())


def phi_ratio_report(X: int) -> AsymptoticReport:
    """sum phi(n)/n = (6/pi^2) X + O(log X)."""
    envelope = max(math.log(X), 1.0)
    return AsymptoticReport(phi_ratio_sum(X), SIX_OVER_PI2 * X, envelope)


def phi_over_square_report(X: int) -> AsymptoticReport:
    """sum phi(n)/n^2 = (6/pi^2) log X + O(1)."""
    return AsymptoticReport(phi_over_square_sum(X), SIX_OVER_PI2 * math.log(X), 1.0)


def _signed_squarefree_divisors(n: int) -> list[tuple[int, int]]:
    """Pairs (d, mu(d)) over the squarefree divisors d of n, the only
    divisors where mu is nonzero: each prime p of n doubles the list with
    (d*p, -mu(d))."""
    out = [(1, 1)]
    for p, _ in factorize(n):
        out += [(d * p, -s) for d, s in out]
    return out


def coprime_count(X, Y: int) -> int:
    """Exact #{0 < x <= X integer: gcd(x, Y) = 1} via Moebius over the
    squarefree d | Y, taken from one factorization of Y.

    X may be any real (int, float or Fraction); it is floored once, and the
    floor is exact for int and Fraction arguments.
    """
    if Y < 1:
        raise ValueError(f"coprime_count() requires Y >= 1, got {Y}")
    n = math.floor(X)  # x <= X  <=>  x <= floor(X)
    if n <= 0:
        return 0
    return sum(s * (n // d) for d, s in _signed_squarefree_divisors(Y))


def coprime_count_report(X, Y: int) -> AsymptoticReport:
    """Exact count vs. X * phi(Y) / Y with envelope tau(Y); the Moebius
    proof gives the error constant 1."""
    exact = float(coprime_count(X, Y))
    main = float(X) * phi(Y) / Y
    return AsymptoticReport(exact, main, float(tau(Y)))


def coprime_counts(bounds: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Every count #{0 < x <= bounds[..., y] integer: gcd(x, y) = 1} for
    1 <= y <= M = bounds.shape[-1] - 1 at once, as an int64 array of the
    shape of bounds indexed by y in its last axis (entry 0 is 0).  The
    bounds are integers, one row or a 2-D stack of rows that share one
    pass; a bound <= 0 counts nothing.  mu is a Moebius table of at
    least M + 1 entries (arith.mobius_sieve).

    The Moebius sum over d | y splits at s = isqrt(M), as in Dirichlet's
    hyperbola method: a squarefree d <= s reaches all its multiples
    y = d k with one strided slice, and the squarefree d > s meet y = d k
    only at k <= M // (s + 1), so each such k gathers all of them at
    once.  That is about 2 sqrt(M) numpy calls on O(M) memory per row.
    """
    b = np.maximum(np.asarray(bounds, dtype=np.int64), 0)
    M = b.shape[-1] - 1
    mu = mu[: M + 1]
    s = math.isqrt(M)
    counts = np.zeros(b.shape, dtype=np.int64)
    for d in np.flatnonzero(mu[: s + 1]).tolist():
        counts[..., d::d] += int(mu[d]) * (b[..., d::d] // d)
    large = np.flatnonzero(mu[s + 1 :]) + (s + 1)
    sign = mu[large].astype(np.int64)
    for k in range(1, M // (s + 1) + 1):
        n = int(np.searchsorted(large, M // k, side="right"))
        y = large[:n] * k
        counts[..., y] += sign[:n] * (b[..., y] // large[:n])
    return counts


def _reciprocal_pair_sum(Xp: int, mu: np.ndarray) -> float:
    """sum 1/(x y) over 0 < x, y <= Xp with gcd(x, y) = 1, from a Moebius
    table mu of at least Xp + 1 entries: mu(d) h(d)^2 over squarefree d,
    h(d) = sum_{m <= Xp/d} 1/(d m); the d sharing n = Xp // d fill one
    n-column array of 1/(d m).  A row of one or two terms is summed as
    an array: fsum of two floats is their one rounded sum."""
    terms = []
    d = 1
    while d <= Xp:
        n = Xp // d
        last = Xp // n
        ds = np.flatnonzero(mu[d : last + 1]) + d
        recip = 1.0 / np.outer(ds, np.arange(1, n + 1))
        if n <= 2:
            h = recip.sum(axis=1)
        else:
            h = np.array([math.fsum(row) for row in recip.tolist()])
        terms += (mu[ds] * h * h).tolist()
        d = last + 1
    return math.fsum(terms)


class _PairSum(NamedTuple):
    """One pair sum: its reduced range Xp = X // r, the integer bounds
    slope * y' + shift of its coprime counts at 0 <= y' <= M (slope None
    for variant 1, which reads mu up to M = Xp and no count), and its
    report's main term and envelope."""

    r: int
    Xp: int
    M: int
    slope: int | None
    shift: int
    main: float
    envelope: float


def _pair_sum(variant: int, X: int, Y: int, r: int) -> _PairSum:
    """xy_sum's checks, then the terms of its variant."""
    if not all(isinstance(v, int) for v in (X, Y, r)):
        raise ValueError("xy_sum() requires integer X, Y and r")
    if r < 1:
        raise ValueError(f"xy_sum() requires r >= 1, got {r}")
    if max(X, Y) >= PAIR_SUM_LIMIT:
        raise ValueError("xy_sum() requires X and Y below 2^53")
    if variant in (1, 2, 3) and not r <= X:
        raise ValueError(f"xy_sum() variant {variant} requires r <= X")
    if variant in (2, 3, 4) and Y < 0:
        raise ValueError("xy_sum() requires Y >= 0")

    Xp = X // r  # x = r x', x' <= X/r
    Xr = float(X) / r
    logXr = math.log(Xr) if Xr > 0 else 0.0
    if variant == 1:
        # sum r/(x y) over 0 < x, y <= X with gcd(x, y) = r
        return _PairSum(r, Xp, Xp, None, 0, SIX_OVER_PI2 * logXr**2 / r, logXr / r)
    elif variant == 2:
        # sum r/x over 0 < x <= X, 0 < y < x + Y, gcd(x, y) = r
        M, slope, shift = Xp, 1, (Y - 1) // r  # y' < x' + Y/r
        main = SIX_OVER_PI2 * (Xr + (float(Y) / r) * logXr)
        envelope = float(Y) / r + logXr**2
    elif variant == 3:
        # sum r/y over x + Y < y <= X, 0 < x, gcd(x, y) = r
        if not Y <= X:
            raise ValueError("xy_sum() variant 3 requires Y <= X")
        M, slope, shift = Xp, 1, (-Y - 1) // r  # x' < y' - Y/r
        ylog = (float(Y) / r) * math.log(float(X) / float(Y)) if Y > 0 else 0.0
        main = SIX_OVER_PI2 * ((float(X) - float(Y)) / r + ylog)
        envelope = float(Y) / r + logXr**2
    elif variant == 4:
        # sum r/y over 0 < x <= X, 0 < y <= Y, gcd(x, y) = r
        if not (X > 0 and Y >= r):
            raise ValueError("xy_sum() variant 4 requires X > 0 and Y >= r")
        M, slope, shift = Y // r, 0, Xp
        main = SIX_OVER_PI2 * Xr * math.log(float(Y) / r)
        envelope = Xr
    else:
        raise ValueError(f"xy_sum() variant must be 1..4, got {variant}")
    return _PairSum(r, Xp, M, slope, shift, main, envelope)


def xy_sum(variant: int, X: int, Y: int, r: int) -> AsymptoticReport:
    """Pair sums over gcd(x, y) = r with their main terms; X, Y and r are
    integers, so every strict bound is an integer floor.

    variant 1: sum r/(xy), 0 < x, y <= X;
               main (6/pi^2)(1/r) log^2(X/r), envelope (1/r) log(X/r).
    variant 2: sum r/x, 0 < x <= X, 0 < y < x + Y;
               main (6/pi^2)(X/r + (Y/r) log(X/r)), envelope Y/r + log^2(X/r).
    variant 3: sum r/y, x + Y < y <= X (upper bound taken weakly, matching
               the telescoped proof), 0 < x; requires Y <= X;
               main (6/pi^2)((X-Y)/r + (Y/r) log(X/Y)), envelope as variant 2.
    variant 4: sum r/y over the box 0 < x <= X, 0 < y <= Y; requires Y >= r;
               main (6/pi^2)(X/r) log(Y/r), envelope X/r.
    """
    return xy_sums(X, (r,), ((variant, Y),))[0]


def xy_sums(X: int, rs, cases) -> list[AsymptoticReport]:
    """xy_sum(variant, X, Y, r) for each r of rs and each (variant, Y) of
    cases, in that order, every argument checked before any work, from
    one Moebius table: the sums whose coprime counts run to the same M
    share one coprime_counts pass, their bound rows stacked as a 2-D
    bounds built for that pass alone."""
    sums = [_pair_sum(variant, X, Y, r) for r in rs for variant, Y in cases]
    mu = mobius_sieve(max(p.M for p in sums))
    exact = {}
    passes: dict[int, list[int]] = {}
    for k, p in enumerate(sums):
        if p.slope is None:
            exact[k] = _reciprocal_pair_sum(p.Xp, mu) / p.r
        else:
            passes.setdefault(p.M, []).append(k)
    for M, ks in passes.items():
        y = np.arange(M + 1, dtype=np.int64)
        slope, shift = (np.array([[getattr(sums[k], f)] for k in ks]) for f in ("slope", "shift"))
        for k, row in zip(ks, coprime_counts(y * slope + shift, mu)):
            # count / y' is one correctly rounded quotient, as in Python
            exact[k] = math.fsum((row[1:] / y[1:]).tolist())
    return [AsymptoticReport(exact[k], p.main, p.envelope) for k, p in enumerate(sums)]


def divisor_tail(delta: int, H: int) -> tuple[fractions.Fraction, fractions.Fraction]:
    """(partial, full) with partial = sum 1/r over r | delta, r <= H, and
    full = sigma(delta)/delta; exact rationals, 0 <= full - partial <= tau/H."""
    if delta < 1 or H < 1:
        raise ValueError("divisor_tail() requires delta, H >= 1")
    partial = sum(
        (fractions.Fraction(1, r) for r in divisors(delta) if r <= H),
        start=fractions.Fraction(0),
    )
    full = fractions.Fraction(sigma(delta), delta)
    return partial, full
