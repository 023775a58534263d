"""Summation identities against independent naive double loops, plus the
envelope and divisor-tail inequalities."""

import cProfile
import math
import pstats
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matcount.arith import mobius, tau
from matcount.cli import lemma_grid_rows
from matcount.errors import BudgetError
from matcount.lemmas import (
    SIX_OVER_PI2,
    coprime_count,
    coprime_count_report,
    coprime_counts,
    divisor_tail,
    gcd_power_report,
    gcd_power_sum,
    phi_over_square_sum,
    phi_ratio_sum,
    xy_sum,
)
from matcount.rng import SplitMix64

REL = 1e-9


def naive_xy_sum(variant, X, Y, r):
    total = []
    Xi = math.floor(X)
    if variant == 1:
        for x in range(1, Xi + 1):
            for y in range(1, Xi + 1):
                if math.gcd(x, y) == r:
                    total.append(r / (x * y))
    elif variant == 2:
        for x in range(1, Xi + 1):
            for y in range(1, math.ceil(x + Y)):
                if y < x + Y and math.gcd(x, y) == r:
                    total.append(r / x)
    elif variant == 3:
        for y in range(1, Xi + 1):
            for x in range(1, y + 1):
                if x + Y < y and math.gcd(x, y) == r:
                    total.append(r / y)
    else:
        for x in range(1, Xi + 1):
            for y in range(1, math.floor(Y) + 1):
                if math.gcd(x, y) == r:
                    total.append(r / y)
    return math.fsum(total)


def test_gcd_power_sum_values():
    assert gcd_power_sum(3, 1, 0, 1) == 3
    assert gcd_power_sum(4, 2, 0, 1) == 6
    with pytest.raises(ValueError):
        gcd_power_sum(4, 2, 0, 1.5)


def test_gcd_power_envelope():
    rep = gcd_power_report(1000, 720, 0.5, 1.0)
    assert rep.exact <= 10 * 1000**1.5 * (1000 * 720) ** 0.05
    assert rep.main == 0.0
    assert rep.normalized < 10


def test_phi_sums_small():
    assert phi_ratio_sum(1) == 1.0
    assert phi_over_square_sum(1) == 1.0
    assert phi_ratio_sum(4) == pytest.approx(8 / 3, rel=REL)


def naive_phi_ratio(X, square):
    out = []
    for n in range(1, X + 1):
        p = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        out.append(p / (n * n if square else n))
    return math.fsum(out)


def test_phi_sums_match_naive():
    for X in (1, 7, 50, 300):
        assert phi_ratio_sum(X) == pytest.approx(naive_phi_ratio(X, False), rel=REL)
        assert phi_over_square_sum(X) == pytest.approx(naive_phi_ratio(X, True), rel=REL)


def test_phi_ratio_envelope_large():
    X = 10**5
    assert abs(phi_ratio_sum(X) - SIX_OVER_PI2 * X) <= 20 * math.log(X)
    assert abs(phi_over_square_sum(X) - SIX_OVER_PI2 * math.log(X)) <= 2


def test_coprime_count_values():
    assert coprime_count(10, 1) == 10
    assert coprime_count(10, 6) == 3
    assert coprime_count(0, 5) == 0
    assert coprime_count(Fraction(7, 2), 2) == 2  # x in {1, 3}


def _largest_prime_factor(y):
    p, largest = 2, 1
    while p * p <= y:
        while y % p == 0:
            y //= p
            largest = p
        p += 1
    return max(largest, y)


# Beside uniform Y, the factorizations with repeated or many primes: prime
# powers, and every product of primes up to 13.
_Y = st.one_of(
    st.integers(1, 5000),
    st.sampled_from([y for y in range(2, 5001) if _largest_prime_factor(y) <= 13]),
    st.sampled_from([p**e for p in range(2, 71) if _largest_prime_factor(p) == p
                     for e in range(2, 13) if p**e <= 5000]),
)


@given(
    st.one_of(st.integers(-3, 300), st.fractions(Fraction(-3), Fraction(300), max_denominator=50)),
    _Y,
)
@settings(max_examples=300, deadline=None)
def test_coprime_count_matches_brute_force(X, Y):
    expect = sum(1 for x in range(1, math.floor(X) + 1) if math.gcd(x, Y) == 1)
    assert coprime_count(X, Y) == expect


def test_coprime_count_error_constant():
    rng = SplitMix64(99)
    from matcount.arith import phi

    for _ in range(500):
        X = rng.randint(1, 10**4)
        Y = rng.randint(1, 10**3)
        exact = coprime_count(X, Y)
        assert exact == sum(1 for x in range(1, X + 1) if math.gcd(x, Y) == 1)
        assert abs(exact - X * phi(Y) / Y) <= tau(Y)
        assert coprime_count_report(X, Y).normalized <= 1 + 1e-12


@given(
    st.integers(1, 3000).flatmap(
        lambda M: st.tuples(st.just(M), st.integers(-5, 5), st.integers(-M, 2 * M))
    ),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_coprime_counts_match_the_scalar_count(case, seed):
    """The batch counts equal coprime_count at every y <= M, for bounds
    that follow y (as in variants 2 and 3), random bounds, and bounds <= 0."""
    M, shift, spread = case
    rng = np.random.default_rng(seed)
    y = np.arange(M + 1)
    for bounds in (y + shift, rng.integers(-3, max(spread, 0) + 1, M + 1), np.full(M + 1, spread)):
        counts = coprime_counts(bounds)
        assert counts[0] == 0
        assert counts[1:].tolist() == [coprime_count(int(bounds[n]), n) for n in range(1, M + 1)]


def test_coprime_counts_smallest_tables():
    assert coprime_counts(np.array([0, 5])).tolist() == [0, 5]
    assert coprime_counts(np.array([9, 0])).tolist() == [0, 0]
    assert coprime_counts(np.array([0, -4, 7])).tolist() == [0, 0, 4]


def per_x_reference(variant, X, Y, r):
    """The per-x' loop the batch counts replace: one scalar coprime count
    per x' (or y'), each term a Python int/int quotient, fsum-added.
    Variant 1's per-d loop is inline in the test below."""
    Xp = X // r
    if variant == 2:
        return math.fsum(coprime_count((xp * r + Y - 1) // r, xp) / xp for xp in range(1, Xp + 1))
    if variant == 3:
        return math.fsum(coprime_count((yp * r - Y - 1) // r, yp) / yp for yp in range(1, Xp + 1))
    return math.fsum(coprime_count(Xp, yp) / yp for yp in range(1, Y // r + 1))


def test_xy_sum_is_bit_identical_to_the_per_x_loop():
    rng = SplitMix64(2024)
    for _ in range(200):
        X = rng.randint(1, 1500)
        r = rng.randint(1, min(X, 12))
        for variant in (2, 3, 4):
            Y = rng.randint(r, X) if variant == 4 else rng.randint(0, X)
            assert xy_sum(variant, X, Y, r).exact == per_x_reference(variant, X, Y, r), (
                variant, X, Y, r)
    for X, r in ((1, 1), (600, 2), (997, 1), (5000, 7)):
        Xp, d_terms = X // r, []
        for d in range(1, Xp + 1):
            h = math.fsum(1.0 / (d * m) for m in range(1, Xp // d + 1))
            d_terms.append(mobius(d) * h * h)
        assert xy_sum(1, X, 0, r).exact == math.fsum(d_terms) / r, (X, r)


def test_lemma_grid_factorizes_only_the_coprime_rows():
    """The grid reads mu from one sieve per evaluator: factorize runs only
    for coprime_count_report's Y = 360, three times per X (the count, phi
    and tau), where the per-call Moebius sums made 69,927 calls."""
    profile = cProfile.Profile()
    profile.runcall(lemma_grid_rows)
    calls = sum(
        stat[1] for (path, _, name), stat in pstats.Stats(profile).stats.items()
        if name == "factorize" and path.endswith("arith.py")
    )
    assert calls <= 9


def test_xy_sum_domain_edge():
    """Below 2^53 every bound fits int64 and every count is exact in
    float64; at 2^53 the evaluator refuses."""
    assert xy_sum(2, 7, 2**53 - 1, 1).exact == per_x_reference(2, 7, 2**53 - 1, 1)
    with pytest.raises(ValueError, match="2\\^53"):
        xy_sum(2, 7, 2**53, 1)
    with pytest.raises(ValueError, match="2\\^53"):
        xy_sum(4, 2**53, 1, 1)


def test_xy_sum_matches_naive_grid():
    for X in (1, 3, 10, 47, 300):
        for r in (1, 2, 7, 10):
            if r > X:
                continue
            for Y in (0, 1, X // 2, X):
                assert xy_sum(1, X, 0, r).exact == pytest.approx(
                    naive_xy_sum(1, X, 0, r), rel=REL, abs=1e-12
                )
                assert xy_sum(2, X, Y, r).exact == pytest.approx(
                    naive_xy_sum(2, X, Y, r), rel=REL, abs=1e-12
                )
                assert xy_sum(3, X, Y, r).exact == pytest.approx(
                    naive_xy_sum(3, X, Y, r), rel=REL, abs=1e-12
                )
                if Y >= r:
                    assert xy_sum(4, X, Y, r).exact == pytest.approx(
                        naive_xy_sum(4, X, Y, r), rel=REL, abs=1e-12
                    )


def test_xy_sum_edge_and_envelopes():
    edge = xy_sum(1, 5, 0, 5)
    assert edge.exact == pytest.approx(1 / 5)
    assert edge.main == 0.0

    big = xy_sum(1, 100, 0, 1)
    assert abs(big.exact - SIX_OVER_PI2 * math.log(100) ** 2) <= 20 * math.log(100)

    v4 = xy_sum(4, 100, 100, 2)
    assert abs(v4.exact - SIX_OVER_PI2 * 50 * math.log(50)) <= 20 * 50


def test_xy_sum_rejects_bad_hypotheses():
    with pytest.raises(ValueError):
        xy_sum(1, 3, 0, 5)  # r > X
    with pytest.raises(ValueError):
        xy_sum(3, 10, 20, 1)  # Y > X
    with pytest.raises(ValueError):
        xy_sum(4, 10, 1, 2)  # Y < r
    with pytest.raises(ValueError):
        xy_sum(5, 10, 1, 1)
    # integer-only endpoints
    with pytest.raises(ValueError):
        xy_sum(2, 10.5, 3, 1)
    with pytest.raises(ValueError):
        xy_sum(4, 10, Fraction(7, 2), 1)
    # where two hypotheses fail, the check common to several variants
    # speaks first, and an unknown variant is named before its r > X
    for args, message in (
        ((3, 10, 20, 11), "xy_sum() variant 3 requires r <= X"),  # and Y > X
        ((4, 10, -1, 2), "xy_sum() requires Y >= 0"),  # and Y < r
        ((0, 3, 0, 5), "xy_sum() variant must be 1..4, got 0"),
        ((5, 3, 0, 5), "xy_sum() variant must be 1..4, got 5"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            xy_sum(*args)


def test_divisor_tail_values():
    partial, full = divisor_tail(6, 6)
    assert partial == full == 2
    partial, full = divisor_tail(6, 2)
    assert partial == Fraction(3, 2) and full == 2
    partial, full = divisor_tail(7, 11)
    assert partial == full == Fraction(8, 7)


def test_divisor_tail_past_the_factorize_limit_raises_at_once():
    # sigma refuses delta > FACTORIZE_LIMIT, and divisors, read first,
    # refuses it as soon as factorize does, not after sqrt(delta) steps
    t0 = time.perf_counter()
    with pytest.raises(BudgetError):
        divisor_tail(10**20, 5)
    assert time.perf_counter() - t0 < 0.5


def test_divisor_tail_inequality_exact():
    for H in (10, 100, 1000):
        for delta in range(1, 2001):
            partial, full = divisor_tail(delta, H)
            gap = full - partial
            assert 0 <= gap <= Fraction(tau(delta), H), (delta, H)
