"""Elementary multiplicative functions against brute-force oracles."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from matcount import arith
from matcount.arith import (
    FACTORIZE_LIMIT,
    divisors,
    factorize,
    mobius,
    mobius_sieve,
    phi,
    sieve,
    sigma,
    tau,
)
from matcount.errors import BudgetError


def naive_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_divisors_small():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]


@pytest.mark.parametrize("bad", [0, -3])
def test_divisors_rejects(bad):
    with pytest.raises(ValueError):
        divisors(bad)


@given(st.integers(1, 3000))
def test_divisors_matches_naive(n):
    assert divisors(n) == naive_divisors(n)


def test_pointwise_values():
    assert tau(6) == 4
    assert sigma(6) == 12
    assert phi(1) == 1
    assert mobius(1) == 1
    assert mobius(12) == 0


def test_factorize_reassembles():
    for n in range(1, 500):
        assert math.prod(p**e for p, e in factorize(n)) == n


def naive_factorize(n):
    """(prime, exponent) pairs by trial division by every d >= 2."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def test_factorize_matches_naive_trial_division():
    for n in range(1, 10**5 + 1):
        assert factorize(n) == naive_factorize(n), n
    # primes = 5 and = 1 (mod 6), the two spokes of the wheel, near 10^6
    # (squares and products) and near the cube root of FACTORIZE_LIMIT
    for p, q in ((999983, 1000003), (46349, 46411)):
        assert (p % 6, q % 6) == (5, 1)
        assert naive_factorize(p) == [(p, 1)] and naive_factorize(q) == [(q, 1)]
        assert factorize(p * q) == [(p, 1), (q, 1)]
        for k in (2, 3):
            for prime in (p, q):
                if prime**k <= FACTORIZE_LIMIT:
                    assert factorize(prime**k) == [(prime, k)]


def test_factorize_budget():
    assert factorize(FACTORIZE_LIMIT) == [(2, 14), (5, 14)]
    for f in (factorize, tau, sigma, phi, mobius):
        with pytest.raises(BudgetError):
            f(FACTORIZE_LIMIT + 1)


def test_divisors_come_from_the_factorization():
    # no trial division up to sqrt(n): the list is built from n's primes,
    # so a large n costs as much as its factorization and no more
    t0 = time.perf_counter()
    ds = divisors(FACTORIZE_LIMIT)  # 2^14 * 5^14
    assert len(ds) == 225 and ds == sorted(ds) and all(FACTORIZE_LIMIT % d == 0 for d in ds)
    with pytest.raises(BudgetError):
        divisors(FACTORIZE_LIMIT + 1)
    assert time.perf_counter() - t0 < 0.5


def test_divisor_sum_identities():
    # sum phi(d) = n, sum mu(d) = [n == 1], sigma = sum of divisors
    for n in range(1, 10**4 + 1):
        ds = divisors(n)
        assert sum(phi(d) for d in ds) == n
        assert sum(mobius(d) for d in ds) == (1 if n == 1 else 0)
        assert sigma(n) == sum(ds)


def test_sieve_small_phi_table():
    t = sieve(10)
    assert t.dtype == np.int64
    assert list(t[1:]) == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]


def test_sieve_matches_pointwise():
    limit = 2000
    t = sieve(limit)
    rng = np.random.default_rng(7)
    for n in rng.integers(1, limit + 1, size=1000):
        n = int(n)
        assert t[n] == phi(n)


def sieve_by_every_prime(limit):
    """The phi sieve that scales the multiples of every prime up to the
    limit by 1 - 1/p, one strided update per prime."""
    table = np.arange(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            table[p::p] -= table[p::p] // p
    return table


def test_sieve_matches_the_every_prime_loop():
    # every limit below 200, and the limits around a prime square, where
    # one more prime joins the sieved ones
    limits = [*range(1, 200)]
    for p in (2, 3, 5, 7, 11, 13, 101, 211):
        limits += [p * p - 1, p * p, p * p + 1]
    for limit in limits:
        assert sieve(limit).tolist() == sieve_by_every_prime(limit).tolist(), limit


def test_sieve_prime_rows():
    t = sieve(100)
    for p in (2, 3, 5, 7, 97):
        assert t[p] == p - 1


def test_sieve_budget(monkeypatch):
    monkeypatch.setattr(arith, "CELL_BUDGET", 100)
    with pytest.raises(BudgetError):
        sieve(10**6)
    # the budget counts the limit + 1 cells of the phi table
    assert sieve(99).size == 100
    with pytest.raises(BudgetError):
        sieve(100)


def test_sieve_tables_read_only():
    t = sieve(50)
    with pytest.raises(ValueError):
        t[3] = 0
    with pytest.raises(ValueError):
        mobius_sieve(50)[3] = 0


def test_mobius_sieve_matches_pointwise():
    mu = mobius_sieve(10**4)
    assert mu.dtype == np.int8 and mu[0] == 0
    assert mu[1:].tolist() == [mobius(n) for n in range(1, 10**4 + 1)]
    # every limit, including those just below and at a prime square
    for limit in range(1, 60):
        assert mobius_sieve(limit).tolist() == mu[: limit + 1].tolist(), limit
    # the int8 table, an int32 cofactor and one bool mask: about 7 bytes a
    # cell, where an int64 running product and its arange took 18
    limit = 10**5
    tracemalloc.start()
    try:
        mobius_sieve(limit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * (limit + 1)


def test_mobius_sieve_domain(monkeypatch):
    with pytest.raises(ValueError):
        mobius_sieve(0)
    monkeypatch.setattr(arith, "CELL_BUDGET", 100)
    assert mobius_sieve(99).size == 100
    with pytest.raises(BudgetError):
        mobius_sieve(100)
