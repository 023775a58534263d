"""Elementary multiplicative number theory.

Provides divisor enumeration, prime factorization, the classical
arithmetic functions tau (divisor count), sigma (divisor sum), phi
(Euler totient) and mu (Moebius), and sieved phi and mu tables up to
a given limit, refused past errors.BYTE_BUDGET before they allocate.

All scalar arithmetic is plain Python integers, so intermediate products
never wrap; the phi table is an int64 numpy array whose entries are at
most the limit, and the mu table is int8.  Factorization is trial
division, so it refuses n > FACTORIZE_LIMIT rather than run for minutes,
and so does every function built on it, the divisor list included.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain, cycle

from . import lazy_import
from .errors import BudgetError, check_bytes

np = lazy_import("numpy")

# Largest n that factorize() accepts: trial division up to sqrt(10**14)
# takes under a second.
FACTORIZE_LIMIT = 10**14


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted ascending: each prime power p^e
    of n's factorization multiplies the list by 1, p, ..., p^e.  Rejects
    n <= 0, and n > FACTORIZE_LIMIT as factorize does."""
    if n <= 0:
        raise ValueError(f"divisors() requires n >= 1, got {n}")
    out = [1]
    for p, e in factorize(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs, ascending."""
    if n <= 0:
        raise ValueError(f"factorize() requires n >= 1, got {n}")
    if n > FACTORIZE_LIMIT:
        raise BudgetError(f"factorize(n={n}) exceeds the trial-division limit {FACTORIZE_LIMIT}")
    out: list[tuple[int, int]] = []
    # 2, 3, then the 6k +- 1 wheel 5, 7, 11, 13, ...
    for p in chain((2, 3), accumulate(cycle((2, 4)), initial=5)):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    if n > 1:
        out.append((n, 1))
    return out


def tau(n: int) -> int:
    """Number of positive divisors of n."""
    return math.prod(e + 1 for _, e in factorize(n))


def sigma(n: int) -> int:
    """Sum of positive divisors of n."""
    return math.prod((p ** (e + 1) - 1) // (p - 1) for p, e in factorize(n))


def phi(n: int) -> int:
    """Euler totient of n."""
    result = n
    for p, _ in factorize(n):
        result -= result // p
    return result


def mobius(n: int) -> int:
    """Moebius function: 0 if n has a square factor, else (-1)^(#prime factors)."""
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def _sieve_start(name: str, limit: int, cell_bytes: int) -> tuple[list[int], np.ndarray]:
    """The refusal that sieve and mobius_sieve share, at cell_bytes a cell,
    then the primes p <= sqrt(limit) and the int32 cofactor rest[n] = n."""
    if limit < 1:
        raise ValueError(f"{name}() requires limit >= 1, got {limit}")
    check_bytes(f"{name}(limit={limit})", cell_bytes * (limit + 1))
    root = math.isqrt(limit)
    is_prime = np.ones(root + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    rest = np.arange(limit + 1, dtype=np.int32)  # the budget keeps limit below 2^31
    return np.nonzero(is_prime)[0].tolist(), rest


def sieve(limit: int) -> np.ndarray:
    """Read-only int64 table of phi(n) for 0 <= n <= ``limit`` (phi[0] = 0).

    Only the primes p <= sqrt(limit) are sieved: each scales its
    multiples by 1 - 1/p, and every power of p is divided out of their
    cofactor.  What is left of n's cofactor is 1 or n's one prime factor
    q above sqrt(limit) (two would exceed the limit), and n is scaled by
    1 - 1/q last.  Agrees with the pointwise phi for every n <= limit.
    Its peak is 16 bytes a cell: the int64 table, the int32 cofactor and
    the int64 quotient of p = 2's multiples.
    """
    primes, rest = _sieve_start("sieve", limit, 16)
    table = np.arange(limit + 1, dtype=np.int64)
    for p in primes:
        table[p::p] -= table[p::p] // p
        power = p
        while power <= limit:
            rest[power::power] //= p
            power *= p
    large = rest > 1
    # table[n] is a multiple of q = rest[n]; scale it by (q - 1) / q in place
    np.floor_divide(table, rest, out=table, where=large)
    rest -= 1
    np.multiply(table, rest, out=table, where=large)
    table.flags.writeable = False
    return table


def mobius_sieve(limit: int) -> np.ndarray:
    """Read-only int8 table of mu(n) for 0 <= n <= ``limit`` (mu[0] = 0).

    Only the primes p <= sqrt(limit) are sieved: each flips the sign of
    its multiples, zeroes the multiples of p^2 and divides p out of their
    int32 cofactor once (a square factor has already zeroed mu).  An n
    whose cofactor stays above 1 has one more prime factor, above
    sqrt(limit) (two would exceed the limit), and gets one more sign flip.
    Its peak is 7 bytes a cell: the int8 table, the int32 cofactor, the
    bool mask of large cofactors and the int8 entries it selects.
    """
    primes, rest = _sieve_start("mobius_sieve", limit, 7)
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    for p in primes:
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
        rest[p::p] //= p
    mu[rest > 1] *= -1
    mu.flags.writeable = False
    return mu
