"""Exact counting of 2x2 integer matrices with bounded entries and fixed
determinant, together with the supporting machinery: a totient sieve,
restricted divisor tables, modular-hyperbola point counts,
sign-class/region decompositions, summation identities, and asymptotic
main-term validation sweeps."""

__version__ = "0.1.0"
