"""Shared fixtures: cached restricted-divisor tables for the expensive
sweep sizes, built once per session, and a record of the hyperbola
module's residue-table builds."""

from functools import lru_cache

import pytest

from matcount import hyperbola
from matcount.tau_tables import TauTable, build_tau_table


@pytest.fixture(scope="session")
def tau_cache():
    """Memoized TauTable factory; large tables are built at most once."""
    cache: dict[int, TauTable] = {}

    def get(N: int) -> TauTable:
        if N not in cache:
            cache[N] = build_tau_table(N)
        return cache[N]

    return get


@pytest.fixture
def table_builds(monkeypatch):
    """(key, tables) of every residue table built while the test runs:
    hyperbola._classes is replaced by a cache of the same size around
    the same builder, which records each build (each cache miss)."""
    builds = []
    build = hyperbola._classes.__wrapped__

    def record(*key):
        builds.append((key, build(*key)))
        return builds[-1][1]

    monkeypatch.setattr(hyperbola, "_classes", lru_cache(maxsize=1)(record))
    return builds
