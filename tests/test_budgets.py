"""The one memory budget, errors.BYTE_BUDGET: each allocation site that
plans its peak stays within its plan, runs at a budget of exactly that
plan, and one byte below it refuses before it allocates."""

import re
import tracemalloc

import pytest

from matcount import errors, exact, tau_tables
from matcount.arith import mobius_sieve, sieve
from matcount.errors import BudgetError
from matcount.exact import SignClass


def naive_count(H):
    exact._det_histogram_2x2.cache_clear()  # a cached histogram allocates nothing
    return exact.naive_count(H, 1)


def sign_class_count(H):
    return exact.sign_class_count(H, 1, SignClass(1, 1, 1))


# name: (the call at one size, its planned peak in bytes, three sizes).
# Each plan is restated here from the site's docstring.
SITES = {
    "sieve": (sieve, lambda limit: 16 * (limit + 1), (10**3, 10**5, 10**6)),
    "mobius_sieve": (mobius_sieve, lambda limit: 7 * (limit + 1), (10**3, 10**5, 10**6)),
    # the first size takes the list route, the others numpy
    "square_sum": (tau_tables.square_sum, lambda N: tau_tables._square_sum_plan(N)[2],
                   (10**5, 10**6, 10**8)),
    "sign_class_count": (sign_class_count, lambda H: 16 * H * H + 8 * H + 8, (10, 100, 1000)),
    "naive_count": (naive_count,
                    lambda H: 8 * ((2 * H + 1) ** 3 + 2 * (4 * H * H + 1) + (2 * H + 1) ** 2
                                   + 2 * H + 1),
                    (2, 10, 40)),
}


def traced(call, size):
    """The tracemalloc peak of call(size) in bytes, and the BudgetError
    it raised, or None."""
    tracemalloc.start()
    try:
        call(size)
        refusal = None
    except BudgetError as exc:
        refusal = exc
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak, refusal


@pytest.mark.parametrize("name", SITES)
def test_a_planned_site_keeps_to_its_plan(name, monkeypatch):
    call, plan, sizes = SITES[name]
    call(sizes[0])  # warm-up: imports and first-call setup
    for size in sizes:
        peak, refusal = traced(call, size)
        assert refusal is None and peak <= plan(size) + (64 << 10), (size, peak, plan(size))
        monkeypatch.setattr(errors, "BYTE_BUDGET", plan(size))
        assert traced(call, size)[1] is None, size
        monkeypatch.setattr(errors, "BYTE_BUDGET", plan(size) - 1)
        peak, refusal = traced(call, size)
        assert re.fullmatch(rf"{name}\(\w+={size}\) needs {plan(size)} bytes, "
                            rf"budget is {plan(size) - 1}", str(refusal)), refusal
        assert peak < 1 << 20
        monkeypatch.undo()
