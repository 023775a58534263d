"""Exceptions mapped to CLI exit codes, the one memory budget and its
check, and the one-line message of an import that fails."""


class UsageError(ValueError):
    """Invalid user-supplied configuration (CLI exit code 1)."""


class BudgetError(MemoryError):
    """An operation would exceed the configured memory/size budget (exit code 2)."""


# The one memory budget: the bytes one call may hold at its peak,
# transient copies included.
BYTE_BUDGET = 1 << 27


def check_bytes(call: str, planned: int) -> None:
    """Refuse call, before it allocates anything, when its planned peak
    of bytes exceeds BYTE_BUDGET, read when the check runs."""
    if planned > BYTE_BUDGET:
        raise BudgetError(f"{call} needs {planned} bytes, budget is {BYTE_BUDGET}")


class InvariantError(AssertionError):
    """An internal exact identity failed; signals an implementation bug (exit code 3)."""


def import_failure(exc: ImportError) -> str:
    """'<module>: <line>' for an import that failed once its module was
    found (exit code 2): the outermost module body on the traceback (or
    the raising frame's module), and the first non-blank line of the
    innermost cause; numpy's own message opens with a blank line."""
    tb = exc.__traceback__
    while tb.tb_next and tb.tb_frame.f_code.co_name != "<module>":
        tb = tb.tb_next
    while exc.__cause__ is not None:
        exc = exc.__cause__
    line = next((line for line in str(exc).splitlines() if line.strip()), type(exc).__name__)
    return f"{tb.tb_frame.f_globals['__name__']}: {line}"
