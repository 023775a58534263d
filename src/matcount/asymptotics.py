"""Main-term formulas for the counting asymptotics, exact-vs-main
reports, and log-log regression of error exponents over sweeps.

Main terms ("log" is always the natural logarithm):

  report, delta != 0      (96/pi^2) (sigma(|delta|)/|delta|) H^2
  report, delta = 0       (96/pi^2) H^2 (ln H + DELTA0_K)
  SHIFTED_LOG_CANDIDATE   (12/pi^2) (sigma(|delta|)/|delta|) N^2 ln N
  SHIFTED_NOLOG_CANDIDATE (12/pi^2) (sigma(|delta|)/|delta|) N^2

The two SHIFTED kinds are rival main terms for the shifted convolution
sum tau_N(n) tau_N(n + delta): the literature-style statement carries a
log factor while the sign-class identity forces a log-free leading
order.  Neither is hard-coded as truth; ``shifted_verdict`` fits the
exact sums and reports which candidate survives.

Both fits are closed-form least-squares lines over exact Python int sums
(``_line``), so no fit imports numpy.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .arith import sigma
from .reports import AsymptoticReport
from .tau_tables import TauTable, TauWindows, shifted_sum
from .exact import DeltaSums, fast_count

COEFF_96 = 96.0 / math.pi**2
COEFF_12 = 12.0 / math.pi**2

# The H^2 constant of the delta = 0 law, 2 gamma - 1/2 - zeta'(2)/zeta(2):
# partial summation of sum phi(m)/m^2 in the totient identity behind
# tau_tables.square_sum gives #D2(H, 0) = (96/pi^2) H^2 (ln H + DELTA0_K)
# + o(H^2).
DELTA0_K = 1.2243923228975986


class MainTermKind(enum.Enum):
    """The two candidate main terms a shifted-sum verdict selects from."""

    SHIFTED_LOG_CANDIDATE = "shifted_log_candidate"
    SHIFTED_NOLOG_CANDIDATE = "shifted_nolog_candidate"


def error_envelope(H: int, delta: int, epsilon: float) -> float:
    """Nominal bound H^eps * max(H^(5/3), |delta|)."""
    return H**epsilon * max(H ** (5 / 3), abs(delta))


def report(
    H: int,
    delta: int,
    epsilon: float = 0.1,
    table: TauTable | TauWindows | DeltaSums | None = None,
) -> AsymptoticReport:
    """Exact count vs. the determinant-count main term.

    delta = 0 uses the H^2 (log H + DELTA0_K) law, delta != 0 the
    divisor-ratio law; bound is the nominal H^eps * max(H^(5/3), |delta|)
    envelope.  The exact count comes first, from fast_count with table,
    a source of tau_H or the DeltaSums of a pass over many deltas of H
    (exact.delta_pass), so an H outside its domain or budget is refused
    before H meets a float.
    """
    if H < 1:
        raise ValueError(f"report() requires H >= 1, got {H}")
    exact = fast_count(H, delta, table=table)
    D = abs(delta)
    if D == 0:
        main = COEFF_96 * H * H * (math.log(H) + DELTA0_K)
    else:
        main = COEFF_96 * (sigma(D) / D) * H * H
    return AsymptoticReport(exact, main, error_envelope(H, delta, epsilon))


class ErrorFit(NamedTuple):
    """OLS fit of ln|exact - main| against ln H."""

    exponent: float
    log_constant: float
    r_squared: float
    degenerate: bool = False


def _line(x: list[float], y: list[float]) -> tuple[float, float, float]:
    """Least-squares line y = slope x + intercept and its r^2, each the
    float nearest the exact value for these floats: every float is an
    integer over a power of two, so the sums are exact Python ints and
    only the three quotients round.  Needs two distinct x."""
    scale = max(v.as_integer_ratio()[1] for v in (*x, *y))
    X, Y = ([p * (scale // q) for p, q in map(float.as_integer_ratio, vs)] for vs in (x, y))
    n, sx, sy, sxx = len(X), sum(X), sum(Y), sum(a * a for a in X)
    sxy = sum(a * b for a, b in zip(X, Y))
    # n scale^2 times the centred sums of squares and products
    cxx, cxy, cyy = n * sxx - sx * sx, n * sxy - sx * sy, n * sum(b * b for b in Y) - sy * sy
    r2 = 1.0 if cyy == 0 else cxy * cxy / (cxx * cyy)
    return cxy / cxx, (sy * sxx - sx * sxy) / (cxx * scale), r2


def fit_error_exponent(rows: list[tuple[int, float, float]]) -> ErrorFit:
    """Least-squares slope of ln|exact - main| vs ln H over (H, exact, main)
    rows; zero-error rows are dropped, all-zero input is flagged degenerate.
    Every row needs H >= 1 and finite exact, main and exact - main (an inf
    or nan in any of them makes exact - main inf or nan)."""
    for H, exact, main in rows:
        if H < 1 or not math.isfinite(exact - main):
            raise ValueError(
                f"fit_error_exponent() needs H >= 1 and finite exact, main and "
                f"exact - main, got H={H}, exact={exact}, main={main}"
            )
    points = [(math.log(H), math.log(abs(e - m))) for H, e, m in rows if e != m]
    if not points:
        return ErrorFit(0.0, -math.inf, 1.0, degenerate=True)
    if len({x for x, _ in points}) < 3:
        raise ValueError("fit_error_exponent() needs >= 3 distinct H with nonzero error")
    return ErrorFit(*_line(*zip(*points)))


def fit_linear_in_logN(rows: list[tuple[int, float]]) -> tuple[float, float]:
    """Least-squares (a, b) for value/N^2 = a ln N + b over (N, value) rows."""
    x = [math.log(N) for N, _ in rows]
    if len(set(x)) < 2:
        raise ValueError("fit_linear_in_logN() needs >= 2 distinct N")
    return _line(x, [v / (N * N) for N, v in rows])[:2]


class ShiftedDiscrimination(NamedTuple):
    """Empirical verdict between the two shifted-convolution main terms,
    with the exact shifted_sum(N, delta) it was fitted to, keyed by N."""

    delta: int
    slope: float
    predicted_log_slope: float
    selected: MainTermKind
    values: dict[int, int]

    @property
    def consistent_with_nolog(self) -> bool:
        return self.selected is MainTermKind.SHIFTED_NOLOG_CANDIDATE


def shifted_verdict(delta: int, values: dict[int, int]) -> ShiftedDiscrimination:
    """Fit the exact shifted_sum(N, delta) values, keyed by N, as value/N^2
    against ln N and compare the slope with the log-candidate's prediction
    (12/pi^2) sigma(delta)/delta.

    The no-log candidate predicts slope 0; whichever prediction the
    fitted slope is closer to is selected.
    """
    if delta < 1:
        raise ValueError(f"shifted_verdict() requires delta >= 1, got {delta}")
    values = dict(sorted(values.items()))
    a, _ = fit_linear_in_logN([(N, float(v)) for N, v in values.items()])
    predicted = COEFF_12 * sigma(delta) / delta
    selected = (
        MainTermKind.SHIFTED_NOLOG_CANDIDATE
        if abs(a) < abs(a - predicted)
        else MainTermKind.SHIFTED_LOG_CANDIDATE
    )
    return ShiftedDiscrimination(
        delta=delta,
        slope=a,
        predicted_log_slope=predicted,
        selected=selected,
        values=values,
    )


def discriminate_shifted(
    N_list: list[int], delta: int, tables: dict[int, TauTable]
) -> ShiftedDiscrimination:
    """shifted_verdict over shifted_sum(tables[N], delta) for every N in
    N_list; tables holds the tau_N table of each."""
    return shifted_verdict(delta, {N: shifted_sum(tables[N], delta) for N in set(N_list)})
