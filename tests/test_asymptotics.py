"""Main-term formulas, synthetic fit recovery, and the shifted-sum
candidate discrimination."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from matcount.asymptotics import (
    COEFF_12,
    COEFF_96,
    DELTA0_K,
    ErrorFit,
    MainTermKind,
    discriminate_shifted,
    error_envelope,
    fit_error_exponent,
    fit_linear_in_logN,
    report,
    shifted_verdict,
)


def test_main_term_values():
    assert report(100, 1).main == pytest.approx(COEFF_96 * 1e4)
    # sigma(6)/6 = 2, and the law is even in delta
    assert report(10, 6).main == pytest.approx(2 * COEFF_96 * 100)
    assert report(10, -6).main == report(10, 6).main
    assert report(50, 0).main == pytest.approx(COEFF_96 * 2500 * (math.log(50) + DELTA0_K))


def _euler_maclaurin_tail(N, f, integral, odd_derivatives):
    """sum_{n >= N} f(n) by Euler-Maclaurin: the integral from N, f(N)/2,
    and -B_2k/(2k)! f^(2k-1)(N) for the given odd derivatives (k = 1..3)."""
    weights = (1 / 12, -1 / 720, 1 / 30240)  # B_2/2!, B_4/4!, B_6/6!
    return math.fsum(
        [integral, f(N) / 2] + [-w * df for w, df in zip(weights, odd_derivatives)]
    )


def test_delta0_constant_by_euler_maclaurin():
    """DELTA0_K = 2 gamma - 1/2 - zeta'(2)/zeta(2), each constant summed
    to N = 100 and closed with its Euler-Maclaurin tail."""
    N, L = 100, math.log(100)
    # gamma = lim sum_{n <= M} 1/n - ln M; the tail of 1/n from N, minus ln N
    gamma = math.fsum(
        [1 / n for n in range(1, N)]
        + [-L, _euler_maclaurin_tail(N, lambda x: 1 / x, 0.0,
                                     (-1 / N**2, -6 / N**4, -120 / N**6))]
    )
    # -zeta'(2) = sum ln n / n^2; the derivatives of ln x / x^2 at N
    log_sum = math.fsum(
        [math.log(n) / n**2 for n in range(1, N)]
        + [_euler_maclaurin_tail(
            N, lambda x: math.log(x) / x**2, (L + 1) / N,
            ((1 - 2 * L) / N**3, (26 - 24 * L) / N**5, (1044 - 720 * L) / N**7),
        )]
    )
    assert gamma == pytest.approx(0.5772156649015329, abs=1e-13)
    zeta2 = math.pi**2 / 6
    assert DELTA0_K == pytest.approx(2 * gamma - 0.5 + log_sum / zeta2, abs=1e-12)


def test_delta0_report_within_its_bound():
    """With the H^2 constant the delta = 0 error falls under the nominal
    H^0.1 H^(5/3) envelope; without it the ratio is about 60 at H = 1000."""
    for H in (1000, 4000):
        assert report(H, 0).normalized < 1, H


def test_report_small_and_support():
    rep = report(1, 1)
    assert rep.exact == 20
    assert rep.main == pytest.approx(COEFF_96, rel=1e-12)
    H = 6
    assert report(H, 2 * H * H + 1).exact == 0
    assert report(H, 5).exact == report(H, -5).exact
    # H < 1 is fast_count's refusal, before H meets a float
    for H in (0, -3):
        with pytest.raises(ValueError, match=f"^fast_count\\(\\) requires H >= 1, got {H}$"):
            report(H, 1)


def test_error_envelope():
    assert error_envelope(10, 1, 0.0) == pytest.approx(10 ** (5 / 3))
    assert error_envelope(10, 10**4, 0.0) == pytest.approx(10**4)


def test_fit_error_exponent_synthetic():
    rows = [(H, H ** (5 / 3), 0.0) for H in (10, 20, 40, 80)]
    fit = fit_error_exponent(rows)
    assert fit.exponent == pytest.approx(5 / 3, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0)

    rows2 = [(H, 3.7 * H**2, 0.0) for H in (10, 30, 90)]
    assert fit_error_exponent(rows2).exponent == pytest.approx(2.0, abs=1e-9)


def test_fit_error_exponent_degenerate_and_invalid():
    fit = fit_error_exponent([(10, 5.0, 5.0), (20, 7.0, 7.0)])
    assert fit.degenerate
    with pytest.raises(ValueError):
        fit_error_exponent([(10, 1.0, 0.0), (10, 2.0, 0.0), (10, 3.0, 0.0)])
    good = [(10, 9.0, 3.0), (20, 30.0, 2.0)]
    for bad in ((0, 5.0, 4.0), (1, math.inf, 3.0), (1, 5.0, math.nan)):
        with pytest.raises(ValueError, match="H >= 1 and finite"):
            fit_error_exponent([bad, *good])


def test_fit_linear_in_logN_synthetic():
    rows = [(N, 3 * N * N * math.log(N) + 5 * N * N) for N in (10, 100, 1000)]
    a, b = fit_linear_in_logN(rows)
    assert a == pytest.approx(3.0, abs=1e-9)
    assert b == pytest.approx(5.0, abs=1e-9)
    with pytest.raises(ValueError):
        fit_linear_in_logN([(10, 1.0)])


def _exact_line(x, y):
    """Slope, intercept and r^2 of the least-squares line through the
    float points, in exact rationals."""
    X, Y = [Fraction(v) for v in x], [Fraction(v) for v in y]
    mx, my = sum(X) / len(X), sum(Y) / len(Y)
    sxx = sum((a - mx) ** 2 for a in X)
    sxy = sum((a - mx) * (b - my) for a, b in zip(X, Y))
    syy = sum((b - my) ** 2 for b in Y)
    slope = sxy / sxx
    return slope, my - slope * mx, 1 if syy == 0 else sxy * sxy / (sxx * syy)


def _assert_matches_exact(fitted, exact):
    for got, want in zip(fitted, exact):
        assert "%.12g" % got == "%.12g" % want
        assert abs(Fraction(got) - want) <= Fraction(1e-13) * abs(want)
        assert got == float(want)  # the float nearest the exact value


@given(
    st.lists(
        st.tuples(st.integers(1, 10**12), st.integers(-(10**15), 10**15)),
        min_size=2, max_size=30, unique_by=lambda row: row[0],
    )
)
@settings(max_examples=200, deadline=None)
def test_fits_match_the_exact_rational_line(rows):
    """Both fits of integer values against the exact least-squares line
    of the same floats: ln N and value/N^2, and ln H and ln|exact - main|."""
    x = [math.log(N) for N, _ in rows]
    assume(len(set(x)) >= 2)
    _assert_matches_exact(
        fit_linear_in_logN(rows), _exact_line(x, [v / (N * N) for N, v in rows])[:2]
    )
    points = [(math.log(N), math.log(abs(v))) for N, v in rows if v != 0]
    assume(len({u for u, _ in points}) >= 3)
    fit = fit_error_exponent([(N, v, 0.0) for N, v in rows])
    _assert_matches_exact(
        (fit.exponent, fit.log_constant, fit.r_squared), _exact_line(*zip(*points))
    )


def test_fit_linear_in_logN_pins_the_exact_slope():
    """sum tau_N(n)^2 / N^2 at N = 1000, 2000, 4000: the exact slope of
    these floats prints as below, where a QR solve printed ...162e-06."""
    a, _ = fit_linear_in_logN([(1000, 1454713), (2000, 5818798), (4000, 23275340)])
    assert "%.12g" % a == "-3.06572696184e-06"


def test_discriminate_shifted_small(tau_windows):
    sizes = [200, 300, 400, 600]
    tables = {N: tau_windows(N) for N in sizes}
    verdict = discriminate_shifted(sizes, 1, tables=tables)
    assert verdict.predicted_log_slope == pytest.approx(COEFF_12)
    assert verdict.consistent_with_nolog
    assert verdict.selected.value == "shifted_nolog_candidate"
    # the fit reads the values in N order, whatever order they come in
    assert list(verdict.values) == sizes
    assert shifted_verdict(1, dict(reversed(verdict.values.items()))) == verdict
    with pytest.raises(ValueError, match="delta >= 1"):
        shifted_verdict(0, verdict.values)
    assert {kind.value for kind in MainTermKind} == {
        "shifted_log_candidate", "shifted_nolog_candidate"
    }
