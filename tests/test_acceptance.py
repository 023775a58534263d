"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and
emits a single PASS line on success (pytest -v adds the per-test
verdict).  tau_N is streamed as ``TauWindows`` (the ``tau_windows``
fixture), as every command reads it past one window; nothing is cached.
"""

import math
import subprocess
import sys

import pytest

from matcount.arith import tau
from matcount.asymptotics import (
    COEFF_12,
    COEFF_96,
    discriminate_shifted,
    fit_error_exponent,
    fit_linear_in_logN,
    report,
)
from matcount.casework import (
    RegionG,
    RegionJ,
    region_sum_G,
    region_sum_G_via_hyperbola,
    region_sum_J,
    region_sum_J_via_hyperbola,
)
from matcount.cli import lemma_grid_rows, random_hyperbola_queries
from matcount.exact import SignClass, decompose, fast_count, naive_count, sign_class_count
from matcount.hyperbola import box_report, curve_report
from matcount.lemmas import divisor_tail, xy_sum
from matcount.rng import SplitMix64
from matcount.tau_tables import shifted_sum, tau_moment

SWEEP_SIZES = (250, 500, 1000, 2000, 4000)


def done(n, text):
    print(f"[PASS] criterion {n}: {text}")


def test_criterion_01_oracle_equivalence(tau_windows):
    for H in range(1, 9):
        table = tau_windows(H)
        for delta in range(-2 * H * H, 2 * H * H + 1):
            assert fast_count(H, delta, table=table) == naive_count(H, delta)
    rng = SplitMix64(2024)
    for H in (12, 16, 20):
        table = tau_windows(H)
        for _ in range(200):
            delta = rng.randint(-2 * H * H, 2 * H * H)
            assert fast_count(H, delta, table=table) == naive_count(H, delta)
    done(1, "fast_count = naive_count, exhaustive H <= 8 plus seeded H in {12,16,20}")


def test_criterion_02_fixed_small_values():
    # Oracle-confirmed by full enumeration of the 81- and 625-matrix
    # boxes; the H = 2 values follow from the brute-forced signed
    # product counter c2(m) = 2 tau_H(|m|) for m != 0.
    assert naive_count(1, 1) == fast_count(1, 1) == 20
    assert naive_count(1, 0) == fast_count(1, 0) == 33
    assert naive_count(2, 0) == fast_count(2, 0) == 129
    assert naive_count(2, 1) == fast_count(2, 1) == 52
    done(2, "frozen small values 20 / 33 / 129 / 52 reproduced by both counters")


def test_criterion_03_sign_decomposition(tau_windows):
    for H in (5, 10, 20, 30):
        for delta in (0, 1, -1, 3, -3, 7, -7, 25, 2 * H * H):
            rep = decompose(H, delta, table=tau_windows(H))
            assert rep.assembly_ok, (H, delta, rep.failures)
    done(3, "total = 4(c111 + c11-1) + zero_entry and all 8 class equalities")


def test_criterion_04_casework_exactness(tau_windows):
    for H in (10, 20, 40):
        table = tau_windows(H)
        for delta in (1, 3, 7, 25, H, 2 * H, H * H // 2):
            g_direct = {r: region_sum_G(H, delta, r) for r in RegionG}
            assert sum(g_direct.values()) == sign_class_count(H, delta, SignClass(1, 1, 1))
            j_direct = {r: region_sum_J(H, delta, r) for r in RegionJ}
            j_total = sum(j_direct.values())
            assert j_total == sign_class_count(H, delta, SignClass(1, 1, -1))
            assert j_total == shifted_sum(table, delta)
            for r, value in g_direct.items():
                assert region_sum_G_via_hyperbola(H, delta, r) == value
            for r, value in j_direct.items():
                assert region_sum_J_via_hyperbola(H, delta, r) == value
    done(4, "G/J region sums = sign-class counts = shifted sum; hyperbola route exact")


def test_criterion_05_main_term_convergence(tau_windows):
    for delta in (1, 2, 6, 12):
        rows = []
        for H in (250, 500, 1000, 2000):
            rep = report(H, delta, table=tau_windows(H))
            rows.append((H, float(rep.exact), rep.main))
        H2000 = rows[-1]
        assert abs(H2000[1] / H2000[2] - 1) <= 0.15, delta
        fit = fit_error_exponent(rows)
        assert fit.exponent <= 1.9, (delta, fit.exponent)
        print(f"  delta={delta}: exponent={fit.exponent:.3f} r2={fit.r_squared:.3f}")
    done(5, "|exact/main - 1| <= 0.15 at H=2000; fitted error exponent <= 1.9")


def test_criterion_06_delta0_log_law(tau_windows):
    rows = [
        (H, float(fast_count(H, 0, table=tau_windows(H))))
        for H in (500, 1000, 2000, 4000)
    ]
    a, _ = fit_linear_in_logN(rows)
    assert abs(a / COEFF_96 - 1) <= 0.05, a
    done(6, f"determinant-zero fit a={a:.4f} within 5% of 96/pi^2={COEFF_96:.4f}")


def test_criterion_07_tau_identities(tau_windows):
    for N in (10, 100, 1000, 3000):
        assert tau_moment(tau_windows(N), 1) == N * N  # k=1 coefficient D_1 = 1
    rows = [
        (N, float(tau_moment(tau_windows(N), 2))) for N in (500, 1000, 2000, 4000)
    ]
    a, _ = fit_linear_in_logN(rows)
    assert abs(a / COEFF_12 - 1) <= 0.05, a
    done(7, f"sum tau_N = N^2 exactly; second-moment fit a={a:.4f} ~ 12/pi^2")


def test_criterion_08_shifted_sum_discrimination(tau_windows):
    tables = {N: tau_windows(N) for N in (500, 1000, 2000, 4000)}
    for delta in (1, 6):
        verdict = discriminate_shifted(list(tables), delta, tables=tables)
        # slope indistinguishable from 0 against the log-candidate scale
        assert abs(verdict.slope) <= 0.05 * verdict.predicted_log_slope, verdict
        assert verdict.consistent_with_nolog, verdict
        print(
            f"  delta={delta}: slope={verdict.slope:.5f} vs log-candidate "
            f"{verdict.predicted_log_slope:.5f} -> no-log selected"
        )
    done(8, "shifted-sum fit selects the log-free main term for delta in {1,6}")


def test_criterion_09_hyperbola_diagnostics():
    worst_box = worst_curve = 0.0
    for box, curve in random_hyperbola_queries(seed=20240817, n=500):
        worst_box = max(worst_box, box_report(box, epsilon=0.25).normalized)
        worst_curve = max(worst_curve, curve_report(curve, epsilon=0.25).normalized)
    assert worst_box <= 10, worst_box
    assert worst_curve <= 10, worst_curve
    done(9, f"500 seeded queries: max |err|/bound box={worst_box:.3f}, "
            f"curve={worst_curve:.3f} (<= 10)")


def test_criterion_10_summation_lemmas():
    # exact evaluators vs naive loops on the small grid
    for X in (1, 10, 137, 300):
        for r in (1, 2, 7, 10):
            if r > X:
                continue
            for Y in (0, X // 3, 300):
                naive1 = math.fsum(
                    r / (x * y)
                    for x in range(1, X + 1)
                    for y in range(1, X + 1)
                    if math.gcd(x, y) == r
                )
                assert xy_sum(1, X, 0, r).exact == pytest.approx(naive1, rel=1e-9)
                naive2 = math.fsum(
                    r / x
                    for x in range(1, X + 1)
                    for y in range(1, x + Y)
                    if math.gcd(x, y) == r
                )
                assert xy_sum(2, X, Y, r).exact == pytest.approx(
                    naive2, rel=1e-9, abs=1e-12
                )
                if Y <= X:
                    naive3 = math.fsum(
                        r / y
                        for y in range(1, X + 1)
                        for x in range(1, y)
                        if x + Y < y and math.gcd(x, y) == r
                    )
                    assert xy_sum(3, X, Y, r).exact == pytest.approx(
                        naive3, rel=1e-9, abs=1e-12
                    )
                if Y >= r:
                    naive4 = math.fsum(
                        r / y
                        for x in range(1, X + 1)
                        for y in range(1, Y + 1)
                        if math.gcd(x, y) == r
                    )
                    assert xy_sum(4, X, Y, r).exact == pytest.approx(
                        naive4, rel=1e-9, abs=1e-12
                    )
    # envelope ratios on the logarithmic grid
    worst = max(row["ratio"] for row in lemma_grid_rows())
    assert worst <= 25, worst
    # divisor tail inequality, exact in rationals
    from fractions import Fraction

    for H in (10, 100, 1000):
        for delta in range(1, 10**4 + 1):
            partial, full = divisor_tail(delta, H)
            assert 0 <= full - partial <= Fraction(tau(delta), H)
    done(10, f"lemma evaluators match naive loops; max envelope ratio {worst:.2f}; "
             f"divisor-tail inequality exact")


def test_criterion_11_determinism(tmp_path):
    base = [
        sys.executable, "-m", "matcount.cli", "sweep",
        "--H", "100,200,400", "--delta", "0,1,6", "--no-timing",
    ]
    outs = []
    for i, extra in enumerate(([], [], ["--jobs", "8"])):
        path = tmp_path / f"run{i}.csv"
        proc = subprocess.run(
            base + extra + ["--output", str(path)], capture_output=True
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] == outs[2]

    hyp = [
        sys.executable, "-m", "matcount.cli", "hyperbola",
        "--N", "60", "--seed", "11", "--epsilon", "0.25",
    ]
    blobs = []
    for i, extra in enumerate(([], ["--jobs", "8"])):
        path = tmp_path / f"hyp{i}.csv"
        proc = subprocess.run(hyp + extra + ["--output", str(path)], capture_output=True)
        assert proc.returncode == 0, proc.stderr
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    done(11, "sweep and hyperbola reruns byte-identical; --jobs 8 equals --jobs 1")
