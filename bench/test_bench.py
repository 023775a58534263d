"""Tests of the benchmark itself:

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import ops
import oracle
import run
import spans

sys.path.insert(0, str(ops.SRC))

from matcount import cli  # noqa: E402
from matcount.exact import SignClass, naive_count, sign_class_count  # noqa: E402
from matcount.hyperbola import count_box, count_under_curve  # noqa: E402


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_ops_deterministic_per_seed(workload):
    assert ops.make_ops(workload, 7) == ops.make_ops(workload, 7)
    assert [op.name for op in ops.make_ops(workload, 7)] == [op.name for op in ops.make_ops(workload, 8)]
    if workload != "det-big":  # det-big's only seeded input can repeat by chance
        assert ops.make_ops(workload, 7) != ops.make_ops(workload, 8)


def test_sweep_deltas_are_mixed_nonzero_and_bounded():
    for seed in range(20):
        deltas = ops.make_ops("det-sweep", seed)[0].params["delta"]
        assert len(set(deltas)) == 4
        assert sum(d > 0 for d in deltas) == 2 and sum(d < 0 for d in deltas) == 2
        assert all(0 < abs(d) <= 10**4 for d in deltas)


def test_tau_counts_match_enumeration():
    for H in range(1, 13):
        want = np.zeros(H * H + 1, dtype=np.int64)
        for a in range(1, H + 1):
            for b in range(1, H + 1):
                want[a * b] += 1
        for block in (1, 5, oracle.BLOCK):
            assert np.array_equal(oracle.tau_counts(H, block), want)
        t = oracle.tau_counts(H)
        assert oracle.moment(t, 2) == int(want @ want)
        for delta in range(1, H * H + 2):
            ref = int(want[1 : H * H + 1 - delta] @ want[1 + delta :]) if delta < H * H else 0
            assert oracle.shifted(t, delta, block=3) == ref


def test_oracle_equals_naive_count():
    for H in range(1, 9):
        t = oracle.tau_counts(H, block=7)
        for delta in range(-2 * H * H - 2, 2 * H * H + 3):
            assert oracle.det_count(H, delta, t) == naive_count(H, delta), (H, delta)


def test_brute_force_recounts():
    assert oracle.box_count(K=1, q=3, U=0, V=0, X=3, Y=3) == 2  # (1, 1), (2, 2)
    assert oracle.curve_count(K=0, q=2, U=0, X=4, A=4) == 5  # uv even and uv <= 4
    for box, curve in cli.random_hyperbola_queries(seed=11, n=5):
        assert oracle.box_count(box.K, box.q, box.U, box.V, box.X, box.Y) == count_box(box)
        assert oracle.curve_count(curve.K, curve.q, curve.U, curve.X, curve.bound.A) == count_under_curve(curve)
    for H, delta in ((5, 3), (9, 40), (12, 1)):
        assert oracle.sign_class_totals(H, delta) == (
            sign_class_count(H, delta, SignClass(1, 1, 1)),
            sign_class_count(H, delta, SignClass(1, 1, -1)),
        )


def _span(layer, start, end, parent=None, counts=None, N=None):
    s = spans.Span(layer, parent)
    s.start, s.end = start, end
    s.counts = counts or {}
    s.args = {"N": N}
    if parent is not None:
        parent.children.append(s)
    return s


def test_self_time_nested_and_thread_spans():
    root = _span("op", 0.0, 10.0)
    a = _span("tau_tables.build", 1.0, 4.0, root, N=3)  # two worker threads overlap on [3, 4]
    b = _span("exact.fast_count", 3.0, 6.0, root)
    _span("tau_tables.build", 2.0, 3.0, a, N=3)  # nested in the same layer
    inner = _span("tau_tables.build", 4.5, 5.5, b, N=4)
    _span("hyperbola.box", 8.0, 9.0, root, {"hyperbola.box_u": 7})
    assert root.self_time() == pytest.approx(10 - 5 - 1)
    assert a.self_time() == pytest.approx(2.0)
    assert b.self_time() == pytest.approx(2.0)
    assert inner.self_time() == pytest.approx(1.0)
    m = spans.layer_metrics([root])
    assert m["cli.self_s"] == pytest.approx(4.0)
    assert m["tau_tables.build_s"] == pytest.approx(2 + 1 + 1)
    assert m["tau_tables.build_calls"] == 2  # a and inner; a's child is not outermost
    assert m["tau_tables.build_reuse"] == pytest.approx(2 / 3)  # 2 distinct N over 3 builds
    assert m["exact.fast_count_s"] == pytest.approx(2.0)
    assert m["hyperbola.box_calls"] == 1 and m["hyperbola.box_u"] == 7


def test_clipped_and_disjoint_children():
    root = _span("op", 0.0, 4.0)
    _span("x", -1.0, 1.0, root)
    _span("x", 2.0, 3.0, root)
    _span("x", 5.0, 6.0, root)  # outside the parent: covers nothing
    assert root.self_time() == pytest.approx(2.0)


def test_worker_thread_spans_attach_to_op_root():
    tracer = spans.Tracer()

    def work(_):
        with tracer.span("exact.fast_count"):
            time.sleep(0.01)

    with tracer.op("sweep") as root:
        with tracer.span("asymptotics.report"):
            pass
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(work, range(4)))
    assert [c.layer for c in root.children].count("exact.fast_count") == 4
    assert all(c.parent is root for c in root.children)
    assert 0 <= root.self_time() < root.duration


def test_alloc_peak_is_nest_safe():
    tracer = spans.Tracer(alloc=True)
    tracemalloc.start()
    try:
        with tracer.op("op") as root:
            with tracer.span("outer") as outer:
                kept = np.ones(1 << 20, dtype=np.uint8)
                with tracer.span("inner") as inner:
                    tmp = np.ones(4 << 20, dtype=np.uint8)
                    del tmp
                with tracer.span("after") as after:
                    pass
                del kept
    finally:
        tracemalloc.stop()
    mib = 1 << 20
    assert 4 * mib <= inner.peak < 4.5 * mib
    assert 5 * mib <= outer.peak < 5.5 * mib
    assert after.peak < 0.5 * mib
    assert root.peak >= outer.peak


def test_instrument_wraps_every_binding_and_restores():
    import matcount.exact as exact
    import matcount.tau_tables as tau_tables

    original = tau_tables.build_tau_table
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert exact.build_tau_table is tau_tables.build_tau_table is not original
        with tracer.op("count"):
            exact.fast_count(5, 3)
    assert exact.build_tau_table is original and tau_tables.build_tau_table is original
    m = spans.layer_metrics(tracer.roots)
    assert m["tau_tables.build_calls"] == 1 and m["tau_tables.cells"] == 26
    assert m["exact.fast_count_calls"] == 1


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_tiny_smoke_run_passes_checks(workload):
    op_list = ops.make_ops(workload, 3, ops.TINY)
    want = oracle.expected(op_list)
    for op, ref in zip(op_list, want):
        rc, out = run.call_main(cli.main, op.argv)
        assert oracle.check(op, rc, out, ref) is None, op

    metrics, outcomes, summary = run.closed_loop(op_list, want, seconds=0, deadline=time.perf_counter() + 120)
    assert summary.startswith("rounds 1;") and all(o.error is None for o in outcomes)
    assert set(metrics) == set(run.END_TO_END) and all(v > 0 for v in metrics.values())

    layers, outcomes, _ = run.traced_run(op_list, want, seconds=0, deadline=time.perf_counter() + 120)
    assert all(o.error is None for o in outcomes)
    assert set(layers) == set(spans.PER_LAYER)
    if workload == "modular":
        assert layers["tau_tables.build_calls"] == 0
        assert layers["hyperbola.box_calls"] > 0 and layers["casework.cells"] > 0
        assert layers["arith.sieve_calls"] > 0 and layers["exact.sign_class_calls"] > 0
    else:
        assert layers["hyperbola.box_calls"] == 0 and layers["hyperbola.curve_calls"] == 0
        assert layers["tau_tables.build_calls"] > 0 and layers["exact.fast_count_calls"] > 0
        assert layers["tau_tables.peak_alloc_mb"] > 0 and layers["exact.fast_count_peak_alloc_mb"] > 0


def test_wrong_output_is_caught():
    count, _ = ops.make_ops("det-big", 1, ops.TINY)
    want = oracle.expected([count])[0]
    assert oracle.check(count, 0, f"exact = {want}\n", want) is None
    assert oracle.check(count, 0, f"exact = {want + 1}\n", want) is not None
    assert oracle.check(count, 1, f"exact = {want}\n", want) == "exit code 1"
    assert oracle.check(count, 0, "", want).startswith("unparsable")
    casework = ops.make_ops("modular", 1, ops.TINY)[1]
    want = oracle.expected([casework])[0]
    _, out = run.call_main(cli.main, casework.argv)
    assert oracle.check(casework, 0, out, want) is None
    assert oracle.check(casework, 0, out.replace(",TOTAL,", ",TOTAL,1"), want) is not None


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ops.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(ops.WORKLOADS)
