"""Command-line surface: output schemas, determinism, --jobs equality,
config files, exit codes and an argv fuzz."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from matcount import casework, cli, tau_tables
from matcount.casework import RegionG, region_sum_G_via_hyperbola
from matcount.cli import build_parser, main
from matcount.errors import InvariantError
from matcount.exact import naive_count
from matcount.lemmas import phi_ratio_report
from matcount.tau_tables import build_tau_table, tau_moment

README = Path(__file__).resolve().parent.parent / "README.md"

# An H whose H^2 and H^(5/3) overflow a float.
_HUGE_H = str(10**400)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count(capsys):
    code, out, _ = run(["count", "--H", "100", "--delta", "1"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "exact = 97396"
    assert any(line.startswith("main = ") for line in out.splitlines())


def test_sweep_csv_schema(capsys):
    code, out, _ = run(
        ["sweep", "--H", "20,10", "--delta", "1,0", "--no-timing"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "H,delta,exact,main,error,normalized_error,bound"
    # rows sorted by (delta, H)
    keys = [tuple(map(int, line.split(",")[:2]))[::-1] for line in lines[1:]]
    assert keys == sorted(keys)


def test_sweep_timing_column(capsys):
    _, out, _ = run(["sweep", "--H", "5", "--delta", "1"], capsys)
    assert out.splitlines()[0].endswith(",wall_time_ms")


def test_sweep_deterministic_and_jobs_equal(tmp_path):
    args = ["sweep", "--H", "10,20,30", "--delta", "0,1,7", "--no-timing"]
    paths = [tmp_path / f"{i}.csv" for i in range(3)]
    assert main(args + ["--output", str(paths[0])]) == 0
    assert main(args + ["--output", str(paths[1])]) == 0
    assert main(args + ["--jobs", "8", "--output", str(paths[2])]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_sweep_builds_each_table_once(monkeypatch, tmp_path):
    built = []

    def counting_build(N):
        built.append(N)
        return build_tau_table(N)

    monkeypatch.setattr(cli, "build_tau_table", counting_build)
    args = ["sweep", "--H", "10,30,20", "--delta", "0,1,-7,1", "--no-timing"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(a)]) == 0
    assert sorted(built) == [10, 20, 30]
    assert main(args + ["--jobs", "2", "--output", str(b)]) == 0
    assert sorted(built) == [10, 10, 20, 20, 30, 30]
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "argv, dedup",
    [
        (["--H", "5,5,10", "--delta", "1,1", "--no-timing"],
         ["--H", "5,10", "--delta", "1", "--no-timing"]),
        (["--H", "5,10,20,20", "--delta", "3", "--fit", "--no-timing"],
         ["--H", "5,10,20", "--delta", "3", "--fit", "--no-timing"]),
    ],
)
def test_sweep_repeated_values_give_one_row(argv, dedup, capsys):
    code, out, err = run(["sweep", *argv], capsys)
    assert code == 0
    assert (out, err) == run(["sweep", *dedup], capsys)[1:]


def test_sweep_json(tmp_path):
    out = tmp_path / "s.json"
    code = main(
        ["sweep", "--H", "5,10,20", "--delta", "1", "--no-timing",
         "--format", "json", "--output", str(out), "--fit"]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["version"]
    assert payload["config"]["H"] == [5, 10, 20]
    assert len(payload["rows"]) == 3
    assert "fits" in payload


def test_tau_fit(capsys):
    code, out, err = run(["tau", "--N", "100,200,400", "--k", "2"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "N,k,moment"
    assert err.startswith("fit: moment/N^2 =")


def test_tau_shifted_discrimination(capsys):
    code, out, err = run(["tau", "--N", "100,200,300", "--delta", "1"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "N,delta,value"
    assert "shifted_nolog_candidate" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["tau", "--N", "10,40,20,30", "--delta=2,7"],
        ["tau", "--N", "10,40,20,30", "--delta=1,3"],
        ["sweep", "--H", "10,40,20,30", "--delta", "1,7", "--no-timing", "--jobs", "2"],
    ],
)
def test_tau_holds_one_table_at_a_time(argv, monkeypatch, capsys):
    sizes, built, alive = [], [], []

    def tracking_build(N):
        alive.append(sum(ref() is not None for ref in built))
        table = build_tau_table(N)
        sizes.append(N)
        built.append(weakref.ref(table))
        return table

    monkeypatch.setattr(cli, "build_tau_table", tracking_build)
    assert run(argv, capsys)[0] == 0
    # every earlier table is gone before the next build; tau builds the
    # largest N first, sweep goes up in H
    assert sizes == ([40, 30, 20, 10] if argv[0] == "tau" else [10, 20, 30, 40])
    assert alive == [0, 0, 0, 0]


@pytest.mark.parametrize(
    "argv, dedup",
    [
        (["--N", "10,20", "--delta=1,1"], ["--N", "10,20", "--delta=1"]),
        (["--N", "10,20,10", "--delta=3,1,3", "--format", "json"],
         ["--N", "10,20", "--delta=3,1", "--format", "json"]),
    ],
)
def test_tau_repeated_values_give_one_row(argv, dedup, capsys):
    code, out, err = run(["tau", *argv], capsys)
    assert code == 0
    _, dedup_out, dedup_err = run(["tau", *dedup], capsys)
    assert err == dedup_err
    if "json" in argv:
        # the config echoes the argv as given; rows and verdicts are deduplicated
        out, dedup_out = json.loads(out), json.loads(dedup_out)
        del out["config"], dedup_out["config"]
    assert out == dedup_out


def test_hyperbola_seeded_determinism(tmp_path):
    args = ["hyperbola", "--N", "40", "--seed", "7", "--epsilon", "0.25"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b), "--jobs", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header.startswith("kind,K,q,U,V,X,Y,A,exact,main")


def test_hyperbola_seed_changes_queries(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["hyperbola", "--N", "10", "--seed", "1", "--output", str(a)])
    main(["hyperbola", "--N", "10", "--seed", "2", "--output", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_lemmas(tmp_path, capsys):
    out = tmp_path / "lem.csv"
    assert main(["lemmas", "--output", str(out)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("max envelope ratio = ")
    header = out.read_text().splitlines()[0]
    assert header == "lemma,variant,X,Y,r,exact,main,error,envelope,ratio"


def test_casework(capsys):
    code, out, _ = run(["casework", "--H", "12", "--delta", "7"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "problem,region,count"
    assert any(line.startswith("G,TOTAL,") for line in lines)


def test_casework_delta_beyond_int64(capsys):
    code, out, err = run(["casework", "--H", "5", "--delta", str(10**23)], capsys)
    assert (code, err) == (0, "")
    rows = out.splitlines()[1:]
    assert len(rows) == 8
    assert all(row.endswith(",0") for row in rows)


def test_fixtures(capsys):
    code, out, _ = run(["fixtures"], capsys)
    assert code == 0
    assert "1,1,20" in out.splitlines()
    assert "2,0,129" in out.splitlines()


def test_fit_roundtrip(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    main(
        ["sweep", "--H", "250,500,1000", "--delta", "1", "--no-timing",
         "--output", str(csv_path)]
    )
    capsys.readouterr()
    code, out, _ = run(["fit", str(csv_path)], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("exponent = ")


@pytest.mark.parametrize(
    "body,message",
    [
        ("H,exact,main\n1,5\n10,9,3\n20,30,2\n",  # short row
         "rows.csv: data row 1, column main: expected a number, got ''"),
        ("H,exact,main\n0,5,4\n10,9,3\n20,30,2\n", None),  # H = 0
        ("H,exact,main\n1,inf,3\n10,9,3\n20,30,2\n", None),  # non-finite exact
        ("H,exact\n1,5\n10,9\n", "rows.csv: missing column 'main'"),
        ("H,exact,main\n10,9,3\n1.5,5,3\n",
         "rows.csv: data row 2, column H: expected an integer, got '1.5'"),
    ],
    ids=["short-row", "H-zero", "exact-inf", "no-main-column", "H-not-integer"],
)
def test_fit_rejects_bad_csv(body, message, tmp_path, capfd):
    # capfd, not capsys: LAPACK prints its complaints to file descriptor 1
    path = tmp_path / "rows.csv"
    path.write_text(body)
    code, out, err = run(["fit", str(path)], capfd)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    if message is not None:
        assert err.endswith(f"{message}\n")


def test_casework_budget(monkeypatch, capsys):
    t0 = time.perf_counter()
    code, out, err = run(["casework", "--H", "317", "--delta", "1"], capsys)
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert err == "budget exceeded: casework(H=317) visits 100489 cells, budget is 100000\n"
    assert run(["casework", "--H", "316", "--delta", "1"], capsys)[0] == 0
    # the command reads the module constant when it runs
    monkeypatch.setattr(casework, "CELL_BUDGET", 24)
    assert run(["casework", "--H", "5", "--delta", "1"], capsys)[0] == 2


def test_invariant_violation_exits_3(monkeypatch, capsys):
    real = casework.count_box
    monkeypatch.setattr(casework, "count_box", lambda query: real(query) + 1)
    with pytest.raises(InvariantError, match="column mismatch at c=1 "):
        region_sum_G_via_hyperbola(10, 3, RegionG.SL)
    code, out, err = run(["casework", "--H", "10", "--delta", "3"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("invariant violation: ") and err.count("\n") == 1


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"H": [100], "delta": [1]}))
    code, out, _ = run(["count", "--config", str(cfg)], capsys)
    assert code == 0
    assert out.splitlines()[0] == "exact = 97396"
    # explicit flags beat the config file
    code, out, _ = run(
        ["count", "--config", str(cfg), "--H", "1", "--delta", "1"], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == "exact = 20"


def test_exit_codes(capsys, tmp_path):
    assert run(["count"], capsys)[0] == 1  # missing flags
    assert run(["bogus"], capsys)[0] == 1  # unknown subcommand
    assert run([], capsys)[0] == 1
    assert run(["count", "--H", "x", "--delta", "1"], capsys)[0] == 1
    assert run(["fit", str(tmp_path / "missing.csv")], capsys)[0] == 1
    # budget violations surface as exit 2; two deltas share a whole table
    assert run(["sweep", "--H", "20000", "--delta", "1,6"], capsys)[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--H", "0", "--delta", "1"],
        ["tau", "--N", "0"],
        ["count", "--H", "1,2", "--delta", "1"],
        ["count", "--H", "5", "--delta", "1,2"],
        ["casework", "--H", "4,5", "--delta", "1"],
        ["casework", "--H", "0", "--delta", "1"],
        # flags the subcommand does not read
        ["casework", "--H", "5", "--delta", "3", "--k", "9"],
        ["count", "--H", "5", "--delta", "3", "--format", "json"],
        ["lemmas", "--jobs", "2"],
        ["hyperbola", "--N", "1,2"],
        ["count", "--H", "5", "--delta", "3", "--epsilon", "1e308"],
        # empty integer lists
        ["sweep", "--H", "5", "--delta", ""],
        ["tau", "--N", "5,10", "--delta", ""],
        ["count", "--H", ",", "--delta", "1"],
        # moment orders outside 1..64
        ["tau", "--N", "10,20", "--k", "600"],
        ["tau", "--N", "5", "--k", "1000000"],
        ["tau", "--N", "5", "--k", "100000000"],
        ["tau", "--N", "5", "--k", "0"],
        # shifted mode checks its deltas and N count before any table build
        ["tau", "--N", "6000,7000", "--delta=0"],
        ["tau", "--N", "7000", "--delta", "1"],
        # past the uint16 limit, refused before H meets a float
        ["count", "--H", _HUGE_H, "--delta", "6"],
    ],
)
def test_bad_values_exit_1_with_one_line(argv, monkeypatch, capsys):
    if tuple(argv) in _REFUSED_BEFORE_ANY_TABLE:
        monkeypatch.setattr(tau_tables, "_sieve", None)
    t0 = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - t0 < 1
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if tuple(argv) in _BAD_VALUE_TEXTS:
        assert err == _BAD_VALUE_TEXTS[tuple(argv)]


# The messages of the integer-list parser, which argparse passes through.
_BAD_VALUE_TEXTS = {
    ("sweep", "--H", "5", "--delta", ""):
        "error: argument --delta: expected a non-empty comma-separated integer list, got ''\n",
    ("tau", "--N", "5,10", "--delta", ""):
        "error: argument --delta: expected a non-empty comma-separated integer list, got ''\n",
    ("count", "--H", ",", "--delta", "1"):
        "error: argument --H: expected a non-empty comma-separated integer list, got ','\n",
    ("tau", "--N", "10,20", "--k", "600"):
        "error: argument --k: expected an integer in 1..64, got '600'\n",
    ("tau", "--N", "6000,7000", "--delta=0"):
        "error: tau requires every --delta >= 1, got 0\n",
    ("tau", "--N", "7000", "--delta", "1"):
        "error: tau --delta requires at least two distinct --N values\n",
}

_REFUSED_BEFORE_ANY_TABLE = {
    ("tau", "--N", "6000,7000", "--delta=0"),
    ("tau", "--N", "7000", "--delta", "1"),
}


@pytest.mark.parametrize(
    "argv,flag,bad",
    [
        (["tau", "--N", "0"], "N", "0 in '0'"),
        (["tau", "--N", "100,0"], "N", "0 in '100,0'"),
        (["count", "--H", "0", "--delta", "1"], "H", "0 in '0'"),
        (["sweep", "--H", "0,5", "--delta", "1"], "H", "0 in '0,5'"),
    ],
)
def test_sizes_are_checked_by_the_parser(argv, flag, bad, monkeypatch, capsys):
    # refused before any tau_N cell is sieved
    monkeypatch.setattr(tau_tables, "_sieve", None)
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err == f"error: argument --{flag}: expected positive integers, got {bad}\n"


def test_tau_moment_order_bound(monkeypatch, capsys):
    # the largest order prints every moment in full and fits it as a float
    code, out, err = run(["tau", "--N", "10,20", "--k", "64", "--format", "json"], capsys)
    assert code == 0 and err.startswith("fit: ")
    assert all(0 < float(row["moment"]) < math.inf for row in json.loads(out)["rows"])
    # one past it is refused by the parser, before any tau_N cell is sieved
    monkeypatch.setattr(tau_tables, "_sieve", None)
    code, out, err = run(["tau", "--N", "10,20", "--k", "65"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: argument --k: expected an integer in 1..64, got '65'\n"


def test_hyperbola_budget(monkeypatch, capsys):
    with monkeypatch.context() as m:
        # refused before any query is generated
        m.setattr(cli, "random_hyperbola_queries", None)
        t0 = time.perf_counter()
        code, out, err = run(["hyperbola", "--N", "2001"], capsys)
        assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert err == "budget exceeded: hyperbola(N=2001) makes 2001 query pairs, budget is 2000\n"
    # the command reads the module constant when it runs
    monkeypatch.setattr(cli, "HYPERBOLA_QUERY_BUDGET", 3)
    assert run(["hyperbola", "--N", "3"], capsys)[0] == 0
    code, out, err = run(["hyperbola", "--N", "4"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("budget exceeded: ") and err.count("\n") == 1


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs Linux RLIMIT_AS")
def test_memory_error_exits_2():
    import resource

    limit = 300 * 2**20

    def child(*argv):
        # the limit is set in the child only, between fork and exec
        return subprocess.run(
            [sys.executable, "-m", "matcount.cli", *argv],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1",
                     PYTHONPATH=str(Path(cli.__file__).resolve().parents[1])),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )

    t0 = time.perf_counter()
    big = child("sweep", "--H", "14000", "--delta", "1,6")  # a 374 MiB shared table
    assert time.perf_counter() - t0 < 5
    assert (big.returncode, big.stdout) == (2, "")
    assert big.stderr.startswith("budget exceeded: ") and big.stderr.count("\n") == 1
    small = child("count", "--H", "100", "--delta", "6")
    assert (small.returncode, small.stderr) == (0, "")
    assert small.stdout.startswith("exact = 195184\n")
    # count reads tau_H one window at a time, so the same H fits
    windowed = child("count", "--H", "14000", "--delta", "6")
    assert (windowed.returncode, windowed.stderr) == (0, "")
    assert windowed.stdout.startswith("exact = 3813148592\n")


def test_count_at_zero_reads_no_table(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("count at delta = 0 sieved tau_H")

    monkeypatch.setattr(tau_tables, "_sieve", refuse)
    t0 = time.perf_counter()
    code, out, err = run(["count", "--H", "46340", "--delta", "0"], capsys)
    assert time.perf_counter() - t0 < 2
    assert (code, err) == (0, "")
    assert out.startswith("exact = 249982967585\n")


def test_sweep_at_zero_builds_no_table(monkeypatch, capsys):
    monkeypatch.setattr(tau_tables, "_sieve", None)
    code, out, err = run(["sweep", "--H", "5,10,20000", "--delta", "0", "--no-timing"], capsys)
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["H"]) for r in rows] == [5, 10, 20000]
    for r in rows[:2]:
        assert int(r["exact"]) == naive_count(int(r["H"]), 0)


# Single-pass reads at N = 30 and 40 and their stdout and stderr, the
# values of the whole-table routes.
_STREAMED = {
    ("sweep", "--H", "40", "--delta", "6", "--no-timing"): (
        "H,delta,exact,main,error,normalized_error,bound\n"
        "40,6,31600,31125.8676149,474.132385074,0.700799261729,676.55948139\n",
        "",
    ),
    ("tau", "--N", "30,40", "--delta", "6"): (
        "N,delta,value\n30,6,2042\n40,6,3618\n",
        "delta=6: slope=-0.0265532322671 vs log-candidate 2.43170840742 "
        "-> shifted_nolog_candidate\n",
    ),
    ("tau", "--N", "30,40", "--k", "3"): (
        "N,k,moment\n30,3,17916\n40,3,37072\n",
        "fit: moment/N^2 = 11.3435408245*ln N + -18.6749546844\n",
    ),
}


@pytest.mark.parametrize("argv", list(_STREAMED))
def test_single_pass_reads_stream_past_the_cell_budget(argv, monkeypatch, capsys):
    want = (0, *_STREAMED[argv])
    assert run(list(argv), capsys) == want
    # no whole table of N = 40 fits the budget, and none is needed
    monkeypatch.setattr(tau_tables, "CELL_BUDGET", 40 * 40)
    assert run(list(argv), capsys) == want


@pytest.mark.parametrize(
    "argv", [["sweep", "--H", "40", "--delta", "1,6"], ["tau", "--N", "30,40", "--delta", "1,6"]]
)
def test_shared_tables_keep_the_cell_budget(argv, monkeypatch, capsys):
    monkeypatch.setattr(tau_tables, "CELL_BUDGET", 40 * 40)
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "budget exceeded: build_tau_table(N=40) needs 1601 cells, budget is 1600\n"


def test_count_past_the_uint16_limit_exits_1_before_allocating(capsys):
    tracemalloc.start()
    try:
        code, out, err = run(["count", "--H", "46341", "--delta", "6"], capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == "error: tau_N with N=46341: N^2 >= 2^31 overflows uint16 cells\n"
    assert peak < 1 << 20
    # delta = 0 reads no table, so the uint16 limit does not apply; the
    # value is (4H + 1)^2 + 8 square_sum(H), and square_sum(46341) is held
    # to the O(H) totient formula in test_tau_tables
    code, out, err = run(["count", "--H", "46341", "--delta", "0"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("exact = 249996419009\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--H", "46341", "--delta", "6"],
        ["tau", "--N", "10,46341", "--delta", "6"],
        ["tau", "--N", "10,46341", "--k", "3"],
    ],
)
def test_single_pass_reads_past_the_uint16_limit_exit_1(argv, capsys):
    # streamed like count, so refused by the same guard before allocating
    tracemalloc.start()
    try:
        code, out, err = run(argv, capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == "error: tau_N with N=46341: N^2 >= 2^31 overflows uint16 cells\n"
    assert peak < 1 << 20


@pytest.mark.parametrize("k", ["1", "2"])
def test_tau_first_moments_read_no_table(k, monkeypatch, capsys):
    argv = ["tau", "--N", "10,20,40", "--k", k]
    with monkeypatch.context() as m:
        # the table route: every moment read from a whole table
        m.setattr(cli, "_tau_values", lambda N, k, deltas: tau_moment(build_tau_table(N), k))
        want = [run(argv + fmt, capsys) for fmt in ([], ["--format", "json"])]
    monkeypatch.setattr(tau_tables, "_sieve", None)
    assert [run(argv + fmt, capsys) for fmt in ([], ["--format", "json"])] == want


def test_delta0_and_first_moments_run_past_the_table_limits(capsys):
    code, out, err = run(["tau", "--N", "14143,100000", "--k", "2"], capsys)
    assert code == 0 and err.startswith("fit: ")
    assert out.splitlines()[1:] == [
        f"{N},2,{tau_tables.square_sum(N)}" for N in (14143, 100000)
    ]
    code, out, err = run(["sweep", "--H", "46341", "--delta", "0", "--no-timing"], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[1].startswith("46341,0,249996419009,")


@pytest.mark.parametrize(
    "argv, longest",
    [
        (["count", "--H", str(10**30), "--delta", "0"], 120),
        (["count", "--H", _HUGE_H, "--delta", "0"], 1000),
        (["sweep", "--H", _HUGE_H, "--delta", "0"], 1000),
    ],
)
def test_delta0_budget_exits_2_with_one_line(argv, longest, monkeypatch, capsys):
    # refused before the phi sieve, and before H meets a float
    monkeypatch.setattr(tau_tables, "sieve", None)
    tracemalloc.start()
    try:
        code, out, err = run(argv, capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err.startswith(f"budget exceeded: square_sum(N={argv[2]}) needs ")
    assert err.count("\n") == 1 and len(err) < longest
    assert peak < 1 << 20


def test_config_goes_through_the_parser(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    flags = ["sweep", "--H", "5,10", "--delta", "1", "--no-timing", "--jobs", "2"]
    cfg.write_text(json.dumps(
        {"H": [5, 10], "delta": 1, "no_timing": True, "fit": False, "output": None, "jobs": "2"}
    ))
    code, out, _ = run(["sweep", "--config", str(cfg)], capsys)
    assert code == 0
    assert out == run(flags, capsys)[1]
    for bad in ({"jobs": "x"}, {"bogus": 1}, {"delta": []}):
        cfg.write_text(json.dumps(bad))
        code, out, err = run(flags + ["--config", str(cfg)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1


def test_readme_cli_lines_parse():
    block = README.read_text().split("## CLI", 1)[1].split("```")[1]
    lines = [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("matcount ")]
    assert len(lines) >= 8
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--H", "5", "--delta", "1000000000000000003"],
        ["tau", "--N", "10,20", "--delta", "1000000000000000003"],
    ],
)
def test_factorization_budget_exits_2(argv, capsys):
    t0 = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - t0 < 5
    assert (code, out) == (2, "")
    assert err.startswith("budget exceeded: ") and err.count("\n") == 1


# sha256 of stdout, frozen from the Fraction-endpoint implementation (the
# first two) and from the per-u hyperbola, per-divisor lemma and per-(a, c)
# sign-class loops (the last three), so float main terms are pinned.
GOLDEN = {
    ("hyperbola", "--N", "40", "--seed", "7", "--epsilon", "0.25"):
        "3ae2c4a88833a16062941cd29e0f0ef63e8306c459e7f3a854f51dd7740232e4",
    ("casework", "--H", "40", "--delta", "60"):
        "b2dfd1d2cd82a086ba3f4fec9c86f42a6b1074daf1b146382581653f85e0c789",
    ("lemmas",):
        "7c2ed16c415be3870e8b726ce9c9949947e47c7d76539fa0394daf017d3a98c0",
    ("hyperbola", "--N", "150", "--seed", "12345"):
        "cf5f7efc6df4dc685553ea514a11cd4ede9e03651b634389328053390de4594a",
    ("casework", "--H", "120", "--delta", "777"):
        "5751fdfc407fb2c030fdd75093c0893a83bbd675062226846319105835ee258a",
}


def test_golden_stdout(capsys):
    for argv, digest in GOLDEN.items():
        code, out, _ = run(list(argv), capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# A valid argv per subcommand; the fuzz swaps its values and appends flags.
_FUZZ_BASE = {
    "count": ["--H", "5", "--delta", "3"],
    "sweep": ["--H", "5,10", "--delta", "1", "--no-timing"],
    "tau": ["--N", "5,10", "--k", "2"],
    "hyperbola": ["--N", "5"],
    "lemmas": [],
    "casework": ["--H", "5", "--delta", "3"],
    "fixtures": [],
    "fit": ["missing.csv"],
}
_FUZZ_FLAGS = ["--H", "--delta", "--N", "--k", "--epsilon", "--jobs", "--seed",
               "--format", "--no-timing", "--fit", "--config"]
_FUZZ_VALUES = st.one_of(
    st.integers(-3, 40).map(str),
    st.lists(st.integers(-3, 40), min_size=1, max_size=3).map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from(["", "x", ",", "1,,2", "-", "nan", "1e308", "0.5", "csv", "json", "{}",
                     "1000000000"]),
)


@given(
    st.sampled_from(sorted(_FUZZ_BASE)).flatmap(
        lambda cmd: st.tuples(
            st.just(cmd),
            st.tuples(*(st.just(tok) if tok.startswith("--") else st.just(tok) | _FUZZ_VALUES
                        for tok in _FUZZ_BASE[cmd])),
        )
    ),
    st.lists(st.tuples(st.sampled_from(_FUZZ_FLAGS), st.none() | _FUZZ_VALUES), max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_argv_fuzz(base, extra):
    command, tokens = base
    argv = [command, *tokens]
    for flag, value in extra:
        argv += [flag] if value is None else [flag, value]
    out, err = io.StringIO(), io.StringIO()
    # the full lemma grid reads no flag and takes about 0.47 s (median of
    # 5, Intel Xeon, Python 3.11), which 200 cases would repeat; one row
    # stands in
    grid = [cli._lemma_row("phi_ratio", 0, 10, 0, 1, phi_ratio_report(10))]
    t0 = time.perf_counter()
    with mock.patch.object(cli, "lemma_grid_rows", lambda: grid), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - t0 < 5, argv
    assert code in (0, 1, 2, 3), argv
    if code:
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
