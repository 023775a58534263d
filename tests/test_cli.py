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
import signal
import subprocess
import sys
import time
import tracemalloc
import types
import warnings
import weakref
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from matcount import asymptotics, casework, cli, exact, tau_tables
from matcount.casework import RegionG, region_sum_G, region_sum_G_via_hyperbola
from matcount.cli import build_parser, main
from matcount.errors import BudgetError
from matcount.exact import delta_pass, fast_count, naive_count
from matcount.lemmas import phi_ratio_report
from matcount.tau_tables import TauWindows, build_tau_table, shifted_sum, tau_moment

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


def test_sweep_rows_that_read_the_pass_include_its_time(monkeypatch, capsys):
    # a clock that moves only while a pass is read: one second per pass
    clock = [0.0]

    def timed_pass(H, deltas):
        clock[0] += 1.0
        return delta_pass(H, deltas)

    monkeypatch.setattr(exact, "delta_pass", timed_pass)
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    _, out, _ = run(["sweep", "--H", "5,40", "--delta=-6,0,1,2000"], capsys)
    # delta = 0 and |delta| > 2H^2 read no pass; the others share one per H
    times = {(int(r["H"]), int(r["delta"])): float(r["wall_time_ms"])
             for r in csv.DictReader(io.StringIO(out))}
    assert times == {(5, -6): 1e3, (5, 0): 0, (5, 1): 1e3, (5, 2000): 0,
                     (40, -6): 1e3, (40, 0): 0, (40, 1): 1e3, (40, 2000): 1e3}


def test_sweep_deterministic_and_jobs_equal(tmp_path):
    args = ["sweep", "--H", "10,20,30", "--delta", "0,1,7", "--no-timing"]
    paths = [tmp_path / f"{i}.csv" for i in range(3)]
    assert main(args + ["--output", str(paths[0])]) == 0
    assert main(args + ["--output", str(paths[1])]) == 0
    assert main(args + ["--jobs", "8", "--output", str(paths[2])]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


# Heights and deltas for the one-pass tests, with _WINDOW_CELLS = 64 so
# that H = 40 spans 25 windows: 0, 1, the overhang edge (64, the largest
# delta that fits a window), past one window, and past H^2 and 2H^2 of
# each H, with both signs.
_PASS_WINDOW = 64
_PASS_H = (1, 2, 7, 40)
_PASS_D = sorted(
    {0, 1, 2, 17, _PASS_WINDOW, _PASS_WINDOW + 1, 3 * _PASS_WINDOW + 5}
    | {D for H in _PASS_H for D in (H * H, H * H + 1, 2 * H * H, 2 * H * H + 1)}
)


def test_sweep_rows_equal_the_per_delta_counts(monkeypatch, capsys):
    monkeypatch.setattr(tau_tables, "_WINDOW_CELLS", _PASS_WINDOW)
    deltas = sorted({s * D for D in _PASS_D for s in (1, -1)})
    argv = ["sweep", "--H", ",".join(map(str, _PASS_H)), f"--delta={','.join(map(str, deltas))}",
            "--no-timing"]
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == len(_PASS_H) * len(deltas)
    for r in rows:
        H, delta, exact = int(r["H"]), int(r["delta"]), int(r["exact"])
        assert exact == fast_count(H, delta, TauWindows(H)), (H, delta)
        if H <= 12:
            assert exact == naive_count(H, delta), (H, delta)


@pytest.mark.parametrize("cell_budget", [tau_tables.CELL_BUDGET, 1])
def test_count_prints_the_sweep_row(cell_budget, monkeypatch, capsys):
    # with 64-cell windows, H = 1, 2 and 7 read tau_H as one whole table
    # unless CELL_BUDGET refuses it, and H = 40 streams it either way
    monkeypatch.setattr(tau_tables, "_WINDOW_CELLS", _PASS_WINDOW)
    sources = {H: (build_tau_table(H), TauWindows(H)) for H in _PASS_H}
    monkeypatch.setattr(tau_tables, "CELL_BUDGET", cell_budget)
    for H in _PASS_H:
        deltas = {0, 1, -1, _PASS_WINDOW - 1, _PASS_WINDOW, _PASS_WINDOW + 1,
                  H * H, 2 * H * H, 2 * H * H + 1}
        for delta in sorted(deltas):
            code, out, err = run(["count", "--H", str(H), f"--delta={delta}"], capsys)
            assert (code, err) == (0, "")
            _, sweep, _ = run(["sweep", "--H", str(H), f"--delta={delta}", "--no-timing"], capsys)
            header, row = sweep.splitlines()
            columns = list(zip(header.split(","), row.split(",")))
            assert columns[:2] == [("H", str(H)), ("delta", str(delta))]
            assert out == "".join(f"{n} = {v}\n" for n, v in columns[2:]), (H, delta)
            got = fast_count(H, delta, table=delta_pass(H, [delta]))
            assert [fast_count(H, delta, table=t) for t in sources[H]] == [got, got], (H, delta)


def test_tau_shifted_sums_equal_the_whole_table(monkeypatch, capsys):
    monkeypatch.setattr(tau_tables, "_WINDOW_CELLS", _PASS_WINDOW)
    deltas = [D for D in _PASS_D if D >= 1]
    argv = ["tau", "--N", ",".join(map(str, _PASS_H)), f"--delta={','.join(map(str, deltas))}"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == len(_PASS_H) * len(deltas)
    for r in rows:
        N, delta = int(r["N"]), int(r["delta"])
        assert int(r["value"]) == shifted_sum(build_tau_table(N), delta), (N, delta)


# Commands that read passes over tau_N; with _WINDOW_CELLS = 64, N = 40
# spans 25 windows, and the deltas reach past one window, past N^2 and
# past 2N^2.
_FORKED = [
    ["count", "--H", "40", "--delta", "6"],
    ["count", "--H", "40", "--delta=-2000"],
    ["sweep", "--H", "7,40", "--delta=-65,0,1,64,1601,3200,3201", "--no-timing"],
    ["tau", "--N", "7,40", "--delta", "1,64,65,1600"],
    ["tau", "--N", "7,40", "--k", "3"],
]


@pytest.mark.parametrize("argv", _FORKED)
def test_every_worker_count_prints_the_same_bytes(argv, monkeypatch, capsys):
    monkeypatch.setattr(tau_tables, "_WINDOW_CELLS", _PASS_WINDOW)
    monkeypatch.setattr(tau_tables, "cpu_count", lambda: 1)
    want = run(argv, capsys)
    assert want[0] == 0
    for cpus in (2, 3, 4):
        monkeypatch.setattr(tau_tables, "cpu_count", lambda: cpus)
        assert run(argv, capsys) == want, cpus


def _counting_forks(monkeypatch, fail_after=None):
    """os.fork, counted in this process before the child exists; from
    call fail_after + 1 on it fails as when no pid is free."""
    forks, fork = [], os.fork

    def counting_fork():
        forks.append(None)
        if fail_after is not None and len(forks) > fail_after:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


@pytest.mark.parametrize("cpus, children", [(3, 2), (1_000_000, 4)])
def test_workers_are_capped_by_the_windows_and_the_cpus(cpus, children, monkeypatch, capsys):
    argv = ["count", "--H", "3000", "--delta", "7"]
    monkeypatch.setattr(tau_tables, "cpu_count", lambda: 1)
    want = run(argv, capsys)
    forks = _counting_forks(monkeypatch)
    monkeypatch.setattr(tau_tables, "cpu_count", lambda: cpus)
    assert run(argv, capsys) == want
    windows = -(-3000 * 3000 // tau_tables._WINDOW_CELLS)
    assert windows == 5 and len(forks) == min(windows, cpus) - 1 == children


@pytest.mark.parametrize("fail_after", [0, 1])
@pytest.mark.parametrize("argv", _FORKED)
def test_a_failed_fork_reads_its_share_in_the_command(fail_after, argv, monkeypatch, capsys):
    monkeypatch.setattr(tau_tables, "_WINDOW_CELLS", _PASS_WINDOW)
    monkeypatch.setattr(tau_tables, "cpu_count", lambda: 1)
    want = run(argv, capsys)
    monkeypatch.setattr(tau_tables, "cpu_count", lambda: 3)
    forks = _counting_forks(monkeypatch, fail_after)
    assert run(argv, capsys) == want
    assert forks  # a fork was tried, and every pass still added up
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_fork_warning_made_an_error_loses_no_child(monkeypatch, capsys):
    # Python 3.12+ warns in the parent, after the child exists, when a
    # process with threads forks; under -W error that warning would raise
    # before the child's pid is kept
    argv = ["tau", "--N", "7,40", "--k", "3"]
    monkeypatch.setattr(tau_tables, "_WINDOW_CELLS", _PASS_WINDOW)
    monkeypatch.setattr(tau_tables, "cpu_count", lambda: 1)
    want = run(argv, capsys)
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn("This process is multi-threaded, use of fork()", DeprecationWarning)
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    monkeypatch.setattr(tau_tables, "cpu_count", lambda: 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv, capsys) == want
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fail_in_workers(monkeypatch, fail):
    """64-cell windows and three CPUs, and every forked worker calls
    fail() before it sieves; this process sieves as before."""
    parent, sieve = os.getpid(), tau_tables._sieve

    def sieve_here(N, lo, hi):
        if os.getpid() != parent:
            fail()
        return sieve(N, lo, hi)

    monkeypatch.setattr(tau_tables, "_WINDOW_CELLS", _PASS_WINDOW)
    monkeypatch.setattr(tau_tables, "cpu_count", lambda: 3)
    monkeypatch.setattr(tau_tables, "_sieve", sieve_here)


def _refuse():
    raise BudgetError("no cells in a worker")


def _bad_value():
    raise ValueError("a bad value in a worker")


def _killed():
    os.kill(os.getpid(), signal.SIGKILL)


def _traceback():
    # a worker's stderr is /dev/null, so even a print reaches nobody
    print("a worker's traceback", file=sys.__stderr__, flush=True)
    raise BudgetError("no cells in a worker")


@pytest.mark.parametrize(
    "fail, code, err",
    [
        (_refuse, 2, "budget exceeded: no cells in a worker\n"),
        (_bad_value, 1, "error: a bad value in a worker\n"),
        (_killed, 2,
         "budget exceeded: a tau_N worker was killed by signal 9 before it sent its sums\n"),
        (_traceback, 2, "budget exceeded: no cells in a worker\n"),
    ],
)
@pytest.mark.parametrize("argv", _FORKED)
def test_a_failing_worker_gives_one_line_and_leaves_no_child(
    fail, code, err, argv, monkeypatch, capfd
):
    _fail_in_workers(monkeypatch, fail)
    assert main(argv) == code
    # capfd reads file descriptors, so a worker's traceback would show
    assert tuple(capfd.readouterr()) == ("", err)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_interrupt_kills_and_reaps_every_worker(monkeypatch, capfd):
    # the workers would run for a minute; this process is interrupted in
    # its own share
    _fail_in_workers(monkeypatch, lambda: time.sleep(60))
    monkeypatch.setattr(tau_tables, "_moment_window", mock.Mock(side_effect=KeyboardInterrupt))
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        main(["tau", "--N", "7,40", "--k", "3"])
    assert time.perf_counter() - t0 < 10
    assert tuple(capfd.readouterr()) == ("", "")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# A count whose three workers each write their pid to a file and then
# take 50 ms per 64-cell window: about two hours of work, unless a worker
# stops once its parent is gone.
_SLOW_WORKERS = """
import os, sys, time
from matcount import cli, tau_tables
parent, sieve = os.getpid(), tau_tables._sieve
def slow_sieve(N, lo, hi):
    if os.getpid() != parent:
        path = os.path.join(sys.argv[1], str(os.getpid()))
        if not os.path.exists(path):
            with open(path, "w"):
                pass
        time.sleep(0.05)
    return sieve(N, lo, hi)
tau_tables._WINDOW_CELLS = 64
tau_tables.cpu_count = lambda: 4
tau_tables._sieve = slow_sieve
sys.exit(cli.main(["count", "--H", "3000", "--delta", "7"]))
"""


def _running(pid: int) -> bool:
    """Whether pid is a live process: not gone and not a zombie left for
    an init that does not reap."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
def test_a_killed_command_leaves_no_worker_behind(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    proc = subprocess.Popen(
        [sys.executable, "-c", _SLOW_WORKERS, str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        deadline = time.monotonic() + 30
        while len(os.listdir(tmp_path)) < 3 and time.monotonic() < deadline:
            time.sleep(0.02)
        workers = [int(name) for name in os.listdir(tmp_path)]
        assert len(workers) == 3
    finally:
        proc.kill()
    # the workers hold neither of the command's pipes, so both reach EOF
    # as soon as the command is gone
    t0 = time.monotonic()
    proc.communicate(timeout=5)
    assert time.monotonic() - t0 < 1
    # and each worker stops before its next window
    deadline = time.monotonic() + 5
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not any(map(_running, workers))


@pytest.mark.parametrize("command", ["sweep", "tau"])
def test_one_pass_sieves_each_window_once(command, monkeypatch, capsys):
    monkeypatch.setattr(tau_tables, "_WINDOW_CELLS", _PASS_WINDOW)
    sieve, cells, windows, alive = tau_tables._sieve, {}, [], []

    def counting_sieve(N, lo, hi):
        alive.append(sum(ref() is not None for ref in windows))
        cells[N] = cells.get(N, 0) + hi - lo
        counts = sieve(N, lo, hi)
        windows.append(weakref.ref(counts))
        return counts

    monkeypatch.setattr(tau_tables, "_sieve", counting_sieve)
    # one worker: a forked worker's sieve calls are not counted here
    monkeypatch.setattr(tau_tables, "cpu_count", lambda: 1)
    # deltas inside the overhang: each window is sieved once for all of them
    deltas = [1, 2, 17, _PASS_WINDOW] + ([0, -1, -17, -_PASS_WINDOW] if command == "sweep" else [])
    flag = "--H" if command == "sweep" else "--N"
    argv = [command, flag, ",".join(map(str, _PASS_H)), f"--delta={','.join(map(str, deltas))}"]
    assert run(argv, capsys)[0] == 0
    for H in _PASS_H:
        # every window once with max(D) extra cells, cut at H^2: at most
        # H^2 + windows * max(D) cells; sweep also reads c2 and the
        # self-convolution of each distinct |delta| after the pass, at
        # most |D| + 2 cells each
        bound = sum(min(_PASS_WINDOW + max(deltas), H * H - lo) for lo in range(0, H * H, _PASS_WINDOW))
        if command == "sweep":
            bound += sum(D + 2 for D in {abs(d) for d in deltas if d})
        assert cells.get(H, 0) <= bound, (H, cells)
    assert cells[40] > 40 * 40  # 25 windows, each with its overhang
    # each pass window is dropped before the next one is sieved; a mirror
    # window is alive while its partner is sieved
    assert alive and max(alive) <= (1 if command == "sweep" else 0)


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
    for H, delta in ((5, 10**23), (12, 10**21)):
        code, out, err = run(["casework", "--H", str(H), "--delta", str(delta)], capsys)
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
        ("H,exact,main\n10,1e308,-1e308\n20,9,3\n40,30,2\n",  # |exact - main| = inf
         "fit_error_exponent() needs H >= 1 and finite exact, main and exact - main, "
         "got H=10, exact=1e+308, main=-1e+308"),
    ],
    ids=["short-row", "H-zero", "exact-inf", "no-main-column", "H-not-integer",
         "difference-overflows"],
)
def test_fit_rejects_bad_csv(body, message, tmp_path, capfd):
    # capfd, not capsys: it also catches what a library writes to file descriptor 1
    path = tmp_path / "rows.csv"
    path.write_text(body)
    code, out, err = run(["fit", str(path)], capfd)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    if message is not None:
        assert err.endswith(f"{message}\n")


@pytest.mark.parametrize("H", [2**64, 10**400], ids=["2^64", "10^400"])
def test_fit_takes_any_integer_H(H, tmp_path, capsys):
    path = tmp_path / "rows.csv"
    path.write_text(f"H,exact,main\n10,5,1\n20,9,1\n{H},20,1\n")
    code, out, err = run(["fit", str(path)], capsys)
    assert (code, err) == (0, "")
    assert [line.split(" = ")[0] for line in out.splitlines()] == [
        "exponent", "log_constant", "r_squared", "degenerate"
    ]


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
    assert region_sum_G_via_hyperbola(10, 3, RegionG.SL) != region_sum_G(10, 3, RegionG.SL)
    code, out, err = run(["casework", "--H", "10", "--delta", "3"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("invariant violation: G region SL: ") and err.count("\n") == 1


def test_a_wrong_total_names_its_sign_class(monkeypatch, capsys):
    real = exact.sign_class_count
    j_class = exact.SignClass(1, 1, -1)
    monkeypatch.setattr(exact, "sign_class_count",
                        lambda H, delta, s: real(H, delta, s) + (s == j_class))
    code, out, err = run(["casework", "--H", "12", "--delta", "5"], capsys)
    expected = real(12, 5, j_class)
    assert (code, out) == (3, "")
    assert err == f"invariant violation: J total {expected} != sign class (1,1,-1) {expected + 1}\n"


@pytest.mark.parametrize("delta", ["0", "-3"])
def test_casework_names_a_bad_delta(delta, capsys):
    code, out, err = run(["casework", "--H", "5", f"--delta={delta}"], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: casework requires --delta >= 1, got {delta}\n"


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
    # budget violations surface as exit 2: square_sum's byte budget
    assert run(["count", "--H", "62389816425", "--delta", "0"], capsys)[0] == 2


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
        # one message per value converter, pinned byte for byte below
        ["hyperbola", "--N", "0"],
        ["hyperbola", "--N", "x"],
        ["sweep", "--H", "5", "--delta", "1", "--jobs", "0"],
        ["count", "--H", "5", "--delta", "3", "--epsilon", "2"],
        ["count", "--H", "5", "--delta", "3", "--epsilon", "nan"],
        ["count", "--H", "5", "--delta", "3", "--epsilon", "x"],
        ["tau", "--N", "10,20", "--k", "x"],
        ["count", "--H", "5", "--delta", "1.5"],
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


# The messages of the value converters, which argparse passes through.
_BAD_VALUE_TEXTS = {
    ("hyperbola", "--N", "0"):
        "error: argument --N: expected a positive integer, got '0'\n",
    ("hyperbola", "--N", "x"):
        "error: argument --N: expected a positive integer, got 'x'\n",
    ("sweep", "--H", "5", "--delta", "1", "--jobs", "0"):
        "error: argument --jobs: expected a positive integer, got '0'\n",
    ("count", "--H", "5", "--delta", "3", "--epsilon", "2"):
        "error: argument --epsilon: expected a number in [0, 1], got '2'\n",
    ("count", "--H", "5", "--delta", "3", "--epsilon", "nan"):
        "error: argument --epsilon: expected a number in [0, 1], got 'nan'\n",
    ("count", "--H", "5", "--delta", "3", "--epsilon", "x"):
        "error: argument --epsilon: expected a number in [0, 1], got 'x'\n",
    ("tau", "--N", "10,20", "--k", "x"):
        "error: argument --k: expected an integer in 1..64, got 'x'\n",
    ("count", "--H", "5", "--delta", "1.5"):
        "error: argument --delta: expected a non-empty comma-separated integer list, got '1.5'\n",
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


# A command in a fresh process, then its exit code and whether numpy was
# imported: numpy builds numpy.linalg as it loads.
_IMPORTS_NUMPY = """
import sys
from matcount import cli
code = cli.main(sys.argv[1:])
print(code, "numpy.linalg" in sys.modules)
"""


@pytest.mark.parametrize("argv, code, numpy", [
    ("count --H 6000 --delta=0", 0, False),
    ("sweep --H 100,200 --delta 0 --no-timing", 0, False),
    ("tau --N 50,60 --k 1", 0, False),
    ("count --H 5 --delta 51", 0, False),  # |delta| > 2H^2 counts 0
    ("count --H 0 --delta 1", 1, False),
    # the fits are pure Python, and moment 2 is square_sum
    ("tau --N 1000,2000,4000 --k 2", 0, False),
    ("sweep --H 100,200,400 --delta 0 --fit --no-timing", 0, False),
    ("fit {csv}", 0, False),
    ("count --H 3000 --delta 7", 0, True),  # a pass over tau_H builds arrays
    ("tau --N 30,40 --delta 6", 0, True),
    ("casework --H 317 --delta 1", 2, False),  # refused before the first array
])
def test_numpy_is_imported_only_where_an_array_is_built(argv, code, numpy, tmp_path):
    assert _last_line(_IMPORTS_NUMPY, argv, tmp_path) == f"{code} {numpy}"


def _last_line(script: str, argv: str, tmp_path) -> str:
    """The last stdout line of script run in a fresh process on argv, in
    tmp_path, where {csv} names a three-row CSV that fit accepts."""
    csv_path = tmp_path / "rows.csv"
    csv_path.write_text("H,exact,main\n250,1000,900\n500,1400,1000\n1000,2300,1500\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv.format(csv=csv_path).split()],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent)),
    )
    return proc.stdout.splitlines()[-1]


# A command in a fresh process, then which of these stdlib modules have
# run: one bound through lazy_import that has not is still the lazy
# loader's module subclass.
_STDLIB = ("dataclasses", "inspect", "json", "signal", "pickle", "fractions")
_STDLIB_RUN = f"""
import sys, types
from matcount import cli
cli.main(sys.argv[1:])
print(*(name for name in {_STDLIB!r} if type(sys.modules.get(name)) is types.ModuleType))
"""


@pytest.mark.parametrize("argv, not_run", [
    ("count --H 6000 --delta=0", set(_STDLIB)),
    ("sweep --H 100,200,400 --delta 0 --fit --no-timing", set(_STDLIB)),
    ("tau --N 1000,2000,4000 --k 2", set(_STDLIB)),
    ("fit {csv}", set(_STDLIB)),
    ("count --H 0 --delta 1", set(_STDLIB)),
    # numpy itself runs inspect and pickle
    ("count --H 3000 --delta 7", {"dataclasses", "json", "signal"}),
    ("lemmas", {"dataclasses", "json", "signal", "fractions"}),
    ("tau --N 50,60 --k 1 --format json", set(_STDLIB) - {"json"}),
])
def test_each_command_runs_only_the_stdlib_modules_it_uses(argv, not_run, tmp_path):
    ran = set(_last_line(_STDLIB_RUN, argv, tmp_path).split())
    assert not ran & not_run, ran
    if "json" not in not_run:  # the control
        assert "json" in ran


# A command in a fresh process, then the matcount modules that have run:
# one that has not is still the lazy loader's module subclass.
_MODULES_RUN = """
import sys, types
from matcount import cli
cli.main(sys.argv[1:])
print(*sorted(name.split(".")[1] for name, module in sys.modules.items()
              if name.startswith("matcount.") and type(module) is types.ModuleType))
"""

_LIBRARY = {"arith", "asymptotics", "casework", "exact", "hyperbola", "lemmas", "reports",
            "rng", "tau_tables"}


@pytest.mark.parametrize("argv, not_run", [
    ("hyperbola --N 3 --seed 1", {"exact", "tau_tables", "asymptotics", "casework", "lemmas"}),
    ("lemmas", {"exact", "tau_tables", "asymptotics", "casework", "hyperbola", "rng"}),
    ("casework --H 12 --delta 5", {"asymptotics", "lemmas", "rng"}),
    ("count --H 6000 --delta=0", {"casework", "hyperbola", "lemmas", "rng"}),
    ("count --H 0 --delta 1", _LIBRARY),  # a usage error runs only cli and errors
    ("count --H 30 --delta 7", set()),
    # the region sums refuse past the cell budget before the total check
    ("casework --H 317 --delta 1", {"exact", "tau_tables", "arith", "asymptotics", "lemmas",
                                    "rng"}),
])
def test_each_command_runs_only_the_modules_it_calls(argv, not_run, tmp_path):
    ran = set(_last_line(_MODULES_RUN, argv, tmp_path).split())
    assert {"cli", "errors"} <= ran and not ran & not_run, ran
    if not not_run:  # the control: a pass over tau_H
        assert {"exact", "tau_tables"} <= ran


@pytest.mark.parametrize("argv", [
    ["sweep", "--H", "5,10,20", "--delta", "1,2", "--fit"],
    ["tau", "--N", "30,40", "--delta", "6"],
    ["tau", "--N", "30,40", "--k", "3"],
    ["hyperbola", "--N", "3"],
    ["lemmas"],
])
def test_a_failed_output_gives_one_line(argv, tmp_path, capsys):
    code, out, err = run(argv + ["--output", str(tmp_path / "missing" / "x")], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs Linux RLIMIT_AS")
def test_memory_error_exits_2():
    import resource

    # below the 247 MB of address space that square_sum takes at the top of
    # its byte budget, above the 108 MB of a streamed count
    limit = 200 * 2**20

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
    big = child("count", "--H", "62389816424", "--delta", "0")  # its phi sieve fails
    assert time.perf_counter() - t0 < 5
    assert (big.returncode, big.stdout) == (2, "")
    assert big.stderr.startswith("budget exceeded: ") and big.stderr.count("\n") == 1
    small = child("count", "--H", "100", "--delta", "6")
    assert (small.returncode, small.stderr) == (0, "")
    assert small.stdout.startswith("exact = 195184\n")
    # every read of tau_H streams one window at a time, so a large H fits,
    # and one pass serves all the deltas of a sweep
    windowed = child("count", "--H", "14000", "--delta", "6")
    assert (windowed.returncode, windowed.stderr) == (0, "")
    assert windowed.stdout.startswith("exact = 3813148592\n")
    swept = child("sweep", "--H", "14000", "--delta", "1,6", "--no-timing")
    assert (swept.returncode, swept.stderr) == (0, "")
    assert "\n14000,6,3813148592," in swept.stdout


# A module body that fails as numpy's does when its shared libraries
# cannot be mapped: the cause first, then a message that opens blank.
_UNLOADABLE = """
try:
    raise ImportError("libx.so: failed to map segment from shared object")
except ImportError as cause:
    raise ImportError("\\n\\nIMPORTANT: PLEASE READ THIS\\n") from cause
"""


@pytest.mark.parametrize("name, source, code, err", [
    ("absent_dependency", None, 1, "error: No module named 'absent_dependency'\n"),
    ("unloadable_dependency", _UNLOADABLE, 2, "budget exceeded: could not load "
     "unloadable_dependency: libx.so: failed to map segment from shared object\n"),
])
def test_a_failed_import_gives_one_line(name, source, code, err, tmp_path, monkeypatch,
                                        capsys):
    if source is not None:
        (tmp_path / f"{name}.py").write_text(source)
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(asymptotics, "report", lambda *args, **kwargs: __import__(name))
    assert run(["count", "--H", "100", "--delta", "6"], capsys) == (code, "", err)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs Linux RLIMIT_AS")
def test_numpy_that_cannot_load_exits_2():
    import resource

    limit = 48 * 2**20  # above a command without numpy, below numpy's libraries

    def child(*argv):
        return subprocess.run(
            [sys.executable, "-m", "matcount.cli", *argv],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1",
                     PYTHONPATH=str(Path(cli.__file__).resolve().parents[1])),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )

    control = child("count", "--H", "100", "--delta", "0")
    if control.returncode != 0:
        pytest.skip(f"python without numpy does not start under 48 MiB: {control.stderr}")
    failed = child("count", "--H", "100", "--delta", "6")
    assert (failed.returncode, failed.stdout) == (2, "")
    assert failed.stderr.startswith("budget exceeded: could not load ")
    assert failed.stderr.count("\n") == 1


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


# Reads at N = 30 and 40, one pass per N for one delta or for several,
# and their stdout and stderr: the values of the whole-table routes.
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
    ("sweep", "--H", "40", "--delta", "1,6", "--no-timing"): (
        "H,delta,exact,main,error,normalized_error,bound\n"
        "40,1,15668,15562.9338075,105.066192537,0.155294834271,676.55948139\n"
        "40,6,31600,31125.8676149,474.132385074,0.700799261729,676.55948139\n",
        "",
    ),
    ("tau", "--N", "30,40", "--delta", "1,6"): (
        "N,delta,value\n30,1,1050\n40,1,1878\n30,6,2042\n40,6,3618\n",
        "delta=1: slope=0.0246220881022 vs log-candidate 1.21585420371 "
        "-> shifted_nolog_candidate\n"
        "delta=6: slope=-0.0265532322671 vs log-candidate 2.43170840742 "
        "-> shifted_nolog_candidate\n",
    ),
}


@pytest.mark.parametrize("argv", list(_STREAMED))
def test_single_pass_reads_stream_past_the_cell_budget(argv, monkeypatch, capsys):
    want = (0, *_STREAMED[argv])
    assert run(list(argv), capsys) == want
    # no whole table of N = 40 fits the budget, and none is needed
    monkeypatch.setattr(tau_tables, "CELL_BUDGET", 40 * 40)
    assert run(list(argv), capsys) == want


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


def test_sweep_refuses_a_large_H_before_reading_a_smaller_one(monkeypatch, capsys):
    # largest H first, as tau reads its N, so the H = 20000 pass is never read
    seen = []

    def recording_pass(H, deltas):
        seen.append(H)
        return delta_pass(H, deltas)

    monkeypatch.setattr(exact, "delta_pass", recording_pass)
    code, out, err = run(["sweep", "--H", "20000,46341", "--delta", "6", "--no-timing"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: tau_N with N=46341: N^2 >= 2^31 overflows uint16 cells\n"
    assert seen == [46341]


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


@pytest.mark.parametrize("body, message", [
    ("", "Expecting value: line 1 column 1 (char 0)"),
    ("[1, 2]", "config file must hold a JSON object"),
    # the explicit --config used to outrank its key, unread
    ('{"H": 5, "delta": 1, "config": "other.json"}',
     "a config file cannot name another config file"),
])
def test_a_bad_config_names_its_file(body, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(body)
    code, out, err = run(["count", "--config", str(cfg), "--H", "3", "--delta", "1"], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {cfg}: {message}\n"


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
