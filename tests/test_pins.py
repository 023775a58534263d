"""Pinned commands, each run as a process: exact counts at production
sizes under an address-space limit, digests of whole outputs and of
their exact columns, refusals with their one stderr line, and runs that
print the same bytes when pinned to one CPU.  README's CLI block names
only commands of this table."""

import hashlib
import os
import shlex
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from matcount.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


class Pin(NamedTuple):
    """A command and its one expected check.

    argv follows `python -m matcount.cli`, run in a directory that holds
    rows.csv.  mib is its address-space limit in MiB (RLIMIT_AS), or
    None; timeout is in seconds.  check is one of
      ("stdout", sha256 of stdout),
      ("columns", sha256 of stdout cut to its first three columns),
      ("lines", one or more lines of stdout, each a line's start
       unless it ends with its newline),
      ("exit", the exit code, all of stderr: one line).
    With one_cpu the command runs again pinned to one CPU and prints the
    same stdout."""
    argv: str
    mib: int | None
    timeout: int
    check: tuple
    one_cpu: bool = False


# What `fit rows.csv` reads.
_FIT_ROWS = "H,exact,main\n250,1000,900\n500,1400,1000\n1000,2300,1500\n"

PINS = [
    # count streams tau_H one window at a time; at most one worker per
    # CPU and per two windows, and pinned to one CPU it prints the same bytes
    Pin("count --H 20000 --delta 6", 300, 60, ("lines", "exact = 7781598832\n"), one_cpu=True),
    # two windows: the command reads its pass alone at any CPU count
    Pin("count --H 2000 --delta 7", 300, 60, ("lines", "exact = 44485472\n"), one_cpu=True),
    Pin("count --H 1000000 --delta 0", 300, 10, ("lines", "exact = 146292133565185\n")),
    # the largest H that square_sum's byte budget admits
    Pin("count --H 62389816424 --delta 0", 300, 30,
        ("lines", "exact = 987470534065504457660097\n")),
    # count at delta = 0 imports no numpy while its phi sieve fits a list
    # (H up to about 7 * 10^5), so it runs under 64 MiB, where `import numpy` fails
    Pin("count --H 6000 --delta 0", 64, 10, ("lines", "exact = 3476462721\n")),
    Pin("count --H 46340 --delta 0", 64, 10, ("lines", "exact = 249982967585\n")),
    # the line fits are pure Python, so moment 2 and fit import no numpy either
    Pin("tau --N 1000,2000,4000 --k 2", 64, 10, ("lines", "4000,2,153245680\n")),
    Pin("fit rows.csv", 64, 10, ("lines", "exponent = 1.5\n")),
    # sweep and tau stream one pass over tau_N per N; a whole table of
    # N = 20000 would be 800 MB
    Pin("tau --N 20000 --k 3", 300, 60,
        ("stdout", "c28c0bd158e8f54faec325965b9c7fe7bda6081cc38812a1feac98d4fe00ea3c")),
    Pin("tau --N 14000 --k 3", 300, 60,
        ("stdout", "96477a83a1da04a090ed17fb5090a0c96704d1eb945f3926eb42124e27bf0064"),
        one_cpu=True),
    Pin("sweep --H 20000 --delta 6 --no-timing", 300, 60, ("lines", "20000,6,7781598832,")),
    # one pass serves both deltas
    Pin("sweep --H 20000 --delta 6,7 --no-timing", 300, 60,
        ("lines", "20000,6,7781598832,", "20000,7,4446953760,")),
    # N = 20000 at delta = 6 agrees with count: 2(4H+1)*8 + 8*972539842 + 4*20
    Pin("tau --N 14000,20000 --delta 1,6", 300, 60,
        ("stdout", "e9585472f71a37611f6ecdbd002e740beeb4f9d64a597a4885ea4b551b347870")),
    # the window edge (2^21 cells); only the exact columns are pinned, so a
    # main-term change leaves these pins alone
    Pin("sweep --H 2000,3000 --delta=6,2097152,2097153 --no-timing", 300, 60,
        ("columns", "4486504b275b07e6b3f6eca5a48dcce07d3053793e6878f6cb329a575dbca129")),
    # one pass per H, its row 10000,6,1945430000 among them
    Pin("sweep --H 9000,10000 --delta 1,6 --no-timing --jobs 2", 300, 60,
        ("stdout", "dd83f31825ab819678a1b4f72227604254ab1285daa5b39a3408d68c74caf54f")),
    # the bench's tau_N pass commands: det-sweep's seed-1 sweep without --jobs
    Pin("sweep --H 1000,2000,4000 --delta=2993,-5928,-7908,3787 --fit --no-timing", 300, 60,
        ("columns", "aad3191d2c45ffd7ce34b1f9ac689b6b288791e9ca4778383ff561858fd67abf"),
        one_cpu=True),
    Pin("tau --N 1000,2000,4000 --delta=1729,2237", 300, 60,
        ("stdout", "a5c843fa53698fa022fea6e49e4d6a03c1e37aabf6e41ab14fac2a28a677425c"),
        one_cpu=True),
    # the lags 2^15 - 1, 2^15 and 2^15 + 1 around the dot's float64 block
    Pin("tau --N 2000,3000 --delta=32767,32768,32769", 300, 60,
        ("stdout", "8c0f9067839c7243be9657a560b75f1bfc2a247797f0c46052f9970e2270ba0c"),
        one_cpu=True),
    # lemmas and hyperbola; the modular bench's hyperbola and casework ops at their own sizes
    Pin("lemmas", 300, 30,
        ("stdout", "7c2ed16c415be3870e8b726ce9c9949947e47c7d76539fa0394daf017d3a98c0")),
    Pin("lemmas --output missing/x", 300, 30,
        ("exit", 1, "error: [Errno 2] No such file or directory: 'missing/x'\n")),
    Pin("hyperbola --N 2000 --seed 1", 300, 60,
        ("stdout", "b830a1130cf437150293a6be1f3fd9b1228e4ba233a971f9145f9c5336962451")),
    Pin("hyperbola --N 150 --seed 187425552", 300, 30,
        ("stdout", "8c370d7f689cd0b4d3c2cb077a3a7b401e0fa2e18eabe6ef68e51f20b7423f4d")),
    Pin("casework --H 120 --delta 903", 300, 30,
        ("stdout", "109c20595d4ef3df183f150c29a6366b013e3eeb8f06277ddd5c4d6ad0ddf62b")),
    # casework at the cell budget's edge
    Pin("casework --H 316 --delta 50000", 300, 60,
        ("stdout", "aa74636a238d4dce6ec288d778e2491824ae916f7aa526914a227cac0b99bdac")),
    # the largest casework again, under less address space: its sign-class
    # histogram and both routes' grids are O(H^2); 27720 has 96 divisors,
    # and its a >= 88 carry a b = 0 point of G
    Pin("casework --H 316 --delta 27720", 128, 60,
        ("stdout", "662f391fa63840b5737706f58c3681bbf7885fb04db289458e96521523f15a5e")),
    # 777 = 3*7*37: six values of a carry a b = 0 point of G
    Pin("casework --H 300 --delta 777", 300, 60,
        ("stdout", "fed8657d1450a9834ecf5fa9d0ad201fda6fabc01227cb97161f4d0af9de5dce")),
    # one past the budget: the first region sum refuses
    Pin("casework --H 317 --delta 1", 300, 10,
        ("exit", 2, "budget exceeded: casework(H=317) visits 100489 cells, budget is 100000\n")),
    # README's commands
    Pin("count --H 2000 --delta 6", 300, 60, ("lines", "exact = 77839152\n")),
    Pin("sweep --H 250,500,1000,2000 --delta 1 --fit --no-timing", 300, 60,
        ("columns", "b659241972086a3c5a9a20b97b098169b813832c032c4520c78cc6cfb04ec879")),
    Pin("tau --N 500,1000,2000,4000 --k 2", 300, 60,
        ("stdout", "dcc10471ea99a15ae90bc1b33d83cbe01c9bdaf8ef311fc39493d1fff1d897eb")),
    Pin("tau --N 500,1000,2000 --delta 1", 300, 60,
        ("stdout", "b6c17bdc894c6a9da39c897cee9e808fe6643022a7de94c87c0eeda528647c11")),
    Pin("hyperbola --N 500 --seed 7 --epsilon 0.25", 300, 60,
        ("stdout", "078c21a992edfec9cabe8eacae0bc8f854ab847534185c3ac0b83d8700dec870")),
    Pin("casework --H 40 --delta 60", 300, 60,
        ("stdout", "b2dfd1d2cd82a086ba3f4fec9c86f42a6b1074daf1b146382581653f85e0c789")),
    Pin("fixtures", 300, 60,
        ("stdout", "f8df326233d805ade81f47d0157532c84db9219a8962d351112cf4807afacffe")),
    # frozen from the Fraction-endpoint hyperbola (the first) and from the
    # per-u hyperbola and per-(a, c) sign-class loops (the last two), so
    # float main terms are pinned
    Pin("hyperbola --N 40 --seed 7 --epsilon 0.25", None, 60,
        ("stdout", "3ae2c4a88833a16062941cd29e0f0ef63e8306c459e7f3a854f51dd7740232e4")),
    Pin("hyperbola --N 150 --seed 12345", None, 60,
        ("stdout", "cf5f7efc6df4dc685553ea514a11cd4ede9e03651b634389328053390de4594a")),
    Pin("casework --H 120 --delta 777", None, 60,
        ("stdout", "5751fdfc407fb2c030fdd75093c0893a83bbd675062226846319105835ee258a")),
]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs Linux RLIMIT_AS and sched_setaffinity")
@pytest.mark.parametrize("pin", PINS, ids=[pin.argv for pin in PINS])
def test_a_pinned_command_prints_its_pin(pin, tmp_path, spawn):
    (tmp_path / "rows.csv").write_text(_FIT_ROWS)

    def command(cpu=None):
        return spawn("-m", "matcount.cli", *pin.argv.split(), mib=pin.mib, cpu=cpu,
                     timeout=pin.timeout, cwd=tmp_path)

    proc = command()
    kind, *want = pin.check
    if kind == "exit":
        assert (proc.returncode, proc.stderr) == tuple(want)
    else:
        assert proc.returncode == 0, proc.stderr
    if kind == "lines":
        for line in want:
            assert f"\n{line}" in f"\n{proc.stdout}", line
    elif kind in ("stdout", "columns"):
        text = proc.stdout if kind == "stdout" else "".join(
            ",".join(line.split(",")[:3]) + "\n" for line in proc.stdout.splitlines())
        assert hashlib.sha256(text.encode()).hexdigest() == want[0], kind
    if pin.one_cpu:
        pinned = command(cpu=min(os.sched_getaffinity(0)))
        assert (pinned.returncode, pinned.stdout) == (proc.returncode, proc.stdout)


def test_readme_cli_lines_are_pinned(tmp_path, monkeypatch, capsys):
    block = README.read_text().split("## CLI", 1)[1].split("```")[1]
    commands = [shlex.split(line.split("#", 1)[0])[1:]
                for line in block.splitlines() if line.startswith("matcount ")]
    assert len(commands) >= 8
    pinned = [pin.argv.split() for pin in PINS]
    for argv in commands:
        build_parser().parse_args(argv)
        if "--output" in argv:
            i = argv.index("--output")
            argv = argv[:i] + argv[i + 2:]
        assert argv in pinned or argv[0] == "fit", argv
    # fit reads the CSV of README's sweep; no value is pinned, since the
    # fit reads the main term
    monkeypatch.chdir(tmp_path)
    (sweep,) = [argv for argv in commands if argv[0] == "sweep"]
    (fit,) = [argv for argv in commands if argv[0] == "fit"]
    assert main(sweep + ["--output", fit[1]]) == 0
    capsys.readouterr()
    assert main(fit) == 0
    rows = [line.split(" = ") for line in capsys.readouterr().out.splitlines()]
    assert [name for name, _ in rows] == ["exponent", "log_constant", "r_squared", "degenerate"]
    assert all(value for _, value in rows)
