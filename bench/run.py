"""matcount benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload det-sweep --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is the checkout's `src/matcount`.

--trace 0 is a closed loop with one client: each op is a fresh
`python -m matcount.cli` process, started only after the previous one
has exited, timed from spawn to exit, with its peak RSS from
`os.wait4`.  The op list repeats until `--seconds` would be exceeded
(at least one round).  Prints the end-to-end metrics; times are scaled
by a baseline spawn measured in the same run (see BASELINE_S).

--trace 1 runs the same op lists in this process through
`matcount.cli.main(argv)` with stdout captured: rounds alternate an
untraced pass and a span-timing pass until `--seconds`, then one
allocation pass runs under tracemalloc, which slows the pure-Python
layers several-fold and so is kept out of the timings.  Prints the
per-layer metrics.

Every op's output is checked against references that `oracle.py`
computes before the timed loop.  The last stdout line is the JSON
result {correct, attempted, failed, metrics}; the lines before it hold
the environment record and a per-op report.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass

import numpy as np

import oracle
import spans
from ops import BENCH, ROOT, SRC, WORK_UNITS, WORKLOADS, Op, make_ops

END_TO_END = {
    "round_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP = ["-c", "import matcount.cli"]
SETUP_SPAWNS = 4  # before the first round; one more precedes each round
# The speed of a shared host drifts by up to 1.8x over minutes, in CPU time
# as well as wall time.  Times are scaled by BASELINE_S / (the median time,
# in the same run, of a spawn that imports only numpy), so they read as
# seconds on a machine where that spawn takes BASELINE_S.
BASELINE = ["-c", "import numpy"]
BASELINE_S = 0.15
HARD_LIMIT_S = 150.0  # a run stops starting ops and kills a running one past this


@dataclass
class Outcome:
    name: str
    wall: float
    error: str | None
    rss_mb: float = 0.0
    cpu: float = 0.0


class Launcher:
    """The launch.py process; `run` starts one op and waits for it."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "launch.py")], cwd=ROOT, env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, args: list[str], timeout: float) -> dict:
        self.proc.stdin.write(json.dumps({"args": args, "timeout": timeout}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("op launcher exited")
        return json.loads(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


def closed_loop(ops: list[Op], want: list, seconds: float, deadline: float):
    """Untraced end-to-end run: setup and baseline spawns, then rounds of
    the op list with a baseline spawn before each op."""
    setup, base = [], []
    with Launcher() as launcher:

        def timed(args, into):
            r = launcher.run(args, 60)
            if r["rc"] != 0:
                raise SystemExit(f"{' '.join(args)} failed: {r['err'].strip()}")
            into.append(r["wall"])

        for _ in range(SETUP_SPAWNS + 1):
            timed(SETUP, setup)
            timed(BASELINE, base)
        del setup[0], base[0]  # the first spawns warm the page and bytecode caches
        outcomes: list[Outcome] = []
        t0 = time.perf_counter()
        rounds = 0
        while True:
            timed(SETUP, setup)  # one per round, so setup_s samples the whole run
            for op, ref in zip(ops, want):
                left = deadline - time.perf_counter()
                if left <= 0:
                    break
                timed(BASELINE, base)
                r = launcher.run(["-m", "matcount.cli", *op.argv], left)
                error = oracle.check(op, r["rc"], r["out"], ref)
                if error and r["rc"] != 0:
                    error += ": " + r["err"].strip()[-300:]
                outcomes.append(Outcome(op.name, r["wall"], error, r["maxrss_kb"] / 1024, r["cpu"]))
            rounds += 1
            elapsed = time.perf_counter() - t0
            if elapsed * (rounds + 1) / rounds > seconds or time.perf_counter() >= deadline:
                break
    by_op = [[o for o in outcomes if o.name == op.name] for op in ops]
    by_op = [mine for mine in by_op if mine]
    work = {op.name: op.work for op in ops}
    raw = {
        "round_s": sum(statistics.median(o.wall for o in mine) for mine in by_op),
        "work_per_s": sum(work[o.name] for o in outcomes if o.error is None) / sum(o.wall for o in outcomes),
        "setup_s": statistics.median(setup),
    }
    scale = BASELINE_S / statistics.median(base)
    metrics = {
        "round_s": raw["round_s"] * scale,
        "work_per_s": raw["work_per_s"] / scale,
        # the median over an op's runs: the overlap of --jobs threads varies from run to run
        "peak_rss_mb": max(statistics.median(o.rss_mb for o in mine) for mine in by_op),
        "setup_s": raw["setup_s"] * scale,
    }
    unscaled = ", ".join(f"{k} {v}" for k, v in raw.items())
    summary = (f"rounds {rounds}; unscaled {unscaled}; baseline median {statistics.median(base)} s"
               f" over {len(base)}, scale {scale}")
    return metrics, outcomes, summary


def call_main(main, argv) -> tuple[int | str, str]:
    """matcount.cli.main(argv) with stdout and stderr captured."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(list(argv))
    except Exception:  # a crash is a failed op, reported with its traceback
        return "raised " + traceback.format_exc(limit=-3), out.getvalue()
    return rc, out.getvalue()


def traced_run(ops: list[Op], want: list, seconds: float, deadline: float):
    """In-process run: untraced and span-timed rounds, then one
    allocation pass; per-layer metrics are medians over timed rounds."""
    sys.path.insert(0, str(SRC))
    import matcount.cli as cli

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(SRC)):
        raise SystemExit(f"imported {cli.__file__}, not the checkout's src/")
    outcomes: list[Outcome] = []

    def one(op, ref, tracer=None):
        t = time.perf_counter()
        if tracer is None:
            rc, out = call_main(cli.main, op.argv)
        else:
            with tracer.op(op.name):
                rc, out = call_main(cli.main, op.argv)
        wall = time.perf_counter() - t
        outcomes.append(Outcome(op.name, wall, oracle.check(op, rc, out, ref)))
        return wall

    per_round = []
    plain = traced = 0.0
    t0 = time.perf_counter()
    while True:
        plain += sum(one(op, ref) for op, ref in zip(ops, want))
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            for op, ref in zip(ops, want):
                one(op, ref, tracer)
        traced += sum(root.duration for root in tracer.roots)
        per_round.append(spans.layer_metrics(tracer.roots))
        elapsed = time.perf_counter() - t0
        if elapsed * (len(per_round) + 1) / len(per_round) > seconds or time.perf_counter() >= deadline:
            break
    metrics = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
    metrics["trace.overhead"] = traced / plain - 1

    tracer = spans.Tracer(alloc=True)
    tracemalloc.start()
    try:
        with spans.instrument(tracer):
            for op, ref in zip(ops, want):
                one(op, ref, tracer)
    finally:
        tracemalloc.stop()
    metrics.update(spans.peak_metrics(tracer.roots))
    summary = f"rounds {len(per_round)}; untraced in-process wall {plain} s, traced {traced} s"
    return {name: metrics[name] for name in spans.PER_LAYER}, outcomes, summary


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "matcount").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_before": os.getloadavg(),
    }


def report(outcomes: list[Outcome], ops: list[Op]) -> list[str]:
    lines = []
    for op in ops:
        mine = [o for o in outcomes if o.name == op.name]
        if not mine:
            continue
        walls = sorted(o.wall for o in mine)
        line = (f"op {op.name}: {op.argv[0]}_s median {statistics.median(walls):.4f} s over {len(walls)}"
                f" (min {walls[0]:.4f}, max {walls[-1]:.4f})")
        if mine[0].rss_mb:  # measured only for child processes
            line += (f", peak rss {max(o.rss_mb for o in mine):.1f} MB,"
                     f" median cpu {statistics.median(o.cpu for o in mine):.4f} s")
        lines.append(f"{line}; matcount {' '.join(op.argv)}")
    for o in outcomes:
        if o.error:
            lines.append(f"FAILED {o.name}: {o.error}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "matcount" / "cli.py").is_file():
        print(f"error: no matcount sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + HARD_LIMIT_S
    env = environment(args)
    ops = make_ops(args.workload, args.seed)
    want = oracle.expected(ops)
    if args.trace:
        metrics, outcomes, summary = traced_run(ops, want, args.seconds, deadline)
        units = spans.PER_LAYER
    else:
        metrics, outcomes, summary = closed_loop(ops, want, args.seconds, deadline)
        units = END_TO_END
    env["loadavg_after"] = os.getloadavg()
    failed = sum(o.error is not None for o in outcomes)
    print(json.dumps({"env": env}))
    for line in report(outcomes, ops):
        print(line)
    print(f"{summary}; failed_frac {failed / len(outcomes)}; work unit: {WORK_UNITS[args.workload]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
