"""Command-line surface: single-point counts, parameter sweeps, moment
and lemma regressions, hyperbola diagnostics, and fixture generation.

Subcommands: count, sweep, tau, hyperbola, lemmas, casework, fit,
fixtures.  Each subcommand declares only the flags it reads, except that
sweep and hyperbola still accept --jobs: it is validated as a positive
integer and has no effect.  Every pass over tau_N (count, sweep, tau)
deals its windows to at most one worker per CPU the process may run on
and per two windows, forked from the command, and adds up their exact
sums, so no output depends on the host; --config names a JSON object
of flag values, which is parsed by the same parser as the command line,
and explicit flags win.  All randomness flows from --seed through a
splitmix-style 64-bit generator, so identical (config, seed) pairs
produce byte-identical output (suppress the timing column with
--no-timing).  Every command streams
tau_N one window at a time, and one pass over tau_N serves every delta
of an N.  count prints sweep's row at its one point, a name = value
line for each column after H and delta.  The sweep emits one row per
distinct (delta, H) point, sorted; it reads its H values one at a time,
largest first, so a too large H is refused before any pass is read.
The deltas 0 < |delta| <= 2H^2 of an H share one pass, timed once,
and each of their rows' wall_time_ms is the pass time plus the row's
own report time, while the other rows report only their own.  tau
likewise emits one row per distinct (delta, N); it reads one pass per
N, one N at a time, largest first, for all of its deltas, or streams a
moment of order k >= 3; its first two moments read no tau_N at all.
A command runs only the library modules that it calls, at its first
call into each, and a usage error runs none of them.  A command that
writes rows prints its stderr summary after them, so an --output that
cannot be written leaves one error line.
Exit codes: 0 success, 1 usage error, 2 resource budget exceeded,
3 internal invariant violation, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    gc.disable()  # before the imports below, as run() would; see its docstring

import argparse
import csv
import errno
import io
import os
import sys
import time

from . import __version__, lazy_import
from .errors import BudgetError, InvariantError, UsageError, import_failure

# The library modules run at a command's first read of one of their
# names, so each command runs only the modules that it calls.
asymptotics = lazy_import("matcount.asymptotics")
casework = lazy_import("matcount.casework")
exact = lazy_import("matcount.exact")
hyperbola = lazy_import("matcount.hyperbola")
lemmas = lazy_import("matcount.lemmas")
rng = lazy_import("matcount.rng")
tau_tables = lazy_import("matcount.tau_tables")
json = lazy_import("json")  # only --format json and --config read it


def _fmt(x) -> str:
    """Deterministic cell format: reals at 12 digits, anything else verbatim."""
    return "%.12g" % x if isinstance(x, float) else str(x)


def _checked(parse, ok, expected: str):
    """A flag value type: parse(text) where it parses and ok accepts it,
    else the one line "expected <expected>, got 'text'"."""

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            pass
        else:
            if ok(value):
                return value
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return convert


_int_list = _checked(
    lambda text: [int(tok) for tok in text.split(",") if tok != ""],
    bool,
    "a non-empty comma-separated integer list",
)


def _positive_int_list(text: str) -> list[int]:
    """A list of sizes, each at least 1: --H and tau's --N."""
    values = _int_list(text)
    bad = [v for v in values if v < 1]
    if bad:
        raise argparse.ArgumentTypeError(f"expected positive integers, got {bad[0]} in {text!r}")
    return values


_positive_int = _checked(int, lambda n: n >= 1, "a positive integer")

# tau's largest --k: tau_N(n) <= 1600 for every N the uint16 cells admit,
# so each k-th moment of tau_N stays below 2^31 * 1600^64 < 10^215, a
# float that prints in full.  k = 1 and 2 read no tau_N.
MAX_MOMENT_ORDER = 64
_moment_order = _checked(
    int, lambda k: 1 <= k <= MAX_MOMENT_ORDER, f"an integer in 1..{MAX_MOMENT_ORDER}"
)


class _Parser(argparse.ArgumentParser):
    """argparse variant that raises UsageError instead of exiting."""

    def error(self, message):
        raise UsageError(message)


def _emit(rows: list[dict], args, extra: dict | None = None, summary: list[str] | None = None):
    """Write rows as CSV or JSON to --output (or stdout), the first row's
    keys naming the columns, then the summary lines to stderr, so an
    output that cannot be written leaves only the error line there."""
    columns = list(rows[0])
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])
        text = buf.getvalue()
    else:
        payload = {
            "version": __version__,
            "config": {
                k: v
                for k, v in sorted(vars(args).items())
                if k not in ("func", "config") and v is not None
            },
            "rows": [
                {c: float(_fmt(v)) if isinstance(v, float) else v for c, v in row.items()}
                for row in rows
            ],
        }
        if extra:
            payload.update(extra)
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for line in summary or ():
        print(line, file=sys.stderr)


def _single_point(args) -> tuple[int, int]:
    """The one (H, delta) point that count and casework take."""
    if args.H is None or args.delta is None:
        raise UsageError(f"{args.command} requires --H and --delta")
    if len(args.H) != 1 or len(args.delta) != 1:
        raise UsageError(f"{args.command} takes exactly one --H and one --delta value")
    return args.H[0], args.delta[0]


def _cmd_count(args) -> int:
    H, delta = _single_point(args)
    (row,) = _sweep_rows(H, [delta], args.epsilon, timing=False)
    for name, value in list(row.items())[2:]:  # the columns after H and delta
        print(f"{name} = {_fmt(value)}")
    return 0


def _sweep_rows(H: int, deltas: list[int], epsilon: float, timing: bool) -> list[dict]:
    """Rows of one H.  Its deltas 0 < |delta| <= 2H^2 share one pass over
    tau_H (delta_pass), timed once; delta = 0 is counted without it, and
    |delta| > 2H^2 counts 0.  A row that reads the pass reports the pass
    time plus its own report time; the others report only their own."""
    t0 = time.perf_counter()
    sums = exact.delta_pass(H, deltas)
    pass_ms = (time.perf_counter() - t0) * 1e3
    rows = []
    for delta in deltas:
        t0 = time.perf_counter()
        rep = asymptotics.report(H, delta, epsilon=epsilon, table=sums)
        row = {
            "H": H,
            "delta": delta,
            "exact": rep.exact,
            "main": rep.main,
            "error": rep.error,
            "normalized_error": rep.normalized,
            "bound": rep.bound,
        }
        if timing:
            own_ms = (time.perf_counter() - t0) * 1e3
            row["wall_time_ms"] = (pass_ms if abs(delta) in sums.terms else 0.0) + own_ms
        rows.append(row)
    return rows


def _cmd_sweep(args) -> int:
    if args.H is None or args.delta is None:
        raise UsageError("sweep requires --H and --delta lists")
    timing = not args.no_timing
    deltas = sorted(set(args.delta))
    # one H at a time, so at most one pass is alive, largest H first, so
    # that a too large H is refused before the others are read
    rows = [
        row
        for H in sorted(set(args.H), reverse=True)
        for row in _sweep_rows(H, deltas, args.epsilon, timing)
    ]
    rows.sort(key=lambda r: (r["delta"], r["H"]))
    extra, summary = None, []
    if args.fit:
        fits = {}
        for delta in deltas:
            sub = [
                (r["H"], float(r["exact"]), r["main"])
                for r in rows
                if r["delta"] == delta
            ]
            fit = asymptotics.fit_error_exponent(sub)
            fits[str(delta)] = {
                "exponent": fit.exponent,
                "r_squared": fit.r_squared,
                "degenerate": fit.degenerate,
            }
            summary.append(
                f"fit delta={delta}: exponent={_fmt(fit.exponent)} r2={_fmt(fit.r_squared)}"
            )
        extra = {"fits": fits}
    _emit(rows, args, extra, summary)
    return 0


def _tau_values(N: int, k: int, deltas: list[int]):
    """N's shifted sums at deltas, all from one pass over tau_N, or its
    k-th moment when there are no deltas.  The first two moments read no
    tau_N: sum tau_N(n) = N^2, and the sum of squares is square_sum(N);
    a higher moment streams tau_N."""
    if deltas:
        return tau_tables.shifted_sums(tau_tables.TauWindows(N), deltas)
    if k == 1:
        return N * N
    if k == 2:
        return tau_tables.square_sum(N)
    return tau_tables.tau_moment(tau_tables.TauWindows(N), k)


def _cmd_tau(args) -> int:
    if not args.N:
        raise UsageError("tau requires --N")
    k = args.k
    Ns = sorted(set(args.N))
    deltas = list(dict.fromkeys(args.delta or ()))  # distinct, first-occurrence order
    if deltas and min(deltas) < 1:
        raise UsageError(f"tau requires every --delta >= 1, got {min(deltas)}")
    if deltas and len(Ns) < 2:
        raise UsageError("tau --delta requires at least two distinct --N values")
    # largest N first, so that a too large N is refused before the others
    # are read
    values = {N: _tau_values(N, k, deltas) for N in reversed(Ns)}
    extra: dict = {}
    summary = []
    if deltas:
        # shifted-convolution mode: sums tau_N(n) tau_N(n+delta) and the
        # log vs no-log main-term discrimination
        extra["discrimination"] = {}
        for delta in deltas:
            verdict = asymptotics.shifted_verdict(delta, {N: values[N][delta] for N in Ns})
            extra["discrimination"][str(delta)] = {
                "slope": verdict.slope,
                "predicted_log_slope": verdict.predicted_log_slope,
                "selected": verdict.selected.value,
            }
            summary.append(
                f"delta={delta}: slope={_fmt(verdict.slope)} vs log-candidate "
                f"{_fmt(verdict.predicted_log_slope)} -> {verdict.selected.value}"
            )
        rows = [{"N": N, "delta": d, "value": values[N][d]} for d in sorted(deltas) for N in Ns]
    else:
        rows = [{"N": N, "k": k, "moment": values[N]} for N in Ns]
        if len(rows) >= 2 and k >= 2:
            a, b = asymptotics.fit_linear_in_logN([(r["N"], float(r["moment"])) for r in rows])
            extra["fit"] = {"a": a, "b": b}
            summary.append(f"fit: moment/N^2 = {_fmt(a)}*ln N + {_fmt(b)}")
        elif k == 1:
            # sum tau_N = N^2 identically, coefficient 1 with no log term
            extra["fit"] = {"a": 0.0, "b": 1.0}
    _emit(rows, args, extra, summary)
    return 0


# hyperbola's largest --N: 2,000 query pairs take about 0.7 s on a 2-core
# host, and the time grows linearly in N.
HYPERBOLA_QUERY_BUDGET = 2000


def random_hyperbola_queries(
    seed: int, n: int
) -> list[tuple[hyperbola.HyperbolaQuery, hyperbola.CurveQuery]]:
    """Seeded query set: q <= 500, box sides X, Y <= 2000, 1 <= |K| <= 10^4,
    and a hyperbolic curve bound with f(left endpoint) <= 2000."""
    gen = rng.SplitMix64(seed)
    out = []
    for _ in range(n):
        q = gen.randint(1, 500)
        X = gen.randint(1, 2000)
        Y = gen.randint(1, 2000)
        K = gen.randint(1, 10**4) * (1 if gen.below(2) == 0 else -1)
        U = gen.below(1000)
        V = gen.below(1000)
        box = hyperbola.HyperbolaQuery(K=K, q=q, U=U, V=V, X=X, Y=Y)
        Uc = gen.below(1000)
        A = gen.randint(1, (Uc + 1) * 2000)
        curve = hyperbola.CurveQuery(K=K, q=q, U=Uc, X=X, bound=hyperbola.Hyperbolic(A))
        out.append((box, curve))
    return out


def _hyperbola_rows(pair, epsilon: float) -> list[dict]:
    box, curve = pair
    return [
        {
            "kind": kind, "K": query.K, "q": query.q, "U": query.U, "V": V, "X": query.X,
            "Y": Y, "A": A, "exact": rep.exact, "main": rep.main, "error": rep.error,
            "bound": rep.bound, "normalized": rep.normalized,
        }
        for kind, query, V, Y, A, rep in (
            ("box", box, box.V, box.Y, 0, hyperbola.box_report(box, epsilon)),
            ("curve", curve, 0, 0, curve.bound.A, hyperbola.curve_report(curve, epsilon)),
        )
    ]


def _cmd_hyperbola(args) -> int:
    if args.N > HYPERBOLA_QUERY_BUDGET:
        raise BudgetError(
            f"hyperbola(N={args.N}) makes {args.N} query pairs, "
            f"budget is {HYPERBOLA_QUERY_BUDGET}"
        )
    rows = [
        row
        for pair in random_hyperbola_queries(args.seed, args.N)
        for row in _hyperbola_rows(pair, args.epsilon)
    ]
    worst = {
        kind: max((r["normalized"] for r in rows if r["kind"] == kind), default=0.0)
        for kind in ("box", "curve")
    }
    summary = [f"max normalized ({kind}) = {_fmt(worst[kind])}" for kind in ("box", "curve")]
    _emit(rows, args, extra={"max_normalized": worst}, summary=summary)
    return 0


def _lemma_row(lemma: str, variant: int, X: int, Y: int, r: int, rep) -> dict:
    """One row of the lemmas table; the report's bound and normalized
    error are its envelope and ratio columns."""
    return {
        "lemma": lemma, "variant": variant, "X": X, "Y": Y, "r": r,
        "exact": rep.exact, "main": rep.main, "error": rep.error,
        "envelope": rep.bound, "ratio": rep.normalized,
    }


def lemma_grid_rows() -> list[dict]:
    """The logarithmic regression grid for every lemma evaluator."""
    rows = []
    for X in (100, 1000, 10000):
        rows.append(
            _lemma_row("gcd_power", 0, X, 720, 1, lemmas.gcd_power_report(X, 720, 0.5, 1.0))
        )
        rows.append(_lemma_row("phi_ratio", 0, X, 0, 1, lemmas.phi_ratio_report(X)))
        rows.append(_lemma_row("phi_over_square", 0, X, 0, 1, lemmas.phi_over_square_report(X)))
        rows.append(_lemma_row("coprime", 0, X, 360, 1, lemmas.coprime_count_report(X, 360)))
        # one Moebius table per X, one coprime-count pass per (X, r)
        rs, cases = (1, 2, 5, 10), ((1, 0), (2, X // 2), (3, X // 2), (4, X))
        reports = iter(lemmas.xy_sums(X, rs, cases))
        for r in rs:
            for variant, Y in cases:
                rows.append(_lemma_row("xy_sum", variant, X, Y, r, next(reports)))
    return rows


def _cmd_lemmas(args) -> int:
    rows = lemma_grid_rows()
    worst = max(r["ratio"] for r in rows)
    summary = [f"max envelope ratio = {_fmt(worst)}"]
    _emit(rows, args, extra={"max_ratio": worst}, summary=summary)
    return 0


def _cmd_casework(args) -> int:
    H, delta = _single_point(args)
    if delta < 1:
        raise UsageError(f"casework requires --delta >= 1, got {delta}")
    # one record per route, read by all six of its region sums
    direct_columns = casework.direct_columns(H, delta)
    hyper_columns = casework.hyper_columns(H, delta)
    rows, total_rows = [], []
    for problem, regions, direct_sum, hyper_sum, signs in (
        ("G", casework.RegionG, casework.region_sum_G, casework.region_sum_G_via_hyperbola,
         (1, 1, 1)),
        ("J", casework.RegionJ, casework.region_sum_J, casework.region_sum_J_via_hyperbola,
         (1, 1, -1)),
    ):
        total = 0
        for region in regions:
            direct = direct_sum(H, delta, region, columns=direct_columns)
            hyper = hyper_sum(H, delta, region, columns=hyper_columns)
            if direct != hyper:
                raise InvariantError(
                    f"{problem} region {region.name}: direct {direct} != hyperbola {hyper}"
                )
            total += direct
            rows.append({"problem": problem, "region": region.name, "count": direct})
        expected = exact.sign_class_count(H, delta, exact.SignClass(*signs))
        if total != expected:
            signs = ",".join(map(str, signs))
            raise InvariantError(f"{problem} total {total} != sign class ({signs}) {expected}")
        total_rows.append({"problem": problem, "region": "TOTAL", "count": total})
    _emit(rows + total_rows, args)
    return 0


# Each CSV column of `fit`, its type and the form it must take.
_FIT_COLUMNS = (
    ("H", int, "an integer"), ("exact", float, "a number"), ("main", float, "a number")
)


def _cmd_fit(args) -> int:
    with open(args.input, newline="") as fh:
        # a short row reads "" for its missing cells, which fails to parse
        reader = csv.DictReader(fh, restval="")
        for column, _, _ in _FIT_COLUMNS:
            if column not in (reader.fieldnames or ()):
                raise UsageError(f"{args.input}: missing column {column!r}")
        data = []
        for i, row in enumerate(reader, 1):
            cells = []
            for column, kind, form in _FIT_COLUMNS:
                try:
                    cells.append(kind(row[column]))
                except ValueError:
                    raise UsageError(
                        f"{args.input}: data row {i}, column {column}: expected {form}, "
                        f"got {row[column]!r}"
                    ) from None
            data.append(tuple(cells))
    fit = asymptotics.fit_error_exponent(data)
    print(f"exponent = {_fmt(fit.exponent)}")
    print(f"log_constant = {_fmt(fit.log_constant)}")
    print(f"r_squared = {_fmt(fit.r_squared)}")
    print(f"degenerate = {fit.degenerate}")
    return 0


def _cmd_fixtures(args) -> int:
    rows = [
        {"H": H, "delta": delta, "count": exact.naive_count(H, delta)}
        for H in (1, 2, 3)
        for delta in range(-2 * H * H, 2 * H * H + 1)
    ]
    _emit(rows, args)
    return 0


_INTS = dict(type=_int_list)
_SIZES = dict(type=_positive_int_list)
_EPSILON = dict(type=_checked(float, lambda x: 0 <= x <= 1, "a number in [0, 1]"), default=0.1)
_JOBS = dict(type=_positive_int, default=1)
_EMIT = {"output": dict(), "format": dict(choices=("csv", "json"), default="csv")}

# Each subcommand's flags, exactly those its _cmd_* function reads, plus
# the --jobs that sweep and hyperbola accept and ignore.
_COMMANDS = {
    "count": (_cmd_count, {"H": _SIZES, "delta": _INTS, "epsilon": _EPSILON}),
    "sweep": (_cmd_sweep, {
        "H": _SIZES, "delta": _INTS, "epsilon": _EPSILON, "jobs": _JOBS,
        "no-timing": dict(action="store_true"), "fit": dict(action="store_true"), **_EMIT,
    }),
    "tau": (_cmd_tau, {
        "N": _SIZES, "k": dict(type=_moment_order, default=2), "delta": _INTS, **_EMIT,
    }),
    "hyperbola": (_cmd_hyperbola, {
        "N": dict(type=_positive_int, default=500), "seed": dict(type=int, default=0),
        "epsilon": _EPSILON, "jobs": _JOBS, **_EMIT,
    }),
    "lemmas": (_cmd_lemmas, _EMIT),
    "casework": (_cmd_casework, {"H": _SIZES, "delta": _INTS, **_EMIT}),
    "fixtures": (_cmd_fixtures, _EMIT),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="matcount", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name, (fn, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag, spec in flags.items():
            p.add_argument(f"--{flag}", **spec)
        p.add_argument("--config", help="JSON object of flag values; explicit flags win")
        p.set_defaults(func=fn)
    p = sub.add_parser("fit")
    p.add_argument("input")
    p.set_defaults(func=_cmd_fit)
    return parser


def _config_tokens(path: str) -> list[str]:
    """A JSON config object as flag tokens: a list becomes --key=a,b, true
    becomes --key, false and null are skipped.  A config key is refused:
    the command line's own --config would outrank it unread."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except ValueError as exc:  # not JSON, or not text
        raise UsageError(f"{path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError(f"{path}: config file must hold a JSON object")
    if "config" in cfg:
        raise UsageError(f"{path}: a config file cannot name another config file")
    tokens = []
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            tokens.append(flag)
        elif isinstance(value, list):
            tokens.append(f"{flag}={','.join(str(v) for v in value)}")
        elif value is not False and value is not None:
            tokens.append(f"{flag}={value}")
    return tokens


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("a subcommand is required (see --help)")
        if getattr(args, "config", None) is not None:
            # the subcommand is argv[0]: the top-level parser has no flags
            args = parser.parse_args([args.command, *_config_tokens(args.config), *argv[1:]])
        return args.func(args)
    except (ValueError, OSError, KeyError, ModuleNotFoundError) as exc:  # UsageError: ValueError
        refused = getattr(exc, "errno", None) == errno.ENOMEM  # an OSError: memory refused
        print(f"{'budget exceeded' if refused else 'error'}: {exc}", file=sys.stderr)
        return 2 if refused else 1
    except MemoryError as exc:  # a BudgetError, or an allocation that failed
        print(f"budget exceeded: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except ImportError as exc:  # found but not loaded: its libraries under ulimit -v, say
        print(f"budget exceeded: could not load {import_failure(exc)}", file=sys.stderr)
        return 2


def run(argv: list[str] | None = None) -> int:
    """main(argv) as a whole process, the one entry of `python -m
    matcount.cli` and the `matcount` script.

    It sets OPENBLAS_NUM_THREADS=1 unless the environment names it: the
    only BLAS calls are the tau_N dots, whose blocks are longest under a
    one-thread pool, and a pool's helper thread spins and takes address
    space that ulimit -v counts.  The cyclic collector is off from
    entry (under `python -m matcount.cli`, from the top of this module,
    before its imports), and the forked tau_N workers inherit it off.
    That is safe because every command, from count --H 100 to a sweep
    over many H, leaves the same few hundred unreachable objects (the
    parser's and numpy's import's cycles): its work makes no cyclic
    garbage, so a collection frees nothing that grows with it, and the
    33-50 passes that numpy's import and the command would trigger cost
    5-10 ms of each process.  Ctrl-C exits 130 with one line.  The
    collector is then frozen, so teardown's collections skip what numpy
    and the library leave alive, which the OS reclaims anyway; atexit
    handlers, stream flushes and module teardown still run.  main() sets
    nothing, never freezes and leaves the collector on: tests and
    library callers run it many times in one process.  The module
    docstring is `matcount --help`'s description, so notes like these
    stay here."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read when numpy loads
    gc.disable()
    try:
        code = main(argv)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        code = 130
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
