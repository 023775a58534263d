"""Reference values and output checks for the benchmark ops.

The references are computed once per seed, outside the timed loop, and
share no code with `matcount`: tau_H comes from a blockwise
`np.bincount` of the products a*b (1 <= a, b <= H), fed into the signed
convolution sum_m c2(m) c2(m - delta) with c2(0) = 4H + 1 and
c2(m) = 2 tau_H(|m|).  Casework totals and hyperbola rows are recounted
by enumeration.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from ops import Op

BLOCK = 1 << 22


def tau_counts(H: int, block: int = BLOCK) -> np.ndarray:
    """tau_H(n) for 0 <= n <= H^2 (index 0 unused) as uint16.

    Each block of n is the bincount of every product a*b that lands in
    it, so memory stays at one block of products plus the table.
    """
    limit = H * H
    out = np.zeros(limit + 1, dtype=np.uint16)
    a = np.arange(1, H + 1, dtype=np.int64)
    for lo in range(1, limit + 1, block):
        hi = min(lo + block - 1, limit)
        b_lo = np.maximum(1, -(-lo // a))
        b_hi = np.minimum(H, hi // a)
        keep = b_lo <= b_hi
        parts = [np.empty(0, dtype=np.int64)] + [
            np.arange(bl, bh + 1, dtype=np.int64) * ai
            for ai, bl, bh in zip(a[keep].tolist(), b_lo[keep].tolist(), b_hi[keep].tolist())
        ]
        counts = np.bincount(np.concatenate(parts) - lo, minlength=hi - lo + 1)
        if counts.max() > np.iinfo(np.uint16).max:
            raise OverflowError(f"tau_{H} exceeds uint16 in [{lo}, {hi}]")
        out[lo : hi + 1] = counts
    if moment(out, 1) != limit:
        raise ArithmeticError(f"reference sum of tau_{H} is not {limit}")
    return out


def moment(t: np.ndarray, k: int) -> int:
    """sum over n >= 1 of t(n)^k, in Python integers."""
    freq = np.bincount(t[1:])
    return sum(int(f) * v**k for v, f in enumerate(freq.tolist()) if f)


def shifted(t: np.ndarray, delta: int, block: int = BLOCK) -> int:
    """sum over n >= 1 of t(n) t(n + delta), int64 one block at a time."""
    limit = t.size - 1
    total = 0
    for lo in range(1, limit - delta + 1, block):
        hi = min(lo + block, limit - delta + 1)
        x = t[lo:hi].astype(np.int64)
        y = t[lo + delta : hi + delta].astype(np.int64)
        total += int(x @ y)
    return total


def det_count(H: int, delta: int, t: np.ndarray) -> int:
    """#{2x2 integer matrices, entries in [-H, H], determinant delta}.

    Collapses sum_m c2(m) c2(m - delta): the terms m = 0 and m = delta
    give 4(4H+1) t(D), m > D and m < 0 give 8 sum t(k) t(k+D), and
    0 < m < D gives 4 sum t(m) t(D-m).
    """
    D = abs(delta)
    limit = H * H
    if D == 0:
        return (4 * H + 1) ** 2 + 8 * moment(t, 2)
    if D > 2 * limit:
        return 0
    total = 8 * shifted(t, D)
    if D <= limit:
        total += 4 * (4 * H + 1) * int(t[D])
    lo, hi = max(1, D - limit), min(D - 1, limit)
    if lo <= hi:
        x = t[lo : hi + 1].astype(np.int64)
        total += 4 * int(x @ x[::-1])
    return total


def sign_class_totals(H: int, delta: int) -> tuple[int, int]:
    """Counts with a, c > 0, b != 0 and d > 0 (G) or d < 0 (J), by
    enumerating (a, d) for each c and solving b = (a d - delta) / c."""
    v = np.arange(1, H + 1, dtype=np.int64)
    out = []
    for sign in (1, -1):
        k = np.multiply.outer(v, sign * v).ravel() - delta
        n = 0
        for c in range(1, H + 1):
            n += int(np.count_nonzero((k % c == 0) & (k != 0) & (np.abs(k) <= H * c)))
        out.append(n)
    return out[0], out[1]


def box_count(K: int, q: int, U: int, V: int, X: int, Y: int) -> int:
    """#{(u, v) in (U, U+X] x (V, V+Y]: u v = K (mod q)}."""
    u = np.arange(U + 1, U + X + 1, dtype=np.int64)
    v = np.arange(V + 1, V + Y + 1, dtype=np.int64)
    return int(np.count_nonzero((np.multiply.outer(u, v) - K) % q == 0))


def curve_count(K: int, q: int, U: int, X: int, A: int) -> int:
    """#{(u, v): U < u <= U+X, 0 < v, u v <= A, u v = K (mod q)}."""
    u = np.arange(U + 1, U + X + 1, dtype=np.int64)
    v = np.arange(1, A // (U + 1) + 1, dtype=np.int64)
    uv = np.multiply.outer(u, v)
    return int(np.count_nonzero((uv <= A) & ((uv - K) % q == 0)))


def expected(ops: list[Op]) -> list:
    """Reference value per op (None where the check needs none)."""
    tables: dict[int, np.ndarray] = {}

    def table(H):
        if H not in tables:
            tables[H] = tau_counts(H)
        return tables[H]

    out = []
    for op in ops:
        p, cmd = op.params, op.argv[0]
        if cmd == "count":
            out.append(det_count(p["H"], p["delta"], table(p["H"])))
            tables.clear()  # det-big tables are hundreds of MB each
        elif cmd == "sweep":
            out.append({(H, d): det_count(H, d, table(H)) for H in p["H"] for d in p["delta"]})
        elif cmd == "tau" and "k" in p:
            out.append({N: moment(table(N), p["k"]) for N in p["N"]})
        elif cmd == "tau":
            out.append({(N, d): shifted(table(N), d) for N in p["N"] for d in p["delta"]})
        elif cmd == "casework":
            out.append(sign_class_totals(p["H"], p["delta"]))
        else:
            out.append(None)
    return out


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check(op: Op, rc: int, stdout: str, want) -> str | None:
    """None if the op's output is right, else what is wrong."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        return _check_output(op, stdout, want)
    except (KeyError, ValueError, IndexError) as exc:
        return f"unparsable output: {exc!r}"


def _check_output(op: Op, stdout: str, want) -> str | None:
    p, cmd = op.params, op.argv[0]
    if cmd == "count":
        lines = dict(line.split(" = ", 1) for line in stdout.splitlines())
        got = int(lines["exact"])
    elif cmd == "sweep":
        got = {(int(r["H"]), int(r["delta"])): int(r["exact"]) for r in _rows(stdout)}
    elif cmd == "tau" and "k" in p:
        rows = _rows(stdout)
        if any(int(r["k"]) != p["k"] for r in rows):
            return "wrong k column"
        got = {int(r["N"]): int(r["moment"]) for r in rows}
    elif cmd == "tau":
        got = {(int(r["N"]), int(r["delta"])): int(r["value"]) for r in _rows(stdout)}
    elif cmd == "casework":
        rows = _rows(stdout)
        got = []
        for prob in ("G", "J"):
            regions = [int(r["count"]) for r in rows if r["problem"] == prob and r["region"] != "TOTAL"]
            totals = [int(r["count"]) for r in rows if r["problem"] == prob and r["region"] == "TOTAL"]
            if totals != [sum(regions)]:
                return f"{prob} TOTAL rows {totals} do not hold the region sum {sum(regions)}"
            got.append(totals[0])
        got = tuple(got)
    elif cmd == "hyperbola":
        return _check_hyperbola(p, _rows(stdout))
    elif cmd == "lemmas":
        rows = _rows(stdout)
        if len(rows) != 60:
            return f"{len(rows)} lemma rows, expected 60"
        if not all(math.isfinite(float(r["ratio"])) for r in rows):
            return "non-finite lemma ratio"
        return None
    else:
        raise ValueError(f"no check for {cmd!r}")
    return None if got == want else f"got {got}, expected {want}"


def _check_hyperbola(p: dict, rows: list[dict]) -> str | None:
    if len(rows) != 2 * p["N"]:
        return f"{len(rows)} hyperbola rows, expected {2 * p['N']}"
    for i in p["sample"]:
        box, curve = rows[2 * i], rows[2 * i + 1]
        if (box["kind"], curve["kind"]) != ("box", "curve"):
            return f"row pair {i} is not (box, curve)"
        b = {k: int(box[k]) for k in ("K", "q", "U", "V", "X", "Y", "exact")}
        c = {k: int(curve[k]) for k in ("K", "q", "U", "X", "A", "exact")}
        n = box_count(b["K"], b["q"], b["U"], b["V"], b["X"], b["Y"])
        if n != b["exact"]:
            return f"box row {i}: exact {b['exact']}, recount {n}"
        n = curve_count(c["K"], c["q"], c["U"], c["X"], c["A"])
        if n != c["exact"]:
            return f"curve row {i}: exact {c['exact']}, recount {n}"
    return None
