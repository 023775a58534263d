"""Seeded op lists for the three benchmark workloads.

An op is one `matcount` CLI invocation.  Every seeded input comes from
`random.Random(seed)`, never from `matcount.rng`, so the program only
ever sees the generated argv.  A run repeats its workload's op list
round after round; the inputs are fixed per seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("det-sweep", "det-big", "modular")
SAMPLES = 3  # hyperbola box and curve rows recounted per op

# What one unit of `work_per_s` is on each workload.
WORK_UNITS = {
    "det-sweep": "exact values emitted",
    "det-big": "H^2 table cells",
    "modular": "report rows",
}


@dataclass(frozen=True)
class Sizes:
    sweep_H: tuple[int, ...] = (1000, 2000, 4000)
    max_delta: int = 10**4
    big_H: int = 8000
    zero_H: int = 6000
    hyperbola_N: int = 150
    casework_H: int = 120
    casework_max_delta: int = 2000


FULL = Sizes()
# Small enough for a smoke test; the same op shapes as FULL.
TINY = Sizes(
    sweep_H=(10, 20, 40),
    max_delta=60,
    big_H=60,
    zero_H=50,
    hyperbola_N=6,
    casework_H=12,
    casework_max_delta=100,
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation; `name` is unique within a workload's op list."""

    name: str
    argv: tuple[str, ...]
    work: int
    params: dict = field(default_factory=dict)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _signed_deltas(rng: random.Random, n_pos: int, n_neg: int, bound: int) -> list[int]:
    mags = rng.sample(range(1, bound + 1), n_pos + n_neg)
    deltas = mags[:n_pos] + [-m for m in mags[n_pos:]]
    rng.shuffle(deltas)
    return deltas


def make_ops(workload: str, seed: int, sizes: Sizes = FULL) -> list[Op]:
    """The op list of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "det-sweep":
        Hs = list(sizes.sweep_H)
        deltas = _signed_deltas(rng, 2, 2, sizes.max_delta)
        shifts = sorted(rng.sample(range(1, sizes.max_delta + 1), 2))
        return [
            # --delta=... so that a leading negative value is not read as a flag
            Op("sweep", ("sweep", "--H", _csv(Hs), f"--delta={_csv(deltas)}",
                         "--fit", "--no-timing", "--jobs", "2"),
               work=len(Hs) * len(deltas), params={"H": Hs, "delta": deltas}),
            Op("tau-moment", ("tau", "--N", _csv(Hs), "--k", "2"),
               work=len(Hs), params={"N": Hs, "k": 2}),
            Op("tau-shifted", ("tau", "--N", _csv(Hs), f"--delta={_csv(shifts)}"),
               work=len(Hs) * len(shifts), params={"N": Hs, "delta": shifts}),
        ]
    if workload == "det-big":
        delta = rng.randint(1, sizes.max_delta) * rng.choice((1, -1))
        return [
            Op("count", ("count", "--H", str(sizes.big_H), f"--delta={delta}"),
               work=sizes.big_H**2, params={"H": sizes.big_H, "delta": delta}),
            Op("count-zero", ("count", "--H", str(sizes.zero_H), "--delta=0"),
               work=sizes.zero_H**2, params={"H": sizes.zero_H, "delta": 0}),
        ]
    if workload == "modular":
        n = sizes.hyperbola_N
        hseed = rng.randrange(2**31)
        sample = sorted(rng.sample(range(n), min(SAMPLES, n)))
        delta = rng.randint(1, sizes.casework_max_delta)
        return [
            Op("hyperbola", ("hyperbola", "--N", str(n), "--seed", str(hseed)),
               work=2 * n, params={"N": n, "sample": sample}),
            Op("casework", ("casework", "--H", str(sizes.casework_H), "--delta", str(delta)),
               work=8, params={"H": sizes.casework_H, "delta": delta}),
            Op("lemmas", ("lemmas",), work=60),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
