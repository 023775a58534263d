"""The exact-vs-main-term record that the hyperbola, asymptotics and
lemmas reports share, in a module of its own so that a command reading
only one of them loads none of the others."""

from __future__ import annotations

import math
from typing import NamedTuple


class AsymptoticReport(NamedTuple):
    """Exact value vs. main term for one query or identity instance, with
    the nominal bound on their difference.  A zero bound normalizes a zero
    error to 0 and any other error to infinity."""

    exact: int | float
    main: float
    bound: float

    @property
    def error(self) -> float:
        return self.exact - self.main

    @property
    def normalized(self) -> float:
        if self.bound > 0:
            return abs(self.error) / self.bound
        return 0.0 if self.error == 0 else math.inf
