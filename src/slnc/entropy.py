"""Han's entropy profile of a joint distribution read from a probability table.

The only floating-point code in the package: no security verdict calls it.
`han_profile` averages conditional entropies over coordinate subsets (T. S.
Han, "Nonnegative entropy measures of multivariate symmetric correlations",
1978), and `parse_table` reads the table file that `hancheck` takes.
"""

from __future__ import annotations

import itertools
import math
from typing import Hashable, Mapping

from .errors import NotADistribution, ParseError, SlncError
from .network import text_lines


def han_profile(
    table: Mapping[tuple[Hashable, ...], float], base: float = 2.0
) -> list[float]:
    """Averaged conditional entropies h_1 <= ... <= h_n of a joint distribution.

    h_r averages H(X_a | X_rest) over all coordinate subsets a of size r,
    normalized by C(n-1, r-1).  Entropies use natural logs internally and
    are reported in log-base units.  The profile is provably nondecreasing;
    a decrease beyond 1e-9 raises SlncError, since it can only come from an
    arithmetic bug.
    """
    if not (math.isfinite(base) and base > 1):
        raise SlncError(f"logarithm base must be a finite number above 1, got {base}")
    if not table:
        raise NotADistribution("empty probability table")
    items = list(table.items())
    n = len(items[0][0])
    if n < 1:
        raise NotADistribution("joint outcomes must have at least one coordinate")
    if n > 12:
        raise SlncError(f"at most 12 variables supported, got {n}")
    if any(len(key) != n for key, _ in items):
        raise NotADistribution("inconsistent outcome arity in the table")
    total = 0.0
    for _, p in items:
        if not math.isfinite(p) or p < 0:
            raise NotADistribution(f"probability {p} is not a finite nonnegative number")
        total += p
    if abs(total - 1.0) > 1e-12:
        raise NotADistribution(f"probabilities sum to {total!r}, not 1")

    def marginal_entropy(coords: tuple[int, ...]) -> float:
        if not coords:
            return 0.0
        acc: dict[tuple[Hashable, ...], float] = {}
        for key, p in items:
            if p:
                proj = tuple(key[c] for c in coords)
                acc[proj] = acc.get(proj, 0.0) + p
        return -sum(p * math.log(p) for p in acc.values() if p > 0)

    h_full = marginal_entropy(tuple(range(n)))
    profile: list[float] = []
    for r in range(1, n + 1):
        acc = 0.0
        for alpha in itertools.combinations(range(n), r):
            rest = tuple(c for c in range(n) if c not in alpha)
            acc += h_full - marginal_entropy(rest)
        profile.append(acc / math.comb(n - 1, r - 1) / math.log(base))
    for lo, hi in zip(profile, profile[1:]):
        if hi < lo - 1e-9:
            raise SlncError(f"profile decreased: {lo} -> {hi}")
    return profile


def parse_table(text: str) -> dict[tuple[str, ...], float]:
    """A table file: one outcome per line, its coordinates then its probability.

    Repeated outcomes add up; `han_profile` checks that the result is a distribution.
    """
    table: dict[tuple[str, ...], float] = {}
    for lineno, line in text_lines(text):
        tokens = line.split()
        if len(tokens) < 2:
            raise ParseError(f"table line {lineno} needs outcomes and a probability")
        try:
            prob = float(tokens[-1])
        except ValueError:
            raise ParseError(f"table line {lineno}: bad probability {tokens[-1]!r}") from None
        table[tuple(tokens[:-1])] = table.get(tuple(tokens[:-1]), 0.0) + prob
    return table
