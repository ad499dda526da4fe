"""Rank over Q of sparse vectors by plain Gaussian elimination over Fraction,
a test oracle.

It shares no code with ``gotzmann.linalg``: every pivot is scaled to lead
with 1 at its smallest index, and each vector is reduced by subtracting
rational multiples of the pivots, with no integer scaling or content
division.
"""
from __future__ import annotations

from fractions import Fraction


def rank_oracle(vectors) -> int:
    """Rank over Q of vectors given as dicts ``{index: value}``."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for vector in vectors:
        row = {i: Fraction(x) for i, x in vector.items() if x}
        while row:
            i = min(row)
            if i not in pivots:
                lead = row[i]
                pivots[i] = {j: x / lead for j, x in row.items()}
                break
            factor = row[i]
            for j, x in pivots[i].items():
                y = row.get(j, 0) - factor * x
                if y:
                    row[j] = y
                else:
                    row.pop(j, None)
    return len(pivots)
