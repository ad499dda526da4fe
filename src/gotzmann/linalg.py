"""Rank over Q of sparse integer vectors by one fraction-free elimination.

A vector is a dict ``{index: value}``; absent indices are zero.

``rank(vectors)`` reduces each vector against the pivots stored so far, one
per leading index, by row <- b * row - a * pivot with a/b the ratio of the two
leading entries in lowest terms.  b is nonzero, so each step keeps the span of
the vectors seen; the pivots have distinct leading indices, so they are
independent, and their number is the rank.  Every step is exact over Z.

A pivot leads with its largest index.  On the hyperplane kernels of
(x0^a, ..., x3^a) at degree 2a, the smallest-index rule grew entries to
4,057, 7,477 and 11,700 bits at a = 14, 16 and 18; the largest-index rule
kept them under 80.
"""
from __future__ import annotations

from math import gcd


def rank(vectors: list[dict[int, int]]) -> int:
    """Rank of sparse integer vectors over Q."""
    # pivots[i] = (entry at i, the rest of a reduced vector whose largest
    # index is i), divided by the vector's content
    pivots: dict[int, tuple[int, dict[int, int]]] = {}
    for vector in vectors:
        row = {i: x for i, x in vector.items() if x}
        while row:
            i = max(row)
            x = row.pop(i)
            if i not in pivots:
                g = gcd(x, *row.values())
                pivots[i] = (x // g, {j: y // g for j, y in row.items()})
                break
            lead, rest = pivots[i]
            g = gcd(x, lead)
            a, b = x // g, lead // g
            if b != 1:
                row = {j: b * y for j, y in row.items()}
            for j, y in rest.items():
                z = row.get(j, 0) - a * y
                if z:
                    row[j] = z
                else:
                    del row[j]
    return len(pivots)
