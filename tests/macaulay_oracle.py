"""Macaulay representations as term lists, a test oracle for the runs.

The library reads every Macaulay representation as runs of equal
c_j = k_j - j (``combinatorics._macaulay_runs``) and sums each transform one
run at a time.  This module lists the terms (k_j, j) one by one, the greedy
way: each index takes the largest k with C(k, j) at most the remainder.  It
shares with the library only ``_largest_upper_index``, which the tests hold
to a one-step scan, so the tests hold the run sums and the term lists of
``macaulay_rep`` to it.
"""
from __future__ import annotations

from math import comb

from gotzmann.combinatorics import _largest_upper_index


def macaulay_terms(a: int, d: int) -> tuple[tuple[int, int], ...]:
    """The terms (k_j, j) of the d-th Macaulay representation of a >= 0.

    Each step takes the largest k with C(k, j) <= remainder; the classical
    argument shows the indices strictly decrease and the remainder hits zero
    at index >= 1, so the loop always terminates with a valid representation.
    """
    if a < 0:
        raise ValueError(f"a must be nonnegative, got {a}")
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    terms: list[tuple[int, int]] = []
    rem = a
    j = d
    while rem > 0:
        k = _largest_upper_index(rem, j)
        terms.append((k, j))
        rem -= comb(k, j)
        j -= 1
    return tuple(terms)


def macaulay_transform(a: int, d: int) -> int:
    """a^<d>: every C(k_j, j) of the term list bumped to C(k_j + 1, j + 1)."""
    return sum(comb(k + 1, j + 1) for k, j in macaulay_terms(a, d))


def green_transform(a: int, d: int) -> int:
    """a_<d>: every C(k_j, j) of the term list lowered to C(k_j - 1, j)."""
    return sum(comb(k - 1, j) for k, j in macaulay_terms(a, d))
