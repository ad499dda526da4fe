"""Lexification by per-component lists, a test oracle for ``lex.lexify``.

The library walks the degrees with the state of the segment alone: how
many components are full, and the fill and previous piece of the one
partial component.  This module keeps what that state summarizes instead:
every component's fill and piece in the previous degree, a span summed over
all components, and the fills of the new segment found component by
component.  The growth of a partial piece is the Macaulay transform summed
over the term list of ``macaulay_oracle``, not over the library's runs, and
each run of new generators starts at its rank, unranked here by
bisection, where the library carries the lex-smallest monomial of the
partial piece from degree to degree and unranks nothing.  It shares with
the library only ``_lex_run``, the walk of a stretch of lex order, so the
tests hold the library's generators and errors to it.
"""
from __future__ import annotations

from math import comb

from gotzmann.combinatorics import binomial
from gotzmann.errors import BudgetExceeded, NotAchievable
from gotzmann.monomial_algebra import (
    GradedFreeModule,
    MonomialIdeal,
    MonomialSubmodule,
    _lex_run,
)
from gotzmann.numpoly import TERM_BUDGET, NumPoly

from macaulay_oracle import macaulay_transform


def exponents_at_rank(n: int, d: int, rank: int) -> tuple[int, ...]:
    """Exponents of the degree-d monomial at lex rank 0 <= rank < C(d + n, n),
    rank 0 the largest; the caller checks the range.

    With R the degree left for x_v, ..., x_n and k = n - v, the monomials
    whose x_v exponent is at least R - s number C(s + k, k) (a hockey-stick
    sum), so the x_v exponent is R - s for the least s with rank below that
    count, found by bisection: O(n log d) binomials per monomial.
    """
    exps = []
    remaining = d
    for v in range(n):
        k = n - v
        lo, hi = 0, remaining
        while lo < hi:
            mid = (lo + hi) // 2
            if rank < comb(mid + k, k):
                hi = mid
            else:
                lo = mid + 1
        if lo:
            rank -= comb(lo - 1 + k, k)
        exps.append(remaining - lo)
        remaining = lo
    exps.append(remaining)
    return tuple(exps)


def lexify(
    ambient: GradedFreeModule,
    table: list[tuple[int, int]],
    tail: NumPoly,
) -> MonomialSubmodule:
    """``lex.lexify`` with per-component lists: the same data checks, walk,
    stop rule and errors."""
    f1 = ambient.degrees[0]
    fm = ambient.degrees[-1]
    values: dict[int, int] = {}
    for d, v in table:
        if type(d) is not int or type(v) is not int:  # not isinstance: bool is refused too
            raise ValueError(f"table entry ({d!r}, {v!r}) is not a pair of integers")
        if d in values:
            raise NotAchievable(f"table gives degree {d} more than once")
        values[d] = v
    if values:
        lo, hi = min(values), max(values)
        if lo != f1 or sorted(values) != list(range(lo, hi + 1)):
            raise NotAchievable(
                f"table degrees must run contiguously from f1 = {f1}, got {sorted(values)}"
            )
        last_tabulated = hi
    else:
        last_tabulated = f1 - 1

    n = ambient.n
    if tail.degree > n:
        raise NotAchievable(
            f"tail of degree {tail.degree} exceeds the degree {n} of any Hilbert polynomial"
        )
    if not tail.is_integer_valued():
        raise NotAchievable(f"tail {tail} is not an integer-valued polynomial")
    degrees = ambient.degrees
    new_gens: list[list[tuple[int, ...]]] = [[] for _ in degrees]
    # an initial segment of F_d under the position-dominant order is a run of
    # full components, one partial lex piece, then nothing, so per-component
    # counts determine it completely; spans and containment reduce to counts
    prev_fill = [0] * ambient.m
    prev_pieces = [binomial(f1 - 1 - f + n, n) for f in degrees]
    start = max(last_tabulated, fm)
    if start + n + 1 - f1 >= TERM_BUDGET:
        raise BudgetExceeded(
            f"lexify returns at degree {start + n + 1} at the earliest, "
            f"{TERM_BUDGET} or more degrees past f1 = {f1}"
        )
    quiet = 0  # consecutive degrees past start that added no generator
    for d in range(f1, f1 + TERM_BUDGET):
        pieces = [binomial(d - f + n, n) for f in degrees]
        dim_d = sum(pieces)
        h = values[d] if d in values else tail._int_value(d)
        if h < 0 or h > dim_d:
            raise NotAchievable(
                f"H({d}) = {h} outside [0, dim F_{d} = {dim_d}]"
            )
        seg = dim_d - h
        # span of the previous segment: a full piece spans the full next
        # piece, a partial lex piece grows at the extremal Macaulay rate; a
        # piece with nothing in it, 0 below its component's degree, spans 0
        span_size = 0
        for c, f in enumerate(degrees):
            filled, full = prev_fill[c], prev_pieces[c]
            if filled == 0:
                continue
            if filled == full:
                span_size += pieces[c]
            else:
                span_size += pieces[c] - macaulay_transform(full - filled, d - 1 - f)
        if span_size > seg:
            raise NotAchievable(
                f"H({d}) = {h} requires dropping monomials already generated"
            )
        # both the span and the new segment are initial, so the difference is
        # the position range [span_size, seg): exactly the new generators
        fill = [0] * ambient.m
        cum = 0
        for c, size in enumerate(pieces):
            take = min(max(seg - cum, 0), size)
            fill[c] = take
            first = max(span_size - cum, 0)
            if first < take:
                new_gens[c] += _lex_run(exponents_at_rank(n, d - degrees[c], first), take - first)
            cum += size
        prev_fill, prev_pieces = fill, pieces
        if d > start:
            quiet = 0 if span_size < seg else quiet + 1
            if quiet > n:
                return MonomialSubmodule(
                    ambient, tuple(MonomialIdeal._of_minimal(n, tuple(g)) for g in new_gens)
                )
    raise BudgetExceeded(f"lexify walked {TERM_BUDGET} degrees from f1 = {f1} without settling")
