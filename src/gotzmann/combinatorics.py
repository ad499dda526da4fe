"""Binomial coefficients, Macaulay representations, and the two growth transforms.

Everything here is exact integer arithmetic; binomial coefficients use the
combinatorial convention C(k, j) = 0 for k < j, which is what makes graded
dimension counts vanish below their starting degree.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb

from ._value import Value, tuples

# Entries kept by each of the 7 lru_caches of the package, all keyed on
# ints, tuples and frozensets (the three per-ideal ones on the minimal
# generator exponents), none on a value object.  The submodule
# records of monomial_algebra._record are no cache: each is four slots of
# its submodule, and holds at most CACHE_ENTRIES rows, one per degree (H,
# rho and the hyperplane value), besides its sparse numerators (its own,
# and N_I - N_(I^sat) per unsaturated component once a hyperplane value is
# read).  After sweep(500) the fullest caches hold 888 (macaulay_transform)
# and 741 (green_transform) entries, 500 records were built, one per
# instance, and the largest record held 12 rows; after one cold seed-1
# 600-op benchmark sweep pass, 997 and 833 entries, 600 records and 12 rows.
# Neither run evicts or empties anything.  The transform caches pay: that pass
# takes 0.16 s with them, 0.21 s without (best medians of 7, on 2 CPUs).
CACHE_ENTRIES = 8192


def binomial(k: int, j: int) -> int:
    """C(k, j) with C(k, j) = 0 whenever k < j.  Requires j >= 0.

    In particular C(k, 0) = 1 for k >= 0 and 0 for k < 0.
    """
    if j < 0:
        raise ValueError(f"lower index must be nonnegative, got {j}")
    if k < j:
        return 0
    return comb(k, j)


class MacaulayRep(Value):
    """The unique expansion a = C(k_d, d) + C(k_{d-1}, d-1) + ... + C(k_delta, delta)

    with k_d > k_{d-1} > ... > k_delta >= delta >= 1.  ``terms`` lists the
    pairs (k_j, j) with j descending from d; it is empty exactly when a = 0.
    """

    __slots__ = _fields = ("d", "terms")

    def __init__(self, d: int, terms: tuple[tuple[int, int], ...]) -> None:
        terms = tuples(terms)
        if d < 1:
            raise ValueError(f"representation index must be >= 1, got {d}")
        prev_k = None
        expect_j = d
        for k, j in terms:
            if j != expect_j:
                raise ValueError(f"indices must descend consecutively from {d}")
            if k < j or j < 1:
                raise ValueError(f"term C({k}, {j}) violates k >= j >= 1")
            if prev_k is not None and k >= prev_k:
                raise ValueError("upper indices must strictly decrease")
            prev_k = k
            expect_j -= 1
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "terms", terms)

    def value(self) -> int:
        return sum(binomial(k, j) for k, j in self.terms)


def macaulay_rep(a: int, d: int) -> MacaulayRep:
    """Greedy d-th Macaulay representation of a >= 0, its term list read
    off the runs of ``_macaulay_runs``."""
    return MacaulayRep(
        d, tuple((j + c, j) for c, hi, lo in _macaulay_runs(a, d) for j in range(hi, lo - 1, -1))
    )


def _macaulay_runs(a: int, d: int) -> list[tuple[int, int, int]]:
    """The d-th Macaulay representation of a >= 0 as runs (c, hi, lo) of
    equal c_j = k_j - j: the terms C(j + c, j) for j = hi down to lo.

    k_j > k_(j-1) gives c_j >= c_(j-1), so the runs come in strictly
    decreasing c, the first from hi = d, each next one from the last one's
    lo - 1.  A run's first term is the greedy one, C(k, hi) with k the
    largest upper index that fits the remainder.  The greedy keeps c at
    every later j whose partial sum still fits, and terms j - 1 down to l
    sum to C(j + c, c + 1) - C(l + c, c + 1) (hockey stick), which grows as
    l falls, so a run that goes on ends at the least l whose sum fits: a
    gallop down, then a bisection, in O(log(hi - lo + 1)) binomials.  So a
    representation of any length costs O(log d) binomials per run, and
    there are at most c_d + 1 runs.
    """
    if a < 0:
        raise ValueError(f"a must be nonnegative, got {a}")
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    runs: list[tuple[int, int, int]] = []
    rem, hi = a, d
    while rem:
        c = _largest_upper_index(rem, hi) - hi
        rem -= comb(hi + c, c)
        lo = hi
        if rem and lo > 1 and comb(lo - 1 + c, c) <= rem:
            # the run goes on: it ends at the least l with C(l + c, c + 1) >=
            # need, so that the terms from lo - 1 down to l fit the remainder;
            # l = lo - 1 passes and l = 0 gives 0 < need
            need = comb(lo + c, c + 1) - rem
            good, bad, step = lo - 1, 0, 1
            while good - step > bad:
                if comb(good - step + c, c + 1) < need:
                    bad = good - step
                    break
                good -= step
                step *= 2
            while good - bad > 1:
                mid = (good + bad) // 2
                if comb(mid + c, c + 1) >= need:
                    good = mid
                else:
                    bad = mid
            rem = comb(good + c, c + 1) - need
            lo = good
        runs.append((c, hi, lo))
        hi = lo - 1
    return runs


def _largest_upper_index(b: int, j: int) -> int:
    """Largest k with C(k, j) <= b, for b >= 1 and j >= 1, in O(log(b + j))
    binomials: steps doubling up from C(j, j) = 1 bracket k, and a bisection
    ends it.  ``_macaulay_runs`` calls it once per run, not once per term.
    A lower index below 1 raises ValueError: at j = 0 every C(k, 0) is 1,
    so no largest k exists and the doubling would never end.
    """
    if j < 1:
        raise ValueError(f"lower index must be >= 1, got {j}")
    lo, step = j, 1
    while comb(lo + step, j) <= b:
        lo, step = lo + step, 2 * step
    hi = lo + step - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if comb(mid, j) <= b:
            lo = mid
        else:
            hi = mid - 1
    return lo


# the checkers ask for few distinct (a, d) many times over; only the int is
# kept, as a representation can run to millions of terms
@lru_cache(maxsize=CACHE_ENTRIES)
def macaulay_transform(a: int, d: int) -> int:
    """a^<d>: bump every C(k_j, j) in the d-th representation to C(k_j + 1, j + 1).

    Read off the runs: the run (c, hi, lo) bumps to the terms C(j + c, j)
    for j = hi + 1 down to lo + 1, C(hi + c + 2, hi + 1) - C(lo + c + 1, c + 1).
    """
    return sum(comb(hi + c + 2, hi + 1) - comb(lo + c + 1, c + 1)
               for c, hi, lo in _macaulay_runs(a, d))


@lru_cache(maxsize=CACHE_ENTRIES)
def green_transform(a: int, d: int) -> int:
    """a_<d>: lower every C(k_j, j) in the d-th representation to C(k_j - 1, j).

    Read off the runs: the run (c, hi, lo) lowers to the terms C(j + c - 1, j),
    C(hi + c, hi) - C(lo + c - 1, c), which is 0 for c = 0, as
    C(j - 1, j) = 0.
    """
    return sum(comb(hi + c, hi) - comb(lo + c - 1, c) for c, hi, lo in _macaulay_runs(a, d))
