"""Rank computation for integer matrices.

Two backends:

* ``rank_exact``: fraction-free Bareiss elimination over Python ints.  Always
  correct, cost grows quickly with size, so it is reserved for small matrices
  and for cross-checking the fast path in tests.

* ``rank_modular``: Gauss elimination over GF(p) for 31-bit primes p with
  numpy int64 arithmetic (products stay below 2^62).  A rank found mod p is a
  certified lower bound for the rational rank (the pivot minor is nonzero mod
  p, hence nonzero over Q); it equals the rational rank unless p divides a
  maximal nonzero minor.  ``rank`` therefore accepts a modular answer only
  when it is full (then it is provably exact) or when two independent primes
  agree; disagreeing primes escalate to more primes and finally to Bareiss.

The matrices this package produces (multiplication by a linear form on a
monomial quotient) have entries bounded by a few hundred, far below the
primes used.
"""
from __future__ import annotations

import numpy as np

_PRIMES = (2147483629, 2147483587, 2147483579, 2147483563)

EXACT_SIZE_LIMIT = 48


def rank_exact(rows: list[list[int]]) -> int:
    """Rank over Q via fraction-free Bareiss elimination."""
    m = [list(map(int, row)) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = None
        for i in range(rank, nrows):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        lead = m[rank][col]
        for i in range(rank + 1, nrows):
            row_i = m[i]
            f = row_i[col]
            row_r = m[rank]
            for j in range(col + 1, ncols):
                row_i[j] = (lead * row_i[j] - f * row_r[j]) // prev
            row_i[col] = 0
        prev = lead
        rank += 1
        if rank == nrows:
            break
    return rank


def rank_modular(matrix: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over GF(p)."""
    a = np.asarray(matrix, dtype=np.int64) % p
    nrows, ncols = a.shape
    r = 0
    for col in range(ncols):
        nz = np.nonzero(a[r:, col])[0]
        if nz.size == 0:
            continue
        pivot = r + int(nz[0])
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
        inv = pow(int(a[r, col]), p - 2, p)
        row = (a[r, col:] * inv) % p
        a[r, col:] = row
        below = a[r + 1 :, col]
        touched = np.nonzero(below)[0]
        if touched.size:
            block = a[r + 1 :, col:]
            block[touched] = (block[touched] - below[touched, None] * row[None, :]) % p
        r += 1
        if r == nrows:
            break
    return r


def rank(rows: list[list[int]]) -> int:
    """Rank over Q, dispatching between the exact and modular backends.

    Small matrices go straight to Bareiss.  Larger ones run mod p: a full
    modular rank is provably exact; otherwise two primes must agree, with
    escalation to the remaining primes and finally to Bareiss on persistent
    disagreement (never observed in practice; the guard keeps the result
    deterministic and correct regardless).
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if nrows == 0 or ncols == 0:
        return 0
    if nrows <= EXACT_SIZE_LIMIT and ncols <= EXACT_SIZE_LIMIT:
        return rank_exact(rows)
    a = np.array(rows, dtype=np.int64)
    bound = min(nrows, ncols)
    best = 0
    seen = []
    for p in _PRIMES:
        r = rank_modular(a, p)
        best = max(best, r)
        if best == bound:
            return best
        seen.append(r)
        if len(seen) >= 2 and seen[-1] == seen[-2]:
            return best
    return rank_exact(rows)
