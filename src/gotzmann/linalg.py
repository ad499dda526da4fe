"""Rank over Q of sparse integer vectors by Gaussian elimination over GF(p).

A vector is a dict ``{index: value}``; absent indices are zero.

``rank(vectors)`` is the rank over Q.  A rank mod q is at most the rational
rank, and falls short only if q divides every maximal nonzero minor.  If the
largest rank R found so far is below the rational rank, some (R+1)-minor is
nonzero and divisible by every prime tried, so the product of those primes is
at most that minor, which by Hadamard's inequality is at most the product of
the R+1 largest vector norms.  The loop therefore stops, with a certified
answer, once the rank is full or the product of the squared primes exceeds
the product of those squared norms.
"""
from __future__ import annotations

from math import prod

LARGEST_PRIME = 2**31 - 1

# Primes counted down from LARGEST_PRIME, found on first use and kept.
_primes: list[int] = []


def _is_prime(n: int) -> bool:
    # Miller-Rabin with bases 2, 3, 5, 7 is deterministic below 3.2e9
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(k: int) -> int:
    """The k-th prime (from 0) counted down from LARGEST_PRIME."""
    while len(_primes) <= k:
        q = _primes[-1] - 2 if _primes else LARGEST_PRIME
        while not _is_prime(q):
            q -= 2
        _primes.append(q)
    return _primes[k]


def _rank_mod(vectors: list[dict[int, int]], p: int) -> int:
    # pivots[i] = (reduced vector whose smallest index is i, inverse of that entry)
    pivots: dict[int, tuple[dict[int, int], int]] = {}
    for vector in vectors:
        row = {i: y for i, x in vector.items() if (y := x % p)}
        while row:
            i = min(row)
            if i not in pivots:
                pivots[i] = (row, pow(row[i], -1, p))
                break
            pivot, inv = pivots[i]
            c = row[i] * inv % p
            for j, x in pivot.items():
                y = (row.get(j, 0) - c * x) % p
                if y:
                    row[j] = y
                else:
                    del row[j]
    return len(pivots)


def rank(vectors: list[dict[int, int]]) -> int:
    """Rank of sparse integer vectors over Q."""
    norms = sorted((sum(x * x for x in v.values()) for v in vectors), reverse=True)
    indices = {i for v in vectors for i, x in v.items() if x}
    full = min(len(indices), sum(1 for n in norms if n))
    best, modulus, k = 0, 1, 0
    while best < full and modulus <= prod(norms[: best + 1]):
        q = _prime(k)
        best = max(best, _rank_mod(vectors, q))
        modulus *= q * q
        k += 1
    return best
