"""Sparse GF(p) and certified rational ranks against independent dense
oracles."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gotzmann import linalg
from gotzmann.linalg import LARGEST_PRIME, rank

SMALL_PRIME = 7


def rank_oracle(rows, p=None):
    # plain Gaussian elimination over Fraction (or mod p), no pivoting tricks
    if p is None:
        m = [[Fraction(x) for x in row] for row in rows]
    else:
        m = [[x % p for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][col] if p is None else pow(m[r][col], -1, p)
        for i in range(nrows):
            if i != r and m[i][col]:
                factor = m[i][col] * inv
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
                if p is not None:
                    m[i] = [a % p for a in m[i]]
        r += 1
        if r == nrows:
            break
    return r


def sparse(rows):
    """Dense rows as sparse vectors; the rank of a matrix is that of its rows."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def random_matrix(rng, nrows, ncols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


def count_eliminations(monkeypatch):
    primes = []
    rank_mod = linalg._rank_mod

    def counting(vectors, p):
        primes.append(p)
        return rank_mod(vectors, p)

    monkeypatch.setattr(linalg, "_rank_mod", counting)
    return primes


def test_rank_exact_known_values():
    cases = [
        ([], 0),
        ([[0, 0], [0, 0]], 0),
        ([[1, 2], [2, 4]], 1),
        ([[1, 0], [0, 1]], 2),
        ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 2),
        ([[2]], 1),
        # rectangular in both orientations
        ([[1, 2, 3]], 1),
        ([[1], [2], [3]], 1),
    ]
    for rows, expected in cases:
        assert rank(sparse(rows)) == expected
        assert linalg._rank_mod(sparse(rows), LARGEST_PRIME) == expected


def test_rank_exact_matches_oracle_seeded():
    rng = random.Random(0)
    for _ in range(150):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        m = random_matrix(rng, nrows, ncols)
        assert rank(sparse(m)) == rank_oracle(m)


def test_rank_exact_low_rank_products():
    # u * v^T + w * z^T has rank at most 2 regardless of entries
    rng = random.Random(1)
    for _ in range(60):
        n = rng.randint(2, 7)
        u = [rng.randint(-5, 5) for _ in range(n)]
        v = [rng.randint(-5, 5) for _ in range(n)]
        w = [rng.randint(-5, 5) for _ in range(n)]
        z = [rng.randint(-5, 5) for _ in range(n)]
        m = [[u[i] * v[j] + w[i] * z[j] for j in range(n)] for i in range(n)]
        r = rank(sparse(m))
        assert r <= 2
        assert r == rank_oracle(m)


def test_rank_modular_matches_exact():
    rng = random.Random(2)
    for _ in range(60):
        nrows = rng.randint(1, 10)
        ncols = rng.randint(1, 10)
        m = random_matrix(rng, nrows, ncols, -50, 50)
        expected = rank_oracle(m)
        for p in (LARGEST_PRIME, linalg._prime(1)):
            assert linalg._rank_mod(sparse(m), p) == expected
        assert rank_oracle(m, SMALL_PRIME) == linalg._rank_mod(sparse(m), SMALL_PRIME)


def test_rank_modular_can_undercount():
    # mod p the matrix [[p]] is zero, so the modular rank drops: this is the
    # failure direction the rational rank guards against
    p = linalg._prime(1)
    assert linalg._rank_mod([{0: p}], p) == 0
    assert rank_oracle([[p]]) == 1
    assert rank([{0: p}]) == 1


def test_rank_over_small_prime_differs_from_rational():
    # det [[1, 2], [3, -1]] = -7
    rows = [[1, 2], [3, -1]]
    assert linalg._rank_mod(sparse(rows), SMALL_PRIME) == 1 == rank_oracle(rows, SMALL_PRIME)
    assert rank(sparse(rows)) == 2
    assert linalg._rank_mod(sparse(rows), 5) == 2


def test_rational_rank_escalates_to_a_second_prime(monkeypatch):
    primes = count_eliminations(monkeypatch)
    # zero mod the first prime, full rank mod the second
    assert rank([{0: LARGEST_PRIME}]) == 1
    assert primes == [LARGEST_PRIME, linalg._prime(1)]


def test_rational_rank_stops_on_the_hadamard_bound(monkeypatch):
    primes = count_eliminations(monkeypatch)
    # rank 1 over Q, 0 mod the first prime; never full, so the loop ends only
    # when the squared primes outgrow the two largest squared norms
    # (8 p^2 * 2 p^2), which takes a third prime
    p = LARGEST_PRIME
    assert rank([{0: p, 1: p}, {0: 2 * p, 1: 2 * p}]) == 1
    assert primes == [linalg._prime(k) for k in range(3)]
    # one prime settles small +-1 matrices that are not of full rank
    primes.clear()
    assert rank(sparse([[1, -1, 0], [0, 1, -1], [1, 0, -1]])) == 2
    assert primes == [LARGEST_PRIME]


def test_primes_count_down_from_largest():
    def is_prime(n):
        return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert linalg._prime(0) == LARGEST_PRIME == 2**31 - 1
    for k in range(1, 4):
        q, above = linalg._prime(k), linalg._prime(k - 1)
        assert q < above and is_prime(q)
        assert not any(is_prime(x) for x in range(q + 1, above))


def test_rank_hybrid_agrees_small_and_large():
    rng = random.Random(3)
    for _ in range(80):
        nrows = rng.randint(0, 9)
        ncols = rng.randint(1, 9)
        m = random_matrix(rng, nrows, ncols)
        assert rank(sparse(m)) == rank_oracle(m)
    # sizes well past anything a dense backend would take
    side = 58
    big = [{i: 1} for i in range(side)]
    assert rank(big) == side
    big[side - 1] = {}
    assert rank(big) == side - 1


def test_rank_empty_and_degenerate():
    for vectors in ([], [{}], [{0: 0}], [{0: 0, 1: 0, 2: 0}]):
        assert rank(vectors) == 0
        assert linalg._rank_mod(vectors, SMALL_PRIME) == 0
    assert linalg._rank_mod([{0: SMALL_PRIME}], SMALL_PRIME) == 0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=6),
        min_size=1,
        max_size=6,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_rank_hybrid_property(rows):
    assert rank(sparse(rows)) == rank_oracle(rows)
    assert linalg._rank_mod(sparse(rows), SMALL_PRIME) == rank_oracle(rows, SMALL_PRIME)


def test_rank_invariant_under_row_ops():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(2, 6)
        m = random_matrix(rng, n, n)
        base = rank(sparse(m))
        # swap two rows
        i, j = rng.sample(range(n), 2)
        swapped = [row[:] for row in m]
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert rank(sparse(swapped)) == base
        # add a multiple of one row to another
        added = [row[:] for row in m]
        c = rng.randint(-3, 3)
        added[i] = [a + c * b for a, b in zip(added[i], added[j])]
        assert rank(sparse(added)) == base
        # transpose
        assert rank(sparse([list(col) for col in zip(*m)])) == base


@pytest.mark.parametrize("p", [None, SMALL_PRIME, LARGEST_PRIME])
def test_rank_ignores_vector_order_and_index_gaps(p):
    rng = random.Random(5)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        vectors = [{10 * j + 3: x for j, x in enumerate(row) if x} for row in m]
        rng.shuffle(vectors)
        found = rank(vectors) if p is None else linalg._rank_mod(vectors, p)
        assert found == rank_oracle(m, p)

