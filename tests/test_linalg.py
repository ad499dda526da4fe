"""Exact rational ranks against the independent ``Fraction`` oracle."""
import random
import sys

from conftest import module, random_stable_ideal
from hypothesis import given, settings
from hypothesis import strategies as st
from rank_oracle import rank_oracle

from gotzmann import linalg, monomial_algebra, resolution
from gotzmann.linalg import rank
from gotzmann.theorems import sweep

P = 2**31 - 1


def sparse(rows):
    """Dense rows as sparse vectors; the rank of a matrix is that of its rows."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def random_matrix(rng, nrows, ncols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


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


def test_rank_exact_matches_oracle_seeded():
    rng = random.Random(0)
    for _ in range(150):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        m = random_matrix(rng, nrows, ncols)
        assert rank(sparse(m)) == rank_oracle(sparse(m))


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
        assert r == rank_oracle(sparse(m))


def test_rank_modular_can_undercount():
    # matrices whose rank drops mod the prime P: [[P]] is zero mod P, and
    # [[P, P], [2P, 2P]] too, while their rational ranks are 1
    assert rank([{0: P}]) == 1
    assert rank(sparse([[P, P], [2 * P, 2 * P]])) == 1


def test_rank_over_small_prime_differs_from_rational():
    # det [[1, 2], [3, -1]] = -7, so the rank is 1 mod 7 and 2 over Q
    assert rank(sparse([[1, 2], [3, -1]])) == 2


def test_rank_matches_fraction_oracle_small_and_large():
    rng = random.Random(3)
    for _ in range(80):
        nrows = rng.randint(0, 9)
        ncols = rng.randint(1, 9)
        m = random_matrix(rng, nrows, ncols)
        assert rank(sparse(m)) == rank_oracle(sparse(m))
    # sizes well past anything a dense backend would take
    side = 58
    big = [{i: 1} for i in range(side)]
    assert rank(big) == side
    big[side - 1] = {}
    assert rank(big) == side - 1


def test_rank_empty_and_degenerate():
    for vectors in ([], [{}], [{0: 0}], [{0: 0, 1: 0, 2: 0}]):
        assert rank(vectors) == 0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=6),
        min_size=1,
        max_size=6,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_rank_matches_fraction_oracle_property(rows):
    assert rank(sparse(rows)) == rank_oracle(sparse(rows))


ENTRIES = st.sampled_from([0, 1, -1, P, -P])


@st.composite
def factors(draw):
    """A (rows x k) and B (k x cols), entries in {0, +-1, +-P}."""
    nrows, k, ncols = (draw(st.integers(1, 7)) for _ in range(3))
    a = draw(st.lists(st.lists(ENTRIES, min_size=k, max_size=k), min_size=nrows, max_size=nrows))
    b = draw(st.lists(st.lists(ENTRIES, min_size=ncols, max_size=ncols), min_size=k, max_size=k))
    return a, b


@settings(max_examples=100, deadline=None)
@given(factors())
def test_rank_large_entries_and_low_rank_products_property(ab):
    # A itself, then A * B: rank at most k, entries up to about k * P^2
    a, b = ab
    assert rank(sparse(a)) == rank_oracle(sparse(a))
    product = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    found = rank(sparse(product))
    assert found <= len(b)
    assert found == rank_oracle(sparse(product))


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


def test_rank_ignores_vector_order_and_index_gaps():
    rng = random.Random(5)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        vectors = [{10 * j + 3: x for j, x in enumerate(row) if x} for row in m]
        rng.shuffle(vectors)
        assert rank(vectors) == rank_oracle(sparse(m))


def test_rank_matches_oracle_on_every_caller_matrix(monkeypatch):
    # every matrix the two callers rank on a seeded corpus: the hyperplane
    # kernels and Betti tables of sweep(200), the Betti tables of seeded
    # stable ideals in up to 6 variables, each held to the Fraction
    # oracle
    for cache in (monomial_algebra._record, resolution._ideal_table,
                  resolution._face_set_homology, resolution._relabelled_homology):
        cache.cache_clear()
    seen = []

    def capture(vectors):
        found = rank(vectors)
        seen.append((sys._getframe(1).f_code.co_name, vectors, found))
        return found

    monkeypatch.setattr(linalg, "rank", capture)
    for _ in sweep(200):
        pass
    for seed in range(200):
        stable_ideal = random_stable_ideal(seed, n_max=5)
        resolution.koszul_betti(module(stable_ideal.n, (0,), [stable_ideal]), as_quotient=False)
    callers = [caller for caller, _, _ in seen]
    assert set(callers) == {"_kernel", "_relabelled_homology"}
    for _, vectors, found in seen:
        assert found == rank_oracle(vectors)
