"""Dense Koszul homology: an independent oracle for the library's Betti tables.

Tor is computed as homology of the Koszul complex on all n+1 variables
tensored with the module, degree by degree, with exact ranks over every
degree-j monomial of S/I or I.  Candidate bidegrees (i, j) are pruned through
the Taylor resolution support: beta_{i,j}(S/I) can only be nonzero when j is
the degree of the lcm of i minimal generators, with a conservative
full-window fallback once subset enumeration gets large.  It shares no code
with the lcm-lattice backend in ``gotzmann.resolution`` beyond monomial
arithmetic; its ranks come from the ``Fraction`` elimination of
``rank_oracle``, not ``linalg.rank``.  It is far slower, so it only runs in
tests.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from enumeration_oracle import monomials_of_degree, quotient_basis
from rank_oracle import rank_oracle

from gotzmann.combinatorics import binomial
from gotzmann.monomial_algebra import Monomial, MonomialIdeal, MonomialSubmodule

SUBSET_PRUNE_LIMIT = 12


@lru_cache(maxsize=None)
def ideal_basis(ideal: MonomialIdeal, e: int) -> tuple[Monomial, ...]:
    """Degree-e monomials inside the ideal (a k-basis of I_e)."""
    return tuple(m for m in monomials_of_degree(ideal.n, e) if ideal.contains(m))


def koszul_rank(ideal: MonomialIdeal, quotient: bool, i: int, j: int) -> int:
    """Rank of the Koszul differential (K_i ⊗ M)_j -> (K_{i-1} ⊗ M)_j.

    Basis elements are (T, b) with T an i-subset of variables and b a degree
    j - i monomial basis element of M; the differential sends (T, b) to
    sum over t in T of +/- (T - {t}, x_t * b), dropping terms that leave the
    monomial basis (only possible on the quotient side).
    """
    if i < 1:
        return 0
    n = ideal.n
    basis_fn = quotient_basis if quotient else ideal_basis
    source_monos = basis_fn(ideal, j - i)
    target_monos = basis_fn(ideal, j - i + 1)
    if not source_monos or not target_monos:
        return 0
    var_sets = list(combinations(range(n + 1), i))
    target_sets = {T: k for k, T in enumerate(combinations(range(n + 1), i - 1))}
    target_index = {m.exponents: k for k, m in enumerate(target_monos)}
    columns = []
    for T in var_sets:
        for b in source_monos:
            column = {}
            e = b.exponents
            for pos, t in enumerate(T):
                mi = target_index.get(e[:t] + (e[t] + 1,) + e[t + 1 :])
                if mi is None:
                    continue
                rest = T[:pos] + T[pos + 1 :]
                column[target_sets[rest] * len(target_monos) + mi] = 1 if pos % 2 == 0 else -1
            columns.append(column)
    return rank_oracle(columns)


def koszul_candidates(ideal: MonomialIdeal, quotient: bool) -> set[tuple[int, int]]:
    n = ideal.n
    gens = ideal.gens
    cands: set[tuple[int, int]] = set()
    if quotient:
        cands.add((0, 0))
    if not gens:
        return cands
    max_i = n + 1 if quotient else n
    if len(gens) <= SUBSET_PRUNE_LIMIT:
        top_size = max_i if quotient else max_i + 1
        for size in range(1, min(len(gens), top_size) + 1):
            i = size if quotient else size - 1
            if i > max_i:
                continue
            for T in combinations(gens, size):
                l = T[0]
                for g in T[1:]:
                    l = l.lcm(g)
                cands.add((i, l.degree))
    else:
        lo = min(g.degree for g in gens)
        l = gens[0]
        for g in gens[1:]:
            l = l.lcm(g)
        for i in range(0 if not quotient else 1, max_i + 1):
            for j in range(lo, l.degree + 1):
                cands.add((i, j))
    return cands


def koszul_ideal_table(ideal: MonomialIdeal, quotient: bool) -> dict[tuple[int, int], int]:
    """Graded Betti numbers of S/I (quotient=True) or of I as a module."""
    n = ideal.n
    if quotient and ideal.is_unit():
        return {}
    if not quotient and ideal.is_zero():
        return {}
    basis_fn = quotient_basis if quotient else ideal_basis
    rank_memo: dict[tuple[int, int], int] = {}

    def rank_at(i: int, j: int) -> int:
        if i < 1 or i > n + 1:
            return 0
        if (i, j) not in rank_memo:
            rank_memo[(i, j)] = koszul_rank(ideal, quotient, i, j)
        return rank_memo[(i, j)]

    table: dict[tuple[int, int], int] = {}
    for i, j in sorted(koszul_candidates(ideal, quotient)):
        dim_kij = binomial(n + 1, i) * len(basis_fn(ideal, j - i))
        if dim_kij == 0:
            continue
        beta = dim_kij - rank_at(i, j) - rank_at(i + 1, j)
        if beta < 0:
            raise AssertionError(f"negative Betti number at ({i}, {j})")
        if beta:
            table[(i, j)] = beta
    return table


def koszul_betti_oracle(
    submodule: MonomialSubmodule, as_quotient: bool = True
) -> dict[tuple[int, int], int]:
    """Betti numbers of F/N or N as a dict, each component shifted by its degree."""
    total: dict[tuple[int, int], int] = {}
    for f, ideal in zip(submodule.degrees, submodule.components):
        for (i, j), v in koszul_ideal_table(ideal, as_quotient).items():
            total[(i, j + f)] = total.get((i, j + f), 0) + v
    return total
