"""Shared fixtures: named example modules and the seeded random corpus."""
import random
import sys

import pytest
from hypothesis import strategies as st
from enumeration_oracle import quotient_basis
from rank_oracle import rank_oracle

from gotzmann import monomial_algebra
from gotzmann.combinatorics import binomial, green_transform, macaulay_transform
from gotzmann.monomial_algebra import (
    GradedFreeModule,
    Monomial,
    MonomialIdeal,
    MonomialSubmodule,
    monomial_from_string,
)
from gotzmann.numpoly import GotzmannRep, binomial_poly
from gotzmann.theorems import random_submodule

CORPUS_SIZE = 200


def ideal(n, *gens):
    """Monomial ideal from generator strings, e.g. ideal(2, "x0^2", "x0*x1")."""
    return MonomialIdeal(n, tuple(monomial_from_string(g, n) for g in gens))


def module(n, degrees, components):
    """Submodule from per-component specs: 'zero', 'unit', or a MonomialIdeal."""
    comps = []
    for c in components:
        if c == "zero":
            comps.append(MonomialIdeal.zero(n))
        elif c == "unit":
            comps.append(MonomialIdeal.unit(n))
        else:
            comps.append(c)
    return MonomialSubmodule(GradedFreeModule(n, tuple(degrees)), tuple(comps))


@pytest.fixture(scope="session")
def two_free_lines():
    """Quotient with two free rank-1 summands over a 2-variable ring:
    F = S^3 (degrees 0,0,0), N = S*e1."""
    return module(1, (0, 0, 0), ["unit", "zero", "zero"])


@pytest.fixture(scope="session")
def twisted_plane_pair():
    """Rank-2 quotient of a shifted free module over a 3-variable ring:
    F degrees (-1,-1,0), N = S*e3."""
    return module(2, (-1, -1, 0), ["zero", "zero", "unit"])


@pytest.fixture(scope="session")
def corpus():
    """The seeded random-submodule corpus used by the oracle suites."""
    return [random_submodule(seed) for seed in range(CORPUS_SIZE)]


def transform_tables(a_max, d_max):
    """Tabulated transforms for 0 <= a <= a_max, 1 <= d <= d_max.

    Returns (mac, grn) with mac[d][a] = macaulay_transform(a, d).
    """
    mac = {d: [macaulay_transform(a, d) for a in range(a_max + 1)] for d in range(1, d_max + 1)}
    grn = {d: [green_transform(a, d) for a in range(a_max + 1)] for d in range(1, d_max + 1)}
    return mac, grn


def random_rep(rng, max_len=12, max_val=5):
    """Random valid representation exponent list (non-increasing)."""
    length = rng.randint(0, max_len)
    vals = sorted((rng.randint(0, max_val) for _ in range(length)), reverse=True)
    return GotzmannRep(tuple(vals))


def sharpness_instance(seed):
    """Seeded admissible (poly, ambient, r) triple for the lex sharpness check.

    The middle degree f_{m-r} is pinned to 0 and the remainder is drawn as a
    representation with exponents <= n-1 so it is the Hilbert polynomial of a
    proper quotient of the polynomial ring; that keeps the constructed lex
    module nonzero and the check's premises satisfied.
    """
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    r = rng.randint(1, 2)
    extra_low = rng.randint(0, 1)
    s_q = rng.randint(1, 5)
    low = sorted(rng.randint(-2, -1) for _ in range(extra_low)) + [0]
    high = sorted(rng.randint(0, min(2, s_q)) for _ in range(r))
    degrees = tuple(low + high)
    a = tuple(sorted((rng.randint(0, n - 1) for _ in range(s_q)), reverse=True))
    poly = GotzmannRep(a).polynomial()
    for f in high:
        poly = poly + binomial_poly(n, n - f)
    return poly, GradedFreeModule(n, degrees), r, s_q


def random_stable_ideal(seed, n_max=3, tries=50):
    """Seeded random stable ideal: close a few random monomials under the
    exchange moves x_j * (g / x_max) for j below the top variable."""
    rng = random.Random(seed)
    n = rng.randint(1, n_max)
    gens = []
    for _ in range(rng.randint(1, 3)):
        exps = [0] * (n + 1)
        for _ in range(rng.randint(1, 4)):
            exps[rng.randrange(n + 1)] += 1
        gens.append(tuple(exps))
    closed = set(gens)
    frontier = list(gens)
    for _ in range(tries):
        if not frontier:
            break
        g = frontier.pop()
        u = max((v for v, e in enumerate(g) if e), default=-1)
        if u <= 0:
            continue
        for j in range(u):
            cand = list(g)
            cand[u] -= 1
            cand[j] += 1
            cand = tuple(cand)
            if not any(all(a <= b for a, b in zip(h, cand)) for h in closed):
                closed.add(cand)
                frontier.append(cand)
    return MonomialIdeal(n, tuple(Monomial(g) for g in closed))


def _exchanges(u):
    """The exchanges x_j u / x_k, j < k, of an exponent tuple u, k the
    largest index of a variable dividing u."""
    k = max((v for v, e in enumerate(u) if e), default=0)
    return [u[:j] + (u[j] + 1,) + u[j + 1 : k] + (u[k] - 1,) + u[k + 1 :] for j in range(k)]


def stable_closure(n, exps):
    """The least stable ideal holding the monomials of these exponent
    tuples: the tuples closed under exchanges.  Every minimal generator lies
    in the closed set with its exchanges, so the ideal is stable."""
    closed, frontier = set(exps), list(exps)
    while frontier:
        for h in _exchanges(frontier.pop()):
            if h not in closed:
                closed.add(h)
                frontier.append(h)
    return MonomialIdeal(n, tuple(Monomial(g) for g in closed))


def near_misses(stable):
    """The stable ideal with one minimal generator h dropped, for each h
    that is an exchange of another generator u: u stays and h leaves the
    ideal, so none of them is stable."""
    gens = stable.exponents
    exchanges = {h for u in gens for h in _exchanges(u)}
    return [
        MonomialIdeal(stable.n, tuple(Monomial(g) for g in gens if g != h))
        for h in gens if h in exchanges
    ]


# stable closures of one to four monomials of degree 1 to 4 in 2 to 4
# variables, each drawn as the list of its variables
STABLE_CLOSURES = st.integers(1, 3).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, n), min_size=1, max_size=4), min_size=1, max_size=4
    ).map(lambda monomials: stable_closure(
        n, [tuple(m.count(v) for v in range(n + 1)) for m in monomials]
    ))
)


def set_node_budget(monkeypatch, budget):
    """Patch the series node budget and empty every lru_cache of the loaded
    gotzmann modules, so no value cached under the old budget is answered."""
    monkeypatch.setattr(monomial_algebra, "NODE_BUDGET", budget)
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "gotzmann" or name.startswith("gotzmann.")):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


# three squarefree quadrics: not stable (x0^2 is missing), so the series
# goes to the pivot recursion, which needs more than one node: a node budget
# of 1 is exceeded
THREE_QUADRICS = module(2, (0,), [ideal(2, "x0*x1", "x1*x2", "x0*x2")])


def hf_quotient(ideal_obj, e):
    """dim_k (S/I)_e by counting the monomials outside the ideal."""
    return len(quotient_basis(ideal_obj, e))


def hf_count(submodule, d):
    """H(F/N, d) by counting the monomials outside each component.

    The counting oracle for everything the library reads off Hilbert series.
    """
    return sum(
        hf_quotient(comp, d - f)
        for f, comp in zip(submodule.degrees, submodule.components)
    )


def quadratic_minimal(exps):
    """Minimal exponent tuples in the canonical order (by degree, then
    descending lex), each candidate compared with every kept one."""
    kept = []
    for g in sorted(sorted(set(exps), reverse=True), key=sum):
        if not any(all(a <= b for a, b in zip(h, g)) for h in kept):
            kept.append(g)
    return tuple(kept)


def colon_var_power(exps, v):
    """Exponent tuples of I : x_v^infinity from those of I: x_v deleted from
    every generator.  With ``intersect``, the saturation oracle."""
    return quadratic_minimal(g[:v] + (0,) + g[v + 1 :] for g in exps)


def intersect(left, right):
    """Exponent tuples of I ∩ J from those of I and J: the minimal lcms of
    all generator pairs.  Generators in different rings are refused, since
    the lcm of tuples of two lengths would silently drop variables."""
    lcms = []
    for a in left:
        for b in right:
            if len(a) != len(b):
                raise ValueError(f"cannot intersect generators {a} and {b} of different rings")
            lcms.append(tuple(map(max, a, b)))
    return quadratic_minimal(lcms)


def full_quotient_section_dim(ideal_obj, e):
    """dim (S/(I + hS))_e, h = x_0 + ... + x_n, as dim (S/I)_e minus the
    rank of multiplication by h from (S/I)_(e-1) to (S/I)_e, both quotients
    spanned by all their standard monomials, ranked by ``rank_oracle``."""
    n = ideal_obj.n
    if e < 0 or ideal_obj.is_unit():
        return 0
    target = quotient_basis(ideal_obj, e)
    source = quotient_basis(ideal_obj, e - 1) if target else ()
    row_of = {mono.exponents: i for i, mono in enumerate(target)}
    columns = []
    for u in source:
        ue = u.exponents
        column = {}
        for v in range(n + 1):
            i = row_of.get(ue[:v] + (ue[v] + 1,) + ue[v + 1 :])
            if i is not None:
                column[i] = 1
        columns.append(column)
    return len(target) - rank_oracle(columns)


def counted_numerator(ideal_obj):
    """Hilbert series numerator of S/I from counted values, as {exponent: coeff}.

    The numerator vanishes above the degree L of the lcm of the generators
    (Taylor resolution), so (1 - t)^(n+1) * sum_{d <= L} H(d) t^d,
    truncated at L, is all of it.
    """
    n = ideal_obj.n
    top = sum(max((g.exponents[v] for g in ideal_obj.gens), default=0) for v in range(n + 1))
    values = [hf_quotient(ideal_obj, d) for d in range(top + 1)]
    out = {}
    for e in range(top + 1):
        c = sum(
            (-1) ** i * binomial(n + 1, i) * values[e - i]
            for i in range(min(e, n + 1) + 1)
        )
        if c:
            out[e] = c
    return out


def ideal_hs_numerator(ideal_obj):
    """Hilbert series numerator of S/I as a degree -> coefficient dict."""
    from gotzmann.monomial_algebra import hilbert_series

    shape = GradedFreeModule(ideal_obj.n, (0,))
    series = hilbert_series(MonomialSubmodule(shape, (ideal_obj,)))
    return {
        series.offset + k: c
        for k, c in enumerate(series.numerator)
        if c
    }


def betti_alternating_sum(table):
    """Signed column sums of a Betti table as a degree -> coefficient dict."""
    out = {}
    for i, j, v in table.entries:
        out[j] = out.get(j, 0) + (v if i % 2 == 0 else -v)
    return {j: c for j, c in out.items() if c}


def dims_binomial(n, d):
    return binomial(d + n, n)
