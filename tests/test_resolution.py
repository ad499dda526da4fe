"""Betti tables from the lcm-lattice backend, held against the dense Koszul
oracle in ``koszul_oracle`` and, on stable ideals, the Eliahou-Kervaire
oracle in ``ek_oracle``; the packed lcm-lattice kernel against the tuple
route in ``lattice_oracle`` and the Eagon-Northcott numbers of m^d."""
import random
from functools import reduce
from itertools import combinations_with_replacement
from math import comb
from operator import and_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gotzmann.errors import ZeroModule
from gotzmann.monomial_algebra import (
    GradedFreeModule,
    Monomial,
    MonomialIdeal,
    MonomialSubmodule,
    _ideal_numerator,
    monomials_of_degree,
)
from gotzmann.resolution import (
    BettiTable,
    _ideal_table,
    _reduced_homology,
    _relabelled_homology,
    koszul_betti,
    regularity,
)

from conftest import (
    betti_alternating_sum,
    ideal,
    ideal_hs_numerator,
    module,
    random_stable_ideal,
)
from ek_oracle import ek_betti_table, ek_regularity, is_stable
from koszul_oracle import koszul_betti_oracle
from lattice_oracle import facets as lattice_oracle_facets
from lattice_oracle import ideal_table as lattice_oracle_table
from lattice_oracle import lcm_lattice


def _oracle_regularity(sub, as_quotient=True):
    table = koszul_betti_oracle(sub, as_quotient)
    return max(j - i for (i, j), v in table.items() if v)


def test_betti_table_basics():
    table = BettiTable.from_dict({(0, 0): 1, (1, 2): 2, (2, 3): 0, (1, 1): -3})
    assert table.as_dict() == {(0, 0): 1, (1, 2): 2}
    assert table.get(1, 2) == 2
    assert table.get(5, 5) == 0
    assert not table.is_empty()
    assert table.regularity() == 1
    assert table.to_dict() == {"betti": [[0, 0, 1], [1, 2, 2]]}
    empty = BettiTable.from_dict({})
    assert empty.is_empty()
    with pytest.raises(ZeroModule):
        empty.regularity()


def test_koszul_known_quotient_tables():
    points = module(1, (0,), [ideal(1, "x0", "x1")])
    assert koszul_betti(points).as_dict() == {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    curve = module(2, (0,), [ideal(2, "x0^2", "x0*x1")])
    assert koszul_betti(curve).as_dict() == {(0, 0): 1, (1, 2): 2, (2, 3): 1}


def test_koszul_submodule_side():
    points = module(1, (0,), [ideal(1, "x0", "x1")])
    table = koszul_betti(points, as_quotient=False)
    assert table.as_dict() == {(0, 1): 2, (1, 2): 1}
    assert table.regularity() == 1


def test_koszul_respects_degree_shifts(twisted_plane_pair):
    # two free components at degree -1, one unit component
    table = koszul_betti(twisted_plane_pair)
    assert table.as_dict() == {(0, -1): 2}
    assert table.regularity() == -1
    sub_side = koszul_betti(twisted_plane_pair, as_quotient=False)
    assert sub_side.as_dict() == {(0, 0): 1}


def test_koszul_free_and_zero_quotients(two_free_lines):
    # quotient by (unit, zero, zero) over degree-0 ambient
    assert koszul_betti(two_free_lines).as_dict() == {(0, 0): 2}
    all_unit = module(1, (0, 0), ["unit", "unit"])
    assert koszul_betti(all_unit).is_empty()
    assert koszul_betti(all_unit, as_quotient=False).as_dict() == {(0, 0): 2}


def test_quotient_and_ideal_tables_shift_by_one():
    # beta_{i,j}(I) = beta_{i+1,j}(S/I) for proper nonzero I, plus the
    # (0,0) entry on the quotient side
    for gens in (("x0", "x1"), ("x0^2", "x0*x1"), ("x0^2", "x1^3", "x0*x1")):
        sub = module(2, (0,), [ideal(2, *gens)])
        quot = koszul_betti(sub).as_dict()
        side = koszul_betti(sub, as_quotient=False).as_dict()
        assert quot.pop((0, 0)) == 1
        assert quot == {(i + 1, j): v for (i, j), v in side.items()}


def test_is_stable_examples():
    assert is_stable(ideal(1, "x0"))
    assert not is_stable(ideal(1, "x1"))
    assert is_stable(ideal(2, "x0^2", "x0*x1", "x1^2"))
    assert not is_stable(ideal(2, "x0^2", "x1^2"))
    assert is_stable(ideal(2, "x0^2", "x0*x1"))
    from gotzmann.monomial_algebra import MonomialIdeal

    assert is_stable(MonomialIdeal.zero(2))
    assert is_stable(MonomialIdeal.unit(2))


def test_ek_regularity_and_errors():
    assert ek_regularity(ideal(1, "x0", "x1")) == 1
    assert ek_regularity(ideal(2, "x0^2", "x0*x1")) == 2
    with pytest.raises(ValueError, match="not stable"):
        ek_regularity(ideal(1, "x1"))
    from gotzmann.monomial_algebra import MonomialIdeal

    with pytest.raises(ZeroModule):
        ek_regularity(MonomialIdeal.zero(1))


def test_ek_tables_match_koszul():
    cases = [
        ideal(1, "x0", "x1"),
        ideal(2, "x0^2", "x0*x1"),
        ideal(2, "x0^2", "x0*x1", "x1^2"),
        ideal(2, "x0"),
    ]
    for stable_ideal in cases:
        sub = module(stable_ideal.n, (0,), [stable_ideal])
        assert ek_betti_table(stable_ideal).as_dict() == koszul_betti(
            sub, as_quotient=False
        ).as_dict()
        assert ek_betti_table(stable_ideal, quotient=True).as_dict() == koszul_betti(
            sub
        ).as_dict()


def test_ek_unit_ideal_convention():
    from gotzmann.monomial_algebra import MonomialIdeal

    unit = MonomialIdeal.unit(2)
    assert ek_betti_table(unit).as_dict() == {(0, 0): 1}
    assert ek_betti_table(unit, quotient=True).is_empty()


def test_ek_matches_koszul_on_seeded_stable_ideals():
    seen = 0
    for seed in range(60):
        stable_ideal = random_stable_ideal(seed)
        if not is_stable(stable_ideal) or stable_ideal.is_unit():
            continue
        if stable_ideal.max_gen_degree() > 6 or len(stable_ideal.gens) > 6:
            continue
        seen += 1
        sub = module(stable_ideal.n, (0,), [stable_ideal])
        koszul = koszul_betti(sub, as_quotient=False)
        assert ek_betti_table(stable_ideal).as_dict() == koszul.as_dict()
        assert ek_regularity(stable_ideal) == koszul.regularity()
        assert ek_regularity(stable_ideal) == stable_ideal.max_gen_degree()
    assert seen >= 30


def test_regularity_examples(two_free_lines, twisted_plane_pair):
    assert regularity(two_free_lines) == 0
    assert regularity(two_free_lines, as_quotient=False) == 0
    assert regularity(twisted_plane_pair) == -1
    assert regularity(twisted_plane_pair, as_quotient=False) == 0
    points = module(1, (0,), [ideal(1, "x0", "x1")])
    assert regularity(points) == 0
    assert regularity(points, as_quotient=False) == 1


def test_regularity_zero_module_and_validation():
    free = module(1, (0, 1), ["zero", "zero"])
    assert regularity(free) == 1  # regularity of the free module itself
    with pytest.raises(ZeroModule):
        regularity(free, as_quotient=False)
    all_unit = module(1, (0,), ["unit"])
    with pytest.raises(ZeroModule):
        regularity(all_unit)
    assert regularity(all_unit, as_quotient=False) == 0


def test_quotient_vs_submodule_shift_on_ideals(corpus):
    # for a proper nonzero ideal in a rank-1 degree-0 ambient the two sides
    # differ by exactly one
    checked = 0
    for sub in corpus:
        for comp in sub.components:
            if comp.is_zero() or comp.is_unit():
                continue
            wrapper = module(comp.n, (0,), [comp])
            assert regularity(wrapper, as_quotient=False) == regularity(wrapper) + 1
            checked += 1
            break
        if checked >= 30:
            break
    assert checked >= 30


def test_regularity_dispatch_agrees_with_koszul(corpus):
    for sub in corpus[:40]:
        if all(c.is_unit() for c in sub.components):
            continue
        assert regularity(sub) == _oracle_regularity(sub)
        if not sub.is_zero():
            assert regularity(sub, as_quotient=False) == _oracle_regularity(
                sub, as_quotient=False
            )


def _assert_matches_oracle(sub):
    for as_quotient in (True, False):
        expected = {k: v for k, v in koszul_betti_oracle(sub, as_quotient).items() if v}
        assert koszul_betti(sub, as_quotient).as_dict() == expected, (sub, as_quotient)


def test_koszul_betti_matches_dense_koszul_oracle(corpus):
    for sub in corpus:
        _assert_matches_oracle(sub)


def _seeded_equigenerated(seed, n, degree, lo, hi):
    rng = random.Random(seed)
    pool = list(monomials_of_degree(n, degree))
    gens = tuple(rng.sample(pool, rng.randint(lo, hi)))
    return module(n, (0,), [MonomialIdeal(n, gens)])


def test_koszul_betti_matches_oracle_in_five_variables():
    for seed in range(4):
        _assert_matches_oracle(_seeded_equigenerated(seed, 4, 2, 3, 6))


def test_koszul_betti_matches_oracle_above_twelve_generators():
    # past SUBSET_PRUNE_LIMIT the oracle checks every bidegree in its window
    cases = [_seeded_equigenerated(seed, 2, 4, 13, 15) for seed in range(2)]
    cases += [_seeded_equigenerated(seed, 2, 5, 13, 16) for seed in range(2)]
    cases.append(_seeded_equigenerated(0, 3, 3, 13, 15))
    for sub in cases:
        assert len(sub.components[0].gens) > 12
        _assert_matches_oracle(sub)


_proper_ideals = st.integers(1, 3).flatmap(
    lambda n: st.lists(
        st.tuples(*[st.integers(0, 3)] * (n + 1)).filter(any), max_size=8
    ).map(lambda gens: MonomialIdeal(n, tuple(Monomial(g) for g in gens)))
)


@settings(max_examples=80, deadline=None)
@given(_proper_ideals)
def test_betti_properties_on_random_ideals(proper_ideal):
    sub = module(proper_ideal.n, (0,), [proper_ideal])
    table = koszul_betti(sub)
    numerator = {e: c for e, c in _ideal_numerator(proper_ideal.exponents) if c}
    assert betti_alternating_sum(table) == numerator
    quot = table.as_dict()
    side = koszul_betti(sub, as_quotient=False).as_dict()
    assert quot.pop((0, 0)) == 1
    assert quot == {(i + 1, j): v for (i, j), v in side.items()}


def test_betti_alternating_sum_matches_series_numerator(corpus):
    # Euler characteristic of the resolution: signed column sums of the
    # quotient Betti table equal the Hilbert series numerator
    checked = 0
    for sub in corpus[:60]:
        for comp in sub.components:
            if comp.is_unit():
                continue
            wrapper = module(comp.n, (0,), [comp])
            table = koszul_betti(wrapper)
            assert betti_alternating_sum(table) == ideal_hs_numerator(comp)
            checked += 1
    assert checked >= 60


# ---------------------------------------------------------------------------
# The packed lcm-lattice kernel


def _ideal_of(n, exponent_lists):
    return MonomialIdeal(n, tuple(Monomial(tuple(e)) for e in exponent_lists))


# A cap of 1..9 on the exponents, so that the largest one crosses 1, 2, 4 and
# 8, where the packed field width grows by a bit.
_capped_ideals = st.tuples(st.integers(0, 5), st.integers(1, 9)).flatmap(
    lambda shape: st.lists(
        st.tuples(*[st.integers(0, shape[1])] * (shape[0] + 1)), max_size=8
    ).map(lambda gens: _ideal_of(shape[0], gens))
)


@settings(max_examples=150, deadline=None)
@given(_capped_ideals)
def test_ideal_table_matches_tuple_oracle(any_ideal):
    assert _ideal_table(any_ideal) == lattice_oracle_table(any_ideal)


def _only_maximal_facets_meet(ideal):
    """Whether some alpha has facets with no common vertex while its maximal
    facets share one: a cone that only the second cone test skips."""
    gens = [g.exponents for g in ideal.gens]
    for alpha in lcm_lattice(gens):
        facets = lattice_oracle_facets(alpha, gens)
        maximal = [f for f in facets if not any(f & g == f != g for g in facets)]
        if not reduce(and_, facets) and reduce(and_, maximal):
            return True
    return False


def test_ideal_table_matches_tuple_oracle_on_edge_cases():
    meet_in_maximal = _ideal_of(2, [(2, 0, 2), (1, 2, 1), (1, 1, 2)])
    # at alpha = (2, 2, 2) the facets are {x1}, {x0, x1} and {x0, x2}
    assert _only_maximal_facets_meet(meet_in_maximal)
    cases = [
        # each alpha that is a generator has the empty facet alone
        _ideal_of(3, [(2, 0, 5, 1)]),
        _ideal_of(4, [(1, 0, 0, 0, 0), (0, 2, 0, 0, 0), (0, 0, 4, 0, 0), (0, 0, 0, 8, 0)]),
        _ideal_of(2, [(9, 0, 0), (0, 9, 0), (0, 0, 9)]),
        # alpha = (2, 2) has the one nonempty facet {x0, x1}: a full simplex
        _ideal_of(1, [(2, 0), (1, 1), (0, 2)]),
        meet_in_maximal,
        MonomialIdeal.zero(3),
        MonomialIdeal.unit(3),
    ]
    for case in cases:
        assert _ideal_table(case) == lattice_oracle_table(case), case
    assert _ideal_table(MonomialIdeal.zero(3)) == ()
    unit = module(3, (0,), ["unit"])
    assert koszul_betti(unit, as_quotient=False).as_dict() == {(0, 0): 1}


def _eagon_northcott(variables, d):
    """beta_{i,d+i}(m^d) = C(d + N - 1, d + i) C(d + i - 1, i), N variables."""
    return {
        (i, d + i): comb(d + variables - 1, d + i) * comb(d + i - 1, i)
        for i in range(variables)
    }


@pytest.mark.parametrize(
    "n, d", [(n, d) for n in range(6) for d in (1, 2, 3)] + [(3, 4)]
)
def test_powers_of_the_maximal_ideal_match_eagon_northcott(n, d):
    gens = []
    for chosen in combinations_with_replacement(range(n + 1), d):
        gens.append(tuple(chosen.count(v) for v in range(n + 1)))
    power = module(n, (0,), [_ideal_of(n, gens)])
    assert koszul_betti(power, as_quotient=False).as_dict() == _eagon_northcott(n + 1, d)


def _mask(*vertices):
    return sum(1 << v for v in vertices)


def test_reduced_homology_of_known_complexes():
    octahedron = [_mask(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    # the 6-vertex real projective plane: 10 triangles, each edge in two
    rp2 = [
        _mask(*t)
        for t in (
            (0, 1, 3), (0, 1, 5), (0, 2, 4), (0, 2, 5), (0, 3, 4),
            (1, 2, 3), (1, 2, 4), (1, 4, 5), (2, 3, 5), (3, 4, 5),
        )
    ]
    cases = [
        ([0], ((-1, 1),)),
        ([_mask(0), _mask(1)], ((0, 1),)),
        ([_mask(0, 1), _mask(0, 2), _mask(1, 2)], ((1, 1),)),
        ([_mask(0, 1, 2)], ()),
        (octahedron, ((2, 1),)),
        # H~ over Q vanishes; over GF(2) it would be H_1 = H_2 = 1
        (rp2, ()),
    ]
    for facets, expected in cases:
        assert _reduced_homology(frozenset(facets)) == expected, facets


def _permuted(mask, permutation):
    return sum(1 << permutation[v] for v in range(mask.bit_length()) if mask >> v & 1)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 63), min_size=1, max_size=12),
    st.permutations(range(6)),
)
def test_reduced_homology_is_invariant_under_relabelling(facets, permutation):
    facets = frozenset(facets)
    relabelled = frozenset(_permuted(f, permutation) for f in facets)
    uncached = _relabelled_homology.__wrapped__(facets)
    assert _reduced_homology(facets) == uncached
    assert _reduced_homology(relabelled) == uncached


def _spread(mask, w):
    """A vertex mask as a guard-bit pattern of stride w: vertex v at bit v*w + w - 1."""
    return sum(1 << (v * w + w - 1) for v in range(mask.bit_length()) if mask >> v & 1)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 31), min_size=1, max_size=10),
    st.lists(st.integers(0, 31), max_size=10),
)
def test_reduced_homology_reads_facets_at_any_stride(facets, cuts):
    # non-maximal faces ride along: each cut keeps part of one facet
    faces = set(facets) | {facets[i % len(facets)] & cut for i, cut in enumerate(cuts)}
    uncached = _relabelled_homology.__wrapped__(frozenset(faces))
    apex = 1 << 5
    for w in (1, 2, 3, 4):
        assert _reduced_homology(frozenset(_spread(f, w) for f in faces)) == uncached, w
        # one more vertex in every facet makes a cone, which is acyclic; the
        # faces without it are not maximal, so it answers with no rank work
        cone = frozenset(_spread(f | apex, w) for f in faces) | {_spread(f, w) for f in faces}
        before = _relabelled_homology.cache_info()
        assert _reduced_homology(cone) == (), w
        assert _relabelled_homology.cache_info() == before, w


def _maximal_unless_cone(facets):
    """The maximal facets of a complex given by vertex masks, or None for a
    cone (one vertex in every maximal facet), which needs no rank work."""
    maximal = [f for f in facets if not any(f != g and f & g == f for g in facets)]
    return None if reduce(and_, maximal) else frozenset(maximal)


def test_relabelling_shares_homology_across_a_corpus():
    # complexes that differ by a permutation of the variables recur across
    # ideals: the relabelled key needs at most half as many rank computations
    # as there are distinct non-cone complexes, each counted once by its
    # maximal facets on the oracle's vertex masks
    for cache in (_ideal_table, _reduced_homology, _relabelled_homology):
        cache.cache_clear()
    rng = random.Random(0)
    complexes = set()
    for i in range(60):
        n = 4 + i % 2
        gens = {tuple(rng.randint(0, 3) for _ in range(n + 1)) for _ in range(rng.randint(3, 8))}
        gens.discard((0,) * (n + 1))
        koszul_betti(module(n, (0,), [_ideal_of(n, gens)]))
        minimal = [g.exponents for g in _ideal_of(n, gens).gens]
        for alpha in lcm_lattice(minimal):
            complexes.add(_maximal_unless_cone(lattice_oracle_facets(alpha, minimal)))
    complexes.discard(None)
    assert len(complexes) > 100
    assert _reduced_homology.cache_info().misses >= len(complexes)
    assert _relabelled_homology.cache_info().misses <= len(complexes) / 2
