"""Betti tables from the lcm-lattice backend, held against the dense Koszul
oracle in ``koszul_oracle`` and, on stable ideals and ideals with linear
quotients, the closed forms of ``ek_oracle``; the two closed-form base cases
against the lattice walk they bypass; the packed lcm-lattice kernel against
the tuple route in ``lattice_oracle`` and the Eagon-Northcott numbers of
m^d."""
import os
import random
import resource
import subprocess
import sys
from functools import reduce
from itertools import combinations, combinations_with_replacement
from math import comb
from operator import and_

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gotzmann
from gotzmann import resolution
from gotzmann.errors import ZeroModule
from gotzmann.monomial_algebra import (
    GradedFreeModule,
    Monomial,
    MonomialIdeal,
    MonomialSubmodule,
    _ideal_numerator,
    _stable_counts,
)
from gotzmann.resolution import (
    BettiTable,
    _face_set_homology,
    _ideal_table,
    _lattice_walk,
    _linear_quotient_counts,
    _rank_words,
    _relabelled_homology,
    koszul_betti,
    regularity,
)

from conftest import (
    STABLE_CLOSURES,
    betti_alternating_sum,
    counted_numerator,
    ideal,
    ideal_hs_numerator,
    module,
    near_misses,
    random_stable_ideal,
)
from ek_oracle import colon_sizes, ek_betti_table, ek_regularity, is_stable, linear_quotient_table
from enumeration_oracle import monomials_of_degree
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


def _lattice_table(ideal):
    """The Betti table of an ideal by the lcm-lattice walk alone, neither
    base case tried: the route both bypass."""
    return _lattice_walk(ideal.n, *_rank_words(ideal.exponents))


@settings(max_examples=80, deadline=None)
@given(STABLE_CLOSURES, st.data())
def test_stable_table_equals_the_lattice_and_near_misses_fall_through(stable, data):
    # on a stable ideal the closed-form table equals the lattice walk it
    # bypasses and the oracle's formula; an ideal one exchange short of it
    # is refused by the stability test and answered by the linear-quotients
    # test or the lattice walk, which matches the tuple route and, through
    # the alternating sums, monomial counting
    table = _ideal_table.__wrapped__(stable.exponents)
    assert table == _lattice_table(stable)
    assert BettiTable(table) == ek_betti_table(stable)
    misses = near_misses(stable)
    if misses:
        miss = data.draw(st.sampled_from(misses))
        assert _stable_counts(miss.exponents) is None
        assert _ideal_table.__wrapped__(miss.exponents) == lattice_oracle_table(miss)
        quotient = koszul_betti(module(miss.n, (0,), [miss]))
        assert betti_alternating_sum(quotient) == counted_numerator(miss)


def _linear_quotients(ideal):
    """``_linear_quotient_counts`` of an ideal, from its own rank words."""
    words, _, steps = _rank_words(ideal.exponents)
    return _linear_quotient_counts(ideal.exponents, words, steps.get(1, 0))


def _colon_counts(ideal, sizes):
    counts = {}
    for u, r in zip(ideal.exponents, sizes):
        counts[sum(u), r] = counts.get((sum(u), r), 0) + 1
    return counts


def _squarefree(variables, degree, keep):
    """The squarefree monomials of this degree at the kept places of their
    lex listing, all of them when none is kept."""
    subsets = list(combinations(range(variables), degree))
    chosen = [c for c, k in zip(subsets, keep) if k] or subsets
    return MonomialIdeal(variables - 1, tuple(
        Monomial(tuple(int(v in c) for v in range(variables))) for c in chosen
    ))


# squarefree quadrics and cubics in 3 to 5 variables, each kept or not
_SQUAREFREE = st.tuples(st.integers(3, 5), st.sampled_from((2, 3))).flatmap(
    lambda shape: st.lists(
        st.booleans(), min_size=comb(*shape), max_size=comb(*shape)
    ).map(lambda keep: _squarefree(*shape, keep))
)

# ideals with linear quotients in the canonical order, by the tuple oracle:
# stable closures (all of them), squarefree families and random ideals
_LINEAR_QUOTIENTS = st.one_of(
    STABLE_CLOSURES,
    _SQUAREFREE,
    st.integers(1, 3).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(0, 2)] * (n + 1)).filter(any), min_size=1, max_size=6
    ).map(lambda gens: MonomialIdeal(n, tuple(map(Monomial, gens))))),
).filter(lambda i: colon_sizes(i) is not None)


def _near_misses(ideal):
    """The ideals with one generator dropped or raised by one variable that
    the tuple oracle refuses."""
    gens, n = ideal.exponents, ideal.n
    out = []
    for i, g in enumerate(gens):
        rest = gens[:i] + gens[i + 1:]
        for extra in [()] + [(g[:v] + (g[v] + 1,) + g[v + 1:],) for v in range(n + 1)]:
            out.append(MonomialIdeal(n, tuple(map(Monomial, rest + extra))))
    return [m for m in out if colon_sizes(m) is None]


@settings(max_examples=120, deadline=None)
@given(_LINEAR_QUOTIENTS, st.data())
def test_linear_quotient_table_equals_the_lattice_and_near_misses_fall_through(lq, data):
    # the colon sizes of the rank-word test are the tuple oracle's, and the
    # closed-form table equals the lattice walk it bypasses, the oracle's
    # formula and the dense Koszul table; a near miss is refused and walked,
    # which matches the tuple route
    counts = _linear_quotients(lq)
    assert counts == _colon_counts(lq, colon_sizes(lq))
    stable = _stable_counts(lq.exponents)
    if stable is not None:
        assert counts == stable  # in a stable ideal the colon of u is x_0..x_(m(u)-1)
    table = _ideal_table.__wrapped__(lq.exponents)
    assert table == _lattice_table(lq)
    assert BettiTable(table) == linear_quotient_table(lq)
    assert BettiTable(table).as_dict() == koszul_betti_oracle(module(lq.n, (0,), [lq]), False)
    misses = _near_misses(lq)
    if misses:
        miss = data.draw(st.sampled_from(misses))
        assert _linear_quotients(miss) is None
        assert _ideal_table.__wrapped__(miss.exponents) == lattice_oracle_table(miss)


def test_linear_quotient_examples():
    cases = [
        # not stable; linear quotients in the canonical order: the path and
        # the 4-cycle, whose complements are chordal, and m^2 without x0^2
        (ideal(3, "x0*x1", "x1*x2", "x2*x3"), [0, 1, 1]),
        (ideal(3, "x0*x1", "x1*x2", "x2*x3", "x0*x3"), [0, 1, 1, 2]),
        (ideal(2, "x0*x1", "x0*x2", "x1^2", "x1*x2", "x2^2"), [0, 1, 1, 2, 2]),
        # the colon of x1^2 is (x0^2): a quotient with exponent 2
        (ideal(1, "x0^2", "x1^2"), None),
        # the colon of x2*x3 is (x0*x1): no variable at all
        (ideal(3, "x0*x1", "x2*x3"), None),
        # the path on five vertices: the colon of x3*x4 is (x2, x0*x1)
        (ideal(4, "x0*x1", "x1*x2", "x2*x3", "x3*x4"), None),
    ]
    for lq, sizes in cases:
        assert colon_sizes(lq) == sizes, lq
        counts = _linear_quotients(lq)
        assert counts == (None if sizes is None else _colon_counts(lq, sizes)), lq
        assert _ideal_table.__wrapped__(lq.exponents) == lattice_oracle_table(lq), lq


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


def test_regularity_builds_no_betti_table(corpus, monkeypatch):
    # max(j - i) off the cached _ideal_table rows, shifted by f_i (and by one
    # homological step on the quotient side), equals the table's regularity
    def table_regularity(sub, as_quotient):
        try:
            return koszul_betti(sub, as_quotient).regularity()
        except ZeroModule:
            return ZeroModule

    def read(sub, as_quotient):
        try:
            return regularity(sub, as_quotient)
        except ZeroModule:
            return ZeroModule

    cases = [(sub, q) for sub in corpus[:60] for q in (True, False)]
    expected = [table_regularity(sub, q) for sub, q in cases]
    assert ZeroModule in expected and len(set(expected)) > 3

    def refuse(*args, **kwargs):
        raise AssertionError("regularity built a Betti table")

    monkeypatch.setattr(BettiTable, "__init__", refuse)
    assert [read(sub, q) for sub, q in cases] == expected


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


# A cap of 1..9 on the exponents, so that a variable has from 2 to 9 distinct
# exponents (0 counted), and a field of the unary words is as many bits wide.
_capped_ideals = st.tuples(st.integers(0, 5), st.integers(1, 9)).flatmap(
    lambda shape: st.lists(
        st.tuples(*[st.integers(0, shape[1])] * (shape[0] + 1)), max_size=8
    ).map(lambda gens: _ideal_of(shape[0], gens))
)


@settings(max_examples=150, deadline=None)
@given(_capped_ideals)
def test_ideal_table_matches_tuple_oracle(any_ideal):
    assert _ideal_table(any_ideal.exponents) == lattice_oracle_table(any_ideal)
    assert _lattice_table(any_ideal) == lattice_oracle_table(any_ideal)


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
        # exponents far apart: the ranks are 0..3 in each variable, and each
        # degree is a sum of steps between consecutive exponents
        _ideal_of(2, [(10**9, 0, 3), (7, 10**6, 0), (0, 5, 10**12), (7, 5, 3)]),
        # alpha = (2, 2) has the one nonempty facet {x0, x1}: a full simplex
        _ideal_of(1, [(2, 0), (1, 1), (0, 2)]),
        meet_in_maximal,
        MonomialIdeal.zero(3),
        MonomialIdeal.unit(3),
    ]
    for case in cases:
        assert _ideal_table(case.exponents) == lattice_oracle_table(case), case
        assert _lattice_table(case) == lattice_oracle_table(case), case
    assert _ideal_table(MonomialIdeal.zero(3).exponents) == ()
    unit = module(3, (0,), ["unit"])
    assert koszul_betti(unit, as_quotient=False).as_dict() == {(0, 0): 1}


@settings(max_examples=100, deadline=None)
@given(_capped_ideals, st.integers(0, 3))
def test_wide_path_matches_tuple_oracle(any_ideal, vertices):
    # with a smaller cap on the face set's vertices, the facets are moved onto
    # the vertices they use, and complexes on more of them skip the face set
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(resolution, "FACE_SET_VERTICES", vertices)
        assert _lattice_table(any_ideal) == lattice_oracle_table(any_ideal)


def _high_variable_ideals():
    """Ideals whose complexes have few vertices on high variables: x0..x29
    and x1..x30 (facets {x30} and {x0} at the lcm); x30*x31 and x32*x33; and
    the 30 products of all but one of x0..x29 (30 isolated vertices at the
    lcm, past FACE_SET_VERTICES)."""
    return [
        _ideal_of(30, [[1] * 30 + [0], [0] + [1] * 30]),
        _ideal_of(33, [[int(v in (30, 31)) for v in range(34)], [int(v in (32, 33)) for v in range(34)]]),
        _ideal_of(29, [[int(v != i) for v in range(30)] for i in range(30)]),
    ]


def test_complexes_on_high_variables_stay_small():
    # a face set on all n + 1 variables would need 2^31 bits and more here;
    # the tables are computed under a 256 MB data limit
    script = (
        "from test_resolution import _high_variable_ideals\n"
        "from gotzmann.resolution import _ideal_table\n"
        "print([_ideal_table(i.exponents) for i in _high_variable_ideals()])\n"
    )
    limit = 256 << 20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_DATA, (limit, limit))

    path = [os.path.dirname(os.path.dirname(gotzmann.__file__)), os.path.dirname(__file__)]
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        preexec_fn=cap_memory, env={"PYTHONPATH": os.pathsep.join(path)},
    )
    assert done.returncode == 0, done.stderr
    expected = [lattice_oracle_table(i) for i in _high_variable_ideals()]
    assert done.stdout == f"{expected}\n"
    assert expected[0] == ((0, 30, 2), (1, 31, 1))


def test_face_set_keys_span_at_most_the_cap():
    keys = []

    def recording(faces):
        keys.append(faces)
        return _face_set_homology(faces)

    # the 12 products of all but one of x0..x11, in as many variables as a
    # face set may key: at the lcm the facets are 12 isolated vertices
    narrow = _ideal_of(11, [[int(v != i) for v in range(12)] for i in range(12)])
    # x17*x18, x18*x19 and x19*x20 in 21 variables, past the cap: their
    # maximal facets go to the nerve and the relabelling with no face set
    wide = _ideal_of(20, [[int(v in pair) for v in range(21)] for pair in ((17, 18), (18, 19), (19, 20))])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(resolution, "_face_set_homology", recording)
        for case in (narrow, wide):
            assert _lattice_table(case) == lattice_oracle_table(case)
    assert keys and all(key.bit_length() <= 1 << resolution.FACE_SET_VERTICES for key in keys)


def _wide_support_ideal(variables):
    """Five generators with each exponent randint(0, 3) from Random(0).
    Listing every face of each K^alpha, as ``lattice_oracle`` does, takes
    about 2 s in 13 variables and 25 s in 16; the nerves of the maximal
    faces have at most five vertices."""
    rng = random.Random(0)
    return _ideal_of(variables - 1, [[rng.randint(0, 3) for _ in range(variables)] for _ in range(5)])


# the table of the 16-variable ideal, computed by listing every face
WIDE_16_TABLE = (
    (0, 22, 1), (0, 23, 3), (0, 29, 1), (1, 29, 1), (1, 33, 3), (1, 34, 1), (1, 35, 1), (1, 36, 2),
    (1, 40, 1), (2, 38, 3), (2, 39, 1), (2, 40, 1), (2, 41, 2), (3, 41, 1), (3, 42, 1),
)


def test_wide_supports_match_the_face_listing():
    thirteen = _wide_support_ideal(13)
    assert _ideal_table(thirteen.exponents) == lattice_oracle_table(thirteen)
    assert _ideal_table(_wide_support_ideal(16).exponents) == WIDE_16_TABLE


def test_wide_support_in_twenty_variables_matches_the_series_numerator():
    twenty = _wide_support_ideal(20)
    numerator = {e: c for e, c in _ideal_numerator(twenty.exponents) if c}
    assert betti_alternating_sum(koszul_betti(module(19, (0,), [twenty]))) == numerator


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
    # m^d is stable, so the table is the closed form; the lattice walk agrees
    expected = tuple((i, j, v) for (i, j), v in sorted(_eagon_northcott(n + 1, d).items()))
    assert _lattice_table(power.components[0]) == expected


def _mask(*vertices):
    return sum(1 << v for v in vertices)


def _faces_of(facets):
    """Face set of the complex with these facets (vertex masks): bit F is
    set iff F is a subset of some facet, each subset listed one by one."""
    faces = 0
    for f in facets:
        sub = f
        while True:
            faces |= 1 << sub
            if not sub:
                break
            sub = (sub - 1) & f
    return faces


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
        # fewer maximal faces than vertices, answered by their nerve: three
        # triangles in a cycle (a hollow triangle) and three disjoint faces
        ([_mask(0, 1, 2), _mask(2, 3, 4), _mask(4, 5, 0)], ((1, 1),)),
        ([_mask(0, 1), _mask(2, 3), _mask(4, 5, 6)], ((0, 2),)),
    ]
    for facets, expected in cases:
        assert _face_set_homology(_faces_of(facets)) == expected, facets


def _permuted(mask, permutation):
    return sum(1 << permutation[v] for v in range(mask.bit_length()) if mask >> v & 1)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 63), min_size=1, max_size=12),
    st.permutations(range(6)),
)
def test_reduced_homology_is_invariant_under_relabelling(facets, permutation):
    relabelled = [_permuted(f, permutation) for f in facets]
    uncached = _relabelled_homology.__wrapped__(frozenset(facets))
    assert _face_set_homology(_faces_of(facets)) == uncached
    assert _face_set_homology(_faces_of(relabelled)) == uncached


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=1, max_size=8).map(lambda fs: resolution._maximal(set(fs))))
@example([_mask(0, 1, 2), _mask(2, 3, 4), _mask(4, 5, 0)])  # fewer faces than vertices: a circle
@example([_mask(0, 1), _mask(2, 3), _mask(4, 5, 6)])  # disjoint faces
@example([_mask(0, 1, 2, 3)])  # one face
@example([0])  # the empty face alone, H~_{-1} = Q
@example([_mask(0, 1, 7), _mask(1, 2, 7), _mask(0, 2, 7), _mask(3, 7)])  # a cone on apex 7
def test_nerve_of_the_maximal_faces_keeps_the_homology(maximal):
    # the nerve, taken when the maximal faces are fewer than the vertices,
    # against every face of the complex listed directly
    assert resolution._facets_homology(maximal) == _relabelled_homology.__wrapped__(frozenset(maximal))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 31), min_size=1, max_size=10), st.integers(0, 5))
def test_a_cone_is_answered_with_no_rank_work(facets, apex):
    # one more vertex in every facet makes a cone, which is acyclic: it is
    # answered from the maximal faces, with no rank work
    def lift(f):
        low = f & ((1 << apex) - 1)
        return low | (f ^ low) << 1 | 1 << apex

    cone = _faces_of(map(lift, facets))
    before = _relabelled_homology.cache_info()
    assert _face_set_homology(cone) == ()
    assert _relabelled_homology.cache_info() == before


@settings(max_examples=100, deadline=None)
@given(_capped_ideals)
def test_frobenius_power_doubles_degrees_with_no_new_miss(any_ideal):
    # I^[2], every exponent doubled, has the lattice 2 alpha and
    # K^(2 alpha)(I^[2]) = K^alpha(I): its table is I's with every degree
    # doubled, and its complexes are the ones I's table just met
    doubled = _ideal_of(any_ideal.n, [[2 * e for e in g] for g in any_ideal.exponents])
    table = _lattice_table(any_ideal)
    misses = _face_set_homology.cache_info().misses
    assert _lattice_table(doubled) == tuple((i, 2 * j, v) for i, j, v in table)
    assert _face_set_homology.cache_info().misses == misses


def _maximal_unless_cone(facets):
    """The maximal facets of a complex given by vertex masks, or None for a
    cone (one vertex in every maximal facet), which needs no rank work."""
    maximal = [f for f in facets if not any(f != g and f & g == f for g in facets)]
    return None if reduce(and_, maximal) else frozenset(maximal)


def test_relabelling_shares_homology_across_a_corpus():
    # the homology memo misses once per distinct complex that is not a full
    # simplex, each counted once by the down-closure of the oracle's facets;
    # complexes that differ by a permutation of the variables recur across
    # ideals, so the relabelled key needs at most half as many rank
    # computations as there are distinct non-cone complexes; the lattice walk
    # is called itself, as _ideal_table answers some of these ideals in
    # closed form and would meet only the complexes of the others
    for cache in (_face_set_homology, _relabelled_homology):
        cache.cache_clear()
    rng = random.Random(0)
    complexes, non_cones = set(), set()
    for i in range(60):
        n = 4 + i % 2
        gens = {tuple(rng.randint(0, 3) for _ in range(n + 1)) for _ in range(rng.randint(3, 8))}
        gens.discard((0,) * (n + 1))
        _lattice_table(_ideal_of(n, gens))
        minimal = [g.exponents for g in _ideal_of(n, gens).gens]
        for alpha in lcm_lattice(minimal):
            facets = lattice_oracle_facets(alpha, minimal)
            support = sum(1 << v for v, a in enumerate(alpha) if a)
            if support not in facets:
                complexes.add(_faces_of(facets))
                non_cones.add(_maximal_unless_cone(facets))
    non_cones.discard(None)
    assert len(non_cones) > 100
    assert _face_set_homology.cache_info().misses == len(complexes)
    assert _relabelled_homology.cache_info().misses <= len(non_cones) / 2
