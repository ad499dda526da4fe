"""Monomials, monomial ideals, submodules, and their Hilbert data."""
import copy
import functools
import gc
import itertools
import pickle
import random
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gotzmann.combinatorics import binomial
from gotzmann.errors import BudgetExceeded, InvariantViolated, PreconditionViolated
from gotzmann import linalg, monomial_algebra
from gotzmann.monomial_algebra import (
    GradedFreeModule,
    Monomial,
    MonomialIdeal,
    MonomialSubmodule,
    adjusted_hf_decomposition,
    generic_hyperplane_hf,
    hf_direct,
    hilbert_polynomial,
    hilbert_series,
    ideal_from_dict,
    ideal_to_dict,
    module_from_dict,
    module_to_dict,
    monomial_from_string,
    rank,
    saturate,
    stabilization_degree,
)
from gotzmann.numpoly import NumPoly
from gotzmann.theorems import check_green_adjusted, random_submodule

from conftest import (
    STABLE_CLOSURES,
    THREE_QUADRICS,
    colon_var_power,
    counted_numerator,
    full_quotient_section_dim,
    hf_count,
    hf_quotient,
    ideal,
    intersect,
    module,
    near_misses,
    quadratic_minimal,
    set_node_budget,
)
from ek_oracle import is_stable
from enumeration_oracle import exponents_of_degree, monomials_of_degree, quotient_basis
from hyperplane_oracle import hyperplane_hf, linear_section_dim, saturation_exponents
from lexify_oracle import exponents_at_rank
from series_oracle import (
    forward_difference_polynomial,
    hilbert_coefficient_polynomial,
    scan_stabilization_degree,
)


def test_monomial_basic_operations():
    m = Monomial((2, 1, 0))
    assert m.degree == 3
    assert Monomial((1, 0, 2)).divides(Monomial((1, 1, 2)))
    assert not Monomial((2, 0)).divides(Monomial((1, 5)))
    assert Monomial((1, 2)).lcm(Monomial((3, 0))) == Monomial((3, 2))


def test_operations_refuse_a_different_number_of_variables():
    # zip would truncate: (x0) would contain x0 in one variable, and the lcm
    # of (1, 2) and (0, 0, 5) would drop x2^5
    with pytest.raises(ValueError, match="does not live in 3 variables"):
        MonomialIdeal(2, (Monomial((1, 0, 0)),)).contains(Monomial((1,)))
    with pytest.raises(ValueError, match="does not live in 2 variables"):
        Monomial((1, 2)).lcm(Monomial((0, 0, 5)))
    with pytest.raises(ValueError, match="does not live in 3 variables"):
        Monomial((0, 0, 1)).divides(Monomial((0, 1)))


def test_monomial_rejects_negative_exponents():
    with pytest.raises(ValueError):
        Monomial((1, -1))


def test_monomial_string_round_trip():
    for text in ("1", "x0", "x1^3", "x0^2*x1", "x2*x0"):
        m = monomial_from_string(text, 2)
        assert monomial_from_string(str(m), 2) == m
    with pytest.raises(ValueError):
        monomial_from_string("y0", 2)
    with pytest.raises(ValueError):
        monomial_from_string("x5", 2)


def test_monomials_of_degree_count_and_order():
    for n in range(0, 4):
        for d in range(0, 6):
            monos = monomials_of_degree(n, d)
            assert len(monos) == binomial(d + n, n)
            # descending lex: exponent tuples strictly decrease
            exps = [m.exponents for m in monos]
            assert exps == sorted(exps, reverse=True)
    assert monomials_of_degree(2, -1) == ()


def test_lex_rank_matches_enumeration():
    # the r-th monomial of the enumerated degree has rank r, and the tests'
    # bisection unranker inverts the rank
    rank = monomial_algebra._lex_rank
    for n in range(0, 5):
        for d in range(0, 9):
            degree = exponents_of_degree(n, d)
            assert [rank(u) for u in degree] == list(range(len(degree)))
            assert [exponents_at_rank(n, d, r) for r in range(len(degree))] == degree
    # n binomials per rank, in a degree too large to walk: its two ends, and
    # a run from a random monomial, whose ranks step by one
    d, rng = 10**6, random.Random(0)
    for n in (1, 2, 4, 7):
        assert rank((d,) + (0,) * n) == 0
        assert rank((0,) * n + (d,)) == binomial(d + n, n) - 1
        cuts = sorted(rng.randint(0, d) for _ in range(n))
        start = tuple(b - a for a, b in zip([0] + cuts, cuts + [d]))
        first = rank(start)
        count = min(50, binomial(d + n, n) - first)
        run = monomial_algebra._lex_run(start, count)
        assert [rank(u) for u in run] == list(range(first, first + count))


def test_ideal_minimalizes_generators():
    i = ideal(2, "x0", "x0^2", "x0*x1")
    assert [str(g) for g in i.gens] == ["x0"]
    assert MonomialIdeal.unit(2).is_unit()
    assert MonomialIdeal.zero(2).is_zero()
    assert not ideal(2, "x0").is_unit()


_GEN_LISTS = st.integers(0, 3).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.lists(st.integers(0, 3), min_size=n + 1, max_size=n + 1),
            max_size=8,
        ),
    )
)


@settings(max_examples=150, deadline=None)
@given(_GEN_LISTS)
def test_ideal_gens_are_the_minimal_set_in_canonical_order(case):
    n, exponent_lists = case
    gens = [Monomial(tuple(e)) for e in exponent_lists]
    minimal = {g for g in gens if not any(h.divides(g) and h != g for h in gens)}
    expected = sorted(minimal, key=lambda m: (m.degree, [-e for e in m.exponents]))
    assert list(MonomialIdeal(n, tuple(gens)).gens) == expected


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 3).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 4), min_size=n + 1, max_size=n + 1).map(tuple),
            max_size=40,
        )
    )
)
def test_minimal_matches_the_quadratic_pass(exps):
    assert monomial_algebra._minimal(exps) == quadratic_minimal(exps)


@settings(max_examples=150, deadline=None)
@given(_GEN_LISTS, st.integers(0, 6))
def test_quotient_basis_is_the_monomials_outside_the_ideal(case, e):
    n, exponent_lists = case
    ideal_obj = MonomialIdeal(n, tuple(Monomial(tuple(x)) for x in exponent_lists))
    outside = tuple(m for m in monomials_of_degree(n, e) if not ideal_obj.contains(m))
    assert quotient_basis(ideal_obj, e) == outside


def test_series_and_hyperplane_build_no_monomials(monkeypatch):
    """Inside the library monomials are exponent tuples; the series and the
    hyperplane section build no Monomial."""
    ideal_obj = ideal(3, "x0^2*x1", "x1^2*x2", "x0*x2*x3", "x3^3", "x1*x3^2")
    built = []
    honest = Monomial.__init__

    def counting(self, exponents):
        built.append(exponents)
        honest(self, exponents)

    monkeypatch.setattr(Monomial, "__init__", counting)
    numerator = monomial_algebra._ideal_numerator.__wrapped__(ideal_obj.exponents)
    monomial_algebra._record.cache_clear()
    monomial_algebra._saturated_gens.cache_clear()
    dims = [generic_hyperplane_hf(module(3, (0,), [ideal_obj]), e) for e in range(5)]
    assert built == []
    assert dict(numerator) == counted_numerator(ideal_obj)
    assert dims[0] == 1 and dims[1] == 3


def test_ideal_contains():
    i = ideal(2, "x0^2", "x1")
    assert i.contains(monomial_from_string("x0^2*x2", 2))
    assert not i.contains(monomial_from_string("x0*x2", 2))


def test_colon_and_intersect():
    i = ideal(2, "x0*x2^3")
    assert colon_var_power(i.exponents, 2) == ideal(2, "x0").exponents
    a = ideal(1, "x0^2")
    b = ideal(1, "x0*x1")
    assert intersect(a.exponents, b.exponents) == ideal(1, "x0^2*x1").exponents
    # generators are not re-checked after the lcm pass, so the rings must match
    for left, right in ((a, ideal(2, "x2^2")), (ideal(2, "x2^2"), a)):
        with pytest.raises(ValueError):
            intersect(left.exponents, right.exponents)


def test_saturation_examples():
    assert ideal(2, "x0^2", "x0*x1").saturation() == ideal(2, "x0^2", "x0*x1")
    # no associated prime is the irrelevant ideal, so nothing is removed
    assert ideal(2, "x0*x2^3").saturation() == ideal(2, "x0*x2^3")
    assert ideal(1, "x0^2", "x0*x1").saturation() == ideal(1, "x0")
    assert ideal(2, "x0^2", "x0*x1", "x0*x2").saturation() == ideal(2, "x0")
    assert MonomialIdeal.zero(2).saturation().is_zero()
    # powers of the irrelevant ideal saturate to the unit ideal
    assert ideal(1, "x0^2", "x0*x1", "x1^2").saturation().is_unit()


def test_saturation_computes_no_series(monkeypatch):
    # saturate() answers from the generators alone: no pivot recursion, so
    # no NODE_BUDGET refusal, and a later hyperplane value reuses the generators
    for cache in (monomial_algebra._saturated_gens, monomial_algebra._record,
                  monomial_algebra._ideal_numerator):
        cache.cache_clear()

    def refuse(*args):
        raise AssertionError("saturation ran the series recursion")

    monkeypatch.setattr(monomial_algebra, "_power_pivot_numerator", refuse)
    unsaturated = ideal(3, "x0^2", "x0*x1", "x0*x2", "x0*x3", "x1^3*x2")
    assert unsaturated.saturation() == ideal(3, "x0", "x1^3*x2")
    assert ideal(2, "x0*x2^3").saturation() == ideal(2, "x0*x2^3")
    monkeypatch.undo()
    hits = monomial_algebra._saturated_gens.cache_info().hits
    generic_hyperplane_hf(module(3, (0,), [unsaturated]), 2)
    assert monomial_algebra._saturated_gens.cache_info().hits == hits + 1


# up to 40 generators in up to 6 variables, so that _saturated_gens often
# finds running generators that the next colon already contains
_SATURATION_CASES = st.integers(0, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.lists(st.integers(0, 4), min_size=n + 1, max_size=n + 1),
            max_size=40,
        ),
    )
)


@settings(max_examples=100, deadline=None)
@given(_SATURATION_CASES)
def test_saturation_is_the_intersection_of_variable_colons(case):
    n, exponent_lists = case
    ideal_obj = MonomialIdeal(n, tuple(Monomial(tuple(e)) for e in exponent_lists))
    colons = (colon_var_power(ideal_obj.exponents, v) for v in range(n + 1))
    assert ideal_obj.saturation().exponents == functools.reduce(intersect, colons)


def test_saturation_pairs_no_generator_the_next_colon_contains(monkeypatch):
    # I = (x2, x3)^3 ∩ (x1, x3)^3 ∩ (x0, ..., x3)^5: I : x0^inf is the
    # intersection of the two primary parts, and every later colon contains
    # it, so each step passes on the running generators and forms no lcm
    def power(variables, d):
        return MonomialIdeal(3, tuple(
            m for m in monomials_of_degree(3, d)
            if sum(m.exponents[v] for v in variables) == d
        ))

    primary = intersect(power((2, 3), 3).exponents, power((1, 3), 3).exponents)
    gens = intersect(primary, power(range(4), 5).exponents)
    sizes = []
    honest = monomial_algebra._minimal

    def recording(exps):
        exps = list(exps)
        sizes.append(len(exps))
        return honest(exps)

    monkeypatch.setattr(monomial_algebra, "_minimal", recording)
    sat = monomial_algebra._saturated_gens(gens)
    monkeypatch.undo()
    assert sat == primary
    # calls: the four colons, then one _minimal per step for v = 1, 2, 3
    assert sizes[4:] == [len(sat)] * 3


def test_max_gen_degree():
    assert ideal(2, "x0^2", "x1^3").max_gen_degree() == 3
    with pytest.raises(ValueError):
        MonomialIdeal.zero(2).max_gen_degree()


def test_quotient_basis_and_count():
    i = ideal(1, "x0^2", "x0*x1")
    assert [str(m) for m in quotient_basis(i, 2)] == ["x1^2"]
    assert hf_quotient(i, 0) == 1
    assert hf_quotient(i, 1) == 2
    assert hf_quotient(i, 5) == 1
    assert hf_quotient(MonomialIdeal.unit(1), 3) == 0
    assert hf_quotient(MonomialIdeal.zero(1), 3) == 4


def test_free_module_validation():
    with pytest.raises(ValueError):
        GradedFreeModule(1, ())
    with pytest.raises(ValueError):
        GradedFreeModule(1, (1, 0))
    f = GradedFreeModule(2, (-1, -1, 0))
    assert f.m == 3
    assert f.dim_at(0) == 3 + 3 + 1


def test_submodule_validation():
    shape = GradedFreeModule(1, (0, 0))
    with pytest.raises(ValueError):
        MonomialSubmodule(shape, (MonomialIdeal.zero(1),))
    with pytest.raises(ValueError):
        MonomialSubmodule(shape, (MonomialIdeal.zero(1), MonomialIdeal.zero(2)))


def test_submodule_rank_and_gen_degree(two_free_lines, twisted_plane_pair):
    assert rank(two_free_lines) == 2
    assert rank(twisted_plane_pair) == 2
    assert two_free_lines.max_gen_degree() == 0  # the unit component, degree 0
    assert twisted_plane_pair.max_gen_degree() == 0
    zero = module(1, (0,), ["zero"])
    assert zero.max_gen_degree() is None
    assert zero.is_zero()
    shifted = module(1, (-2, 1), [ideal(1, "x0^3"), "unit"])
    assert shifted.max_gen_degree() == 1  # max(3 + (-2), 1)


def test_hf_direct_examples(two_free_lines, twisted_plane_pair):
    assert hf_direct(two_free_lines, 1) == 4
    assert hf_direct(two_free_lines, 2) == 6
    assert [hf_direct(twisted_plane_pair, d) for d in (-1, 0, 1)] == [2, 6, 12]
    # H(d) = d^2 + 5d + 6 from degree -1 on
    for d in range(-1, 6):
        assert hf_direct(twisted_plane_pair, d) == d * d + 5 * d + 6


def test_hilbert_series_example(two_free_lines):
    series = hilbert_series(two_free_lines)
    assert series.to_dict() == {"numerator": [2], "offset": 0, "denominator_power": 2}
    for d in range(0, 8):
        assert series.hf(d) == 2 * (d + 1)


def test_hilbert_series_oracle_on_corpus(corpus):
    for sub in corpus:
        series = hilbert_series(sub)
        for d in range(0, 13):
            assert series.hf(d) == hf_count(sub, d)
            assert hf_direct(sub, d) == hf_count(sub, d)


_PIVOT_CASES = st.integers(0, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.lists(st.integers(0, 3 if n < 4 else 2), min_size=n + 1, max_size=n + 1),
            max_size=10,
        ),
    )
)


@settings(max_examples=80, deadline=None)
@given(_PIVOT_CASES)
def test_pivot_route_matches_counting(case):
    n, exponent_lists = case
    ideal_obj = MonomialIdeal(n, tuple(Monomial(tuple(e)) for e in exponent_lists))
    gens = tuple(g.exponents for g in ideal_obj.gens)
    by_power = monomial_algebra._power_pivot_numerator(gens, [monomial_algebra.NODE_BUDGET])
    assert by_power == counted_numerator(ideal_obj)


def _one_mixed_generator(case):
    """Pure powers x_v^(m_v + delta_v) on the chosen variables plus the mixed
    generator m: each power exceeds m's exponent, so m stays minimal, and a
    variable outside m's support may carry x_v^1."""
    n, mixed, chosen, deltas = case
    gens = [mixed] + [
        tuple(mixed[v] + deltas[v] if w == v else 0 for w in range(n + 1))
        for v in range(n + 1) if chosen[v]
    ]
    return MonomialIdeal(n, tuple(map(Monomial, gens)))


_ONE_MIXED_CASES = st.integers(1, 3).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, 2), min_size=n + 1, max_size=n + 1).map(tuple).filter(
            lambda g: len(g) - g.count(0) > 1
        ),
        st.lists(st.booleans(), min_size=n + 1, max_size=n + 1),
        st.lists(st.integers(1, 2), min_size=n + 1, max_size=n + 1),
    )
)


@settings(max_examples=80, deadline=None)
@given(_ONE_MIXED_CASES)
@example((2, (1, 1, 0), (False, False, False), (1, 1, 1)))  # no pure powers
@example((2, (1, 2, 0), (False, False, True), (1, 1, 1)))  # x2^1
@example((3, (2, 1, 1, 0), (True, True, True, True), (1, 2, 1, 1)))  # every variable, x3^1
def test_one_mixed_generator_is_a_base_case(case):
    # pure powers plus one mixed generator m: N(I) = prod (1 - t^a_v)
    # - t^deg(m) prod (1 - t^(a_v - m_v)), answered at the root node
    ideal_obj = _one_mixed_generator(case)
    gens = ideal_obj.exponents
    assert sum(1 for g in gens if len(g) - g.count(0) > 1) == 1
    budget = [1]
    assert monomial_algebra._power_pivot_numerator(gens, budget) == counted_numerator(ideal_obj)
    assert budget == [0]


def test_unit_ideal_numerator_is_zero():
    for n in range(4):
        unit = MonomialIdeal.unit(n)
        assert monomial_algebra._power_pivot_numerator(unit.exponents, [1]) == {}
        assert counted_numerator(unit) == {}
        # the closed form: 1 less the unit's one term t^0 (1 - t)^0
        assert monomial_algebra._stable_counts(unit.exponents) == {(0, 0): 1}
        assert monomial_algebra._ideal_numerator.__wrapped__(unit.exponents) == ()


def _top_counts(ideal_obj):
    """{(deg u, m(u)): count} over the minimal generators u, m(u) the
    largest index of a variable dividing u (0 for u = 1)."""
    counts = {}
    for g in ideal_obj.exponents:
        key = sum(g), max((v for v, e in enumerate(g) if e), default=0)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _maximal_ideal_power(n, d):
    return MonomialIdeal(n, tuple(Monomial(e) for e in exponents_of_degree(n, d)))


# random ideals are almost never stable, so stable closures, their near
# misses (one exchange short of stable) and powers of the maximal ideal
# (one degree, each exchange a generator) are drawn as well
_STABILITY_CASES = st.one_of(
    _PIVOT_CASES.map(lambda case: MonomialIdeal(case[0], tuple(
        Monomial(tuple(e)) for e in case[1]
    ))),
    STABLE_CLOSURES,
    STABLE_CLOSURES.map(near_misses).filter(bool).flatmap(st.sampled_from),
    st.tuples(st.integers(0, 3), st.integers(1, 4)).map(lambda nd: _maximal_ideal_power(*nd)),
)


# four times the 150 draws of random ideals alone, so that about as many of
# them are drawn as before
@settings(max_examples=600, deadline=None)
@given(_STABILITY_CASES)
@example(MonomialIdeal.zero(2))
@example(MonomialIdeal.unit(2))
@example(ideal(2, "x0^2", "x0*x1", "x1^2", "x2"))  # x2 with no x0 or x1
def test_stability_test_matches_the_oracle_on_random_ideals(ideal_obj):
    counts = monomial_algebra._stable_counts(ideal_obj.exponents)
    assert (counts is not None) == is_stable(ideal_obj)
    if counts is not None:
        assert counts == _top_counts(ideal_obj)


@settings(max_examples=80, deadline=None)
@given(STABLE_CLOSURES, st.data())
def test_stable_numerator_equals_the_pivot_and_near_misses_fall_through(stable, data):
    # on a stable ideal the closed form equals the pivot recursion it
    # bypasses and monomial counting; an ideal one exchange short of it is
    # refused by the test and read off the pivot, which matches counting
    gens = stable.exponents
    assert is_stable(stable)
    assert monomial_algebra._stable_counts(gens) == _top_counts(stable)
    closed = monomial_algebra._ideal_numerator.__wrapped__(gens)
    pivot = monomial_algebra._power_pivot_numerator(gens, [monomial_algebra.NODE_BUDGET])
    assert closed == tuple(sorted(pivot.items()))
    assert dict(closed) == counted_numerator(stable)
    misses = near_misses(stable)
    if misses:
        miss = data.draw(st.sampled_from(misses))
        assert not is_stable(miss)
        assert monomial_algebra._stable_counts(miss.exponents) is None
        numerator = monomial_algebra._ideal_numerator.__wrapped__(miss.exponents)
        assert dict(numerator) == counted_numerator(miss)


def test_one_mixed_generator_within_a_node_budget_of_one(monkeypatch):
    sub = module(2, (0,), [ideal(2, "x0^3", "x1", "x2^4", "x0^2*x2^3")])
    # not stable, so the pivot's root node answers, not the closed form
    assert monomial_algebra._stable_counts(sub.components[0].exponents) is None
    expected = [hf_count(sub, d) for d in range(12)]
    set_node_budget(monkeypatch, 1)
    assert [hf_direct(sub, d) for d in range(12)] == expected


def test_series_budget(monkeypatch):
    # values cached under the full budget are dropped with it; the three
    # quadrics are not stable, so the pivot recursion reads them
    assert monomial_algebra._stable_counts(THREE_QUADRICS.components[0].exponents) is None
    readers = (
        hilbert_series,
        hilbert_polynomial,
        lambda sub: hf_direct(sub, 2),
        lambda sub: generic_hyperplane_hf(sub, 2),
    )
    for read in readers:
        read(THREE_QUADRICS)
    set_node_budget(monkeypatch, 1)
    for read in readers:
        with pytest.raises(BudgetExceeded):
            read(THREE_QUADRICS)


def test_series_numerator_span_is_bounded():
    # the numerator 1 - t^e is dense from 0 to e: e + 1 coefficients, built
    # up to TERM_BUDGET of them and refused past it before any tuple is made
    budget = monomial_algebra.TERM_BUDGET
    at_budget = hilbert_series(module(0, (0,), [ideal(0, f"x0^{budget - 1}")]))
    assert len(at_budget.numerator) == budget
    for e in (budget, 10**7, 99999999999):
        with pytest.raises(BudgetExceeded, match="more than"):
            hilbert_series(module(0, (0,), [ideal(0, f"x0^{e}")]))


def test_saturation_defect_past_the_term_budget_is_answered():
    # (x0^a, x1^a) saturates to the unit ideal, so I^sat/I has the series
    # (1 - t^a)^2/(1 - t)^2, nonzero over 2a - 1 > TERM_BUDGET degrees; its
    # three numerator terms are evaluated where they are read, so the
    # hyperplane value and the Green check are answered: H = 1, 2, 3 in
    # degrees 0, 1, 2 and the restriction at 2 is k[x]_2, of dimension 1
    a = monomial_algebra.TERM_BUDGET // 2 + 1
    sub = module(1, (0,), [ideal(1, f"x0^{a}", f"x1^{a}")])
    assert hf_direct(sub, 2) == 3
    assert generic_hyperplane_hf(sub, 2) == 1
    report = check_green_adjusted(sub, 2)
    assert (report.bound_lhs, report.bound_rhs, report.verdict) == (1, 1, "sharp")


def test_hilbert_polynomial_examples(twisted_plane_pair):
    assert hilbert_polynomial(twisted_plane_pair) == NumPoly([6, 5, 1])
    free_line = module(1, (0,), ["zero"])
    assert hilbert_polynomial(free_line) == NumPoly([1, 1])
    plane_curve = module(2, (0,), [ideal(2, "x0^2", "x0*x1")])
    assert hilbert_polynomial(plane_curve) == NumPoly([2, 1])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_hilbert_polynomial_matches_both_oracles(seed):
    # the binomial sum over the record's sparse numerator, against the
    # Hilbert coefficients and the forward differences of the dense series
    sub = random_submodule(seed)
    series = hilbert_series(sub)
    poly = hilbert_polynomial(sub)
    assert poly == hilbert_coefficient_polynomial(series.numerator, sub.n, series.offset)
    assert poly == forward_difference_polynomial(series.numerator, sub.n, series.offset)


def test_stabilization_degree_examples():
    assert stabilization_degree(module(1, (0,), ["zero"])) <= 0
    assert stabilization_degree(module(2, (0,), ["zero"])) <= 0
    # H(0) = 1 but P(0) = 2, so stabilization happens at 1, not 0
    assert stabilization_degree(module(2, (0,), [ideal(2, "x0^2", "x0*x1")])) == 1
    # artinian: H = (1, 2, 0, ...), P = 0, last disagreement at d = 1
    assert stabilization_degree(
        module(1, (0,), [ideal(1, "x0^2", "x0*x1", "x1^2")])
    ) == 2
    shifted = module(1, (3,), ["zero"])
    assert stabilization_degree(shifted) <= 3


def test_stabilization_is_tight_on_corpus(corpus):
    for sub in corpus[:80]:
        d0 = stabilization_degree(sub)
        poly = hilbert_polynomial(sub)
        for d in range(d0, d0 + 6):
            assert poly(d) == hf_count(sub, d)
        if any(hilbert_series(sub).numerator):
            # least such degree: one step below must disagree (or not even
            # be an integer value of the polynomial)
            below = poly(d0 - 1)
            assert below.denominator != 1 or int(below) != hf_count(sub, d0 - 1)


def line_modules():
    """Every submodule of k[x0]-modules with one or two summands in degrees
    -3..1, each component zero, unit or (x0^a), a <= 3."""
    specs = ["zero", "unit"] + [ideal(0, f"x0^{a}") for a in (1, 2, 3)]
    for m in (1, 2):
        for degrees in itertools.combinations_with_replacement(range(-3, 2), m):
            for comps in itertools.product(specs, repeat=m):
                yield module(0, degrees, list(comps))


def test_stabilization_degree_matches_the_scan():
    """E - n against the downward scan, over random_submodule(k) for k < 500
    (the corpus included) and over n = 0 modules with negative degrees."""
    subs = [random_submodule(k) for k in range(500)] + list(line_modules())
    assert any(s.n == 0 and s.degrees[0] < 0 and any(hilbert_series(s).numerator) for s in subs)
    for sub in subs:
        assert stabilization_degree(sub) == scan_stabilization_degree(sub), sub


def test_stabilization_degree_reads_only_the_series(monkeypatch, corpus):
    subs = corpus[:60] + list(line_modules())[:40]
    expected = [scan_stabilization_degree(sub) for sub in subs]

    def refuse(*args):
        raise AssertionError("the Hilbert polynomial was built or evaluated")

    monkeypatch.setattr(monomial_algebra, "hilbert_polynomial", refuse)
    monkeypatch.setattr(NumPoly, "__call__", refuse)
    monomial_algebra._record.cache_clear()
    monomial_algebra._ideal_numerator.cache_clear()
    assert [stabilization_degree(sub) for sub in subs] == expected


def test_saturate_examples_and_idempotence(corpus):
    sub = module(2, (0, 1), [ideal(2, "x0^2", "x0*x1", "x0*x2"), ideal(2, "x0*x2^3")])
    sat = saturate(sub)
    assert sat.components[0] == ideal(2, "x0")
    assert sat.components[1] == ideal(2, "x0*x2^3")
    for s in corpus[:60]:
        sat = saturate(s)
        assert saturate(sat) == sat
        assert hilbert_polynomial(sat) == hilbert_polynomial(s)
        d0 = max(stabilization_degree(s), stabilization_degree(sat))
        for d in range(d0, d0 + 4):
            assert hf_direct(sat, d) == hf_count(sat, d) == hf_count(s, d)


def test_adjusted_decomposition_examples(two_free_lines, twisted_plane_pair):
    assert adjusted_hf_decomposition(two_free_lines, 1) == (4, 0)
    assert adjusted_hf_decomposition(twisted_plane_pair, 0) == (4, 2)
    all_unit = module(1, (0, 0), ["unit", "unit"])
    assert adjusted_hf_decomposition(all_unit, 3) == (0, 0)


def test_adjusted_decomposition_window_on_corpus(corpus):
    for sub in corpus:
        n = sub.n
        degrees = sub.degrees
        r = rank(sub)
        m = len(degrees)
        for d in range(-2, 13):
            free, rho = adjusted_hf_decomposition(sub, d)
            assert free == sum(binomial(d - f + n, n) for f in degrees[m - r :])
            assert 0 <= rho <= sum(binomial(d - f + n, n) for f in degrees[: m - r])


def test_generic_hyperplane_examples(two_free_lines):
    assert generic_hyperplane_hf(two_free_lines, 2) == 2
    free_plane = module(2, (0,), ["zero"])
    assert generic_hyperplane_hf(free_plane, 3) == 4  # forms of degree 3 in 2 vars
    # generic h in two variables makes (x0, h) irrelevant: quotient is k
    line2 = module(1, (0,), [ideal(1, "x0")])
    assert generic_hyperplane_hf(line2, 1) == 0
    # in three variables the quotient by (x0, h) is a polynomial ring in one variable
    line3 = module(2, (0,), [ideal(2, "x0")])
    assert generic_hyperplane_hf(line3, 1) == 1
    with pytest.raises(PreconditionViolated):
        generic_hyperplane_hf(module(0, (0,), ["zero"]), 1)


def test_hyperplane_kernel_lies_in_the_saturation_quotient():
    # S/I = k[x0, x1]/(x1^2, x0*x1) has H = 1, 2, 1 in degrees 0, 1, 2, so the
    # first difference at 2 is -1; x1 spans (I^sat/I)_1 with I^sat = (x1, x2),
    # and x1*h = x0*x1 + x1^2 + x1*x2 lies in I, so the kernel adds 1
    kernel_case = ideal(2, "x2", "x1^2", "x0*x1")
    assert hf_quotient(kernel_case, 2) - hf_quotient(kernel_case, 1) == -1
    assert kernel_case.saturation() == ideal(2, "x1", "x2")
    sat = monomial_algebra._saturated_gens(kernel_case.exponents)
    defect = monomial_algebra._defect_numerator(kernel_case.exponents, sat)
    dims = {e: monomial_algebra._numerator_hf(defect, 2, e) for e in range(-1, 5)}
    assert {e: dim for e, dim in dims.items() if dim} == {1: 1}
    assert monomial_algebra._kernel(kernel_case, sat, 2) == 1
    assert linear_section_dim(kernel_case, 2) == 0
    assert generic_hyperplane_hf(module(2, (0,), [kernel_case]), 2) == 0


def test_generic_hyperplane_repeatable(corpus):
    # one fixed linear form: the value survives repeats and a cold cache
    subs = [(sub, max(sub.degrees) + 2) for sub in corpus[:50]]
    first = [generic_hyperplane_hf(sub, d) for sub, d in subs]
    assert [generic_hyperplane_hf(sub, d) for sub, d in subs] == first
    monomial_algebra._record.cache_clear()
    monomial_algebra._saturated_gens.cache_clear()
    assert [generic_hyperplane_hf(sub, d) for sub, d in subs] == first


def test_hyperplane_kernel_enumerates_no_monomials():
    # the kernel walks the exponent tuples of its degree; the library has no
    # enumerator that builds Monomials
    monomial_algebra._record.cache_clear()
    gap = module(2, (0,), [ideal(2, "x0^3", "x1^3", "x2^3", "x0*x1*x2")])
    assert generic_hyperplane_hf(gap, 3) == 1


def test_numerator_reads_store_no_values(twisted_plane_pair):
    # the series, the polynomial and the stabilization degree read only the
    # numerator: the record's slots hold no rows, and no kernel is read
    monomial_algebra._record.cache_clear()
    sub = module(2, (0,), [ideal(2, "x2", "x1^2", "x0*x1")])
    for s in (sub, twisted_plane_pair):
        for read in (hilbert_series, hilbert_polynomial, stabilization_degree):
            read(s)
        assert monomial_algebra._record(s) is s
        tables = [slot for slot in s.__slots__ if isinstance(getattr(s, slot, None), dict)]
        assert tables == ["_numerator", "_rows"]
        assert s._rows == {}
        assert s._kernels is None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.randoms(use_true_random=False))
# seed 8 is free of rank m = 2, so rho at the rank is read beside the
# hyperplane; seed 3 has an unsaturated component and rank 1 of 3
@example(8, random.Random(0))
@example(3, random.Random(0))
def test_record_values_do_not_collide(seed, rng):
    # H, rho at the rank and the hyperplane value, for d in [-3, 8], read
    # into one submodule's rows in shuffled order, against each read alone
    # from a fresh record: the row at d holds the three, so a read that
    # landed in another slot or another degree's row would answer one with
    # another
    sub = random_submodule(seed)
    slots = ("H", "rho", "hyperplane")
    reads = [(d, slot) for d in range(-3, 9) for slot in range(3)]
    rng.shuffle(reads)

    def fresh(sub):
        # an equal new submodule has no record yet, so reading one builds it
        return monomial_algebra._record(MonomialSubmodule(sub.ambient, sub.components))

    def read(built, d, slot):
        if slots[slot] == "hyperplane":
            return monomial_algebra._hyperplane(built, d)
        if slots[slot] == "rho":
            return monomial_algebra._rho(built, d)
        return monomial_algebra._row(built, d)[0]

    built = fresh(sub)
    values = [read(built, d, slot) for d, slot in reads]
    assert values == [read(fresh(sub), d, slot) for d, slot in reads]
    assert [built._rows[d][slot] for d, slot in reads] == values
    assert sorted(built._rows) == list(range(-4, 9))  # and H(-4), read by the hyperplane at -3
    assert built._rows[-4][0] == hf_direct(sub, -4) and built._rows[-4][2] is None


class _Referable(MonomialSubmodule):
    # a submodule that a weakref can point at; its record slots are the same
    __slots__ = ("__weakref__",)


def test_a_record_dies_with_its_submodule():
    # the record is slots of the submodule and refers back to nothing, so
    # with the collector off reference counting alone frees it on del
    base = random_submodule(3)  # an unsaturated component: kernels are read
    sub = _Referable(base.ambient, base.components)
    hf_direct(sub, 2)
    generic_hyperplane_hf(sub, 4)
    adjusted_hf_decomposition(sub, 3)
    assert monomial_algebra._record(sub)._kernels
    ref = weakref.ref(sub)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del sub
        assert ref() is None
        assert not [o for o in gc.get_objects() if isinstance(o, MonomialSubmodule)
                    and hasattr(o, "_rows") and o.components is base.components]
    finally:
        if enabled:
            gc.enable()


def test_a_cleared_record_is_rebuilt_on_its_next_read():
    sub = random_submodule(3)
    monomial_algebra._record.cache_clear()
    assert monomial_algebra._record(sub) is sub
    first = sub._rows
    hf_direct(sub, 2)
    assert monomial_algebra._record(sub) is sub and sub._rows is first and first
    assert hf_direct.cache_info()[:2] == (2, 1)
    monomial_algebra._record.cache_clear()
    assert hf_direct.cache_info()[:2] == (0, 0)
    monomial_algebra._record(sub)
    second = sub._rows
    assert second is not first and not second
    monomial_algebra._record(sub)
    assert sub._rows is second
    assert hf_direct.cache_info()[:2] == (1, 1)


def test_copies_carry_no_record():
    sub = random_submodule(3)
    value = hf_direct(sub, 2)
    for clone in (copy.copy(sub), copy.deepcopy(sub), pickle.loads(pickle.dumps(sub))):
        for slot in ("_numerator", "_rows", "_kernels", "_generation"):
            assert not hasattr(clone, slot)
        assert hf_direct(clone, 2) == value
        assert clone._rows is not sub._rows and clone._numerator is not sub._numerator


def test_rho_window_check_refuses_a_wrong_numerator():
    # a record whose numerator is not that of its submodule: H = 0 leaves
    # rho(0) = 0 - 1 below 0 at rank 1
    two = module(1, (0, 0), [ideal(1, "x0"), "zero"])
    monomial_algebra._record(two)
    object.__setattr__(two, "_numerator", {})
    with pytest.raises(InvariantViolated, match=r"rho = -1 escapes \[0, 1\] at degree 0"):
        monomial_algebra._rho(two, 0)


_SECTION_CASES = st.integers(1, 3).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.integers(0, 3), min_size=n + 1, max_size=n + 1), max_size=6),
        st.integers(-1, 8),
    )
)


@settings(max_examples=200, deadline=None)
@given(_SECTION_CASES)
# the three rank-deficient Artinian cases of the grid oracle test below, and a
# non-Artinian ideal whose kernel of h on I^sat/I is nonzero at degree 1
@example((2, [[3, 0, 0], [0, 3, 0], [0, 0, 3], [1, 1, 1]], 3))
@example((2, [[0, 0, 3], [0, 4, 0], [1, 2, 1], [3, 1, 0]], 4))
@example((2, [[0, 0, 4], [0, 3, 1], [1, 1, 2], [3, 0, 1]], 4))
@example((2, [[0, 0, 1], [0, 2, 0], [1, 1, 0]], 2))
def test_section_dim_matches_the_full_quotient_rank(case):
    n, exponent_lists, e = case
    ideal_obj = MonomialIdeal(n, tuple(Monomial(tuple(x)) for x in exponent_lists))
    expected = full_quotient_section_dim(ideal_obj, e)
    sub = monomial_algebra._record(module(n, (0,), [ideal_obj]))
    assert monomial_algebra._section_dim(sub, e) == expected


@settings(max_examples=100, deadline=None)
@given(_SECTION_CASES)
def test_saturated_ideal_never_reaches_rank(case):
    # h is a nonzerodivisor on S/I when I is saturated, so the value is the
    # first difference of the Hilbert function alone
    n, exponent_lists, e = case
    saturated = MonomialIdeal(n, tuple(Monomial(tuple(x)) for x in exponent_lists)).saturation()
    expected = full_quotient_section_dim(saturated, e)

    def refuse(vectors):
        raise AssertionError("linalg.rank reached for a saturated ideal")

    sub = monomial_algebra._record(module(n, (0,), [saturated]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "rank", refuse)
        assert monomial_algebra._section_dim(sub, e) == expected


def times_maximal_power(ideal_obj, k):
    """I m^k.  For I nonzero and k >= 1 it is never saturated: I m^k : m^k
    contains I, but a minimal generator of I is not in I m^k, as that would
    make a generator of I a proper divisor of it."""
    if not ideal_obj.exponents or not k:
        return ideal_obj
    n = ideal_obj.n
    products = (
        Monomial(tuple(a + b for a, b in zip(g, u.exponents)))
        for g in ideal_obj.exponents for u in monomials_of_degree(n, k)
    )
    return MonomialIdeal(n, tuple(products))


# (drawn generators, power of m): the first drawn component is a nonzero
# ideal times m or m^2, so every module has a non-saturated component
def _component(n, forced):
    return st.tuples(
        st.lists(st.lists(st.integers(0, 2), min_size=n + 1, max_size=n + 1),
                 min_size=1 if forced else 0, max_size=5),
        st.integers(1, 2) if forced else st.integers(0, 2),
    )


_UNSATURATED_MODULES = st.integers(1, 3).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(-1, 1), min_size=1, max_size=3).flatmap(
            lambda degrees: st.tuples(
                st.just(degrees),
                st.tuples(_component(n, True), *[_component(n, False) for _ in degrees[1:]]),
            )
        ),
    )
)


def _unsaturated_module(case):
    n, (degrees, specs) = case
    components = [
        times_maximal_power(MonomialIdeal(n, tuple(Monomial(tuple(g)) for g in gens)), k)
        for gens, k in specs
    ]
    order = sorted(range(len(degrees)), key=degrees.__getitem__)
    return module(n, [degrees[i] for i in order], [components[i] for i in order])


def saturation_degree(sub):
    """The largest d with (N^sat/N)_d != 0, by counting; None when N is
    saturated.  (I^sat/I)_e vanishes above the degree of lcm(I)."""
    nonzero = []
    for f, ideal_obj in zip(sub.degrees, sub.components):
        sat = MonomialIdeal(sub.n, tuple(map(Monomial, saturation_exponents(ideal_obj))))
        lcm_degree = sum(max(column, default=0) for column in zip(*ideal_obj.exponents))
        nonzero += [
            f + e for e in range(lcm_degree + 1)
            if hf_quotient(ideal_obj, e) != hf_quotient(sat, e)
        ]
    return max(nonzero, default=None)


@settings(max_examples=60, deadline=None)
@given(_UNSATURATED_MODULES)
def test_hyperplane_matches_the_per_component_oracle(case):
    # the first difference of H(M) plus the kernels ranked only where the
    # defect table is positive, against the per-component route that ranks
    # h on the standard monomials in I^sat at every degree
    sub = _unsaturated_module(case)
    top = saturation_degree(sub)
    assert top is not None
    for d in range(sub.degrees[0], top + 3):
        assert generic_hyperplane_hf(sub, d) == hyperplane_hf(sub, d), d


@settings(max_examples=100, deadline=None)
@given(_GEN_LISTS, st.integers(0, 2))
def test_defect_table_counts_the_saturation_quotient(case, k):
    n, exponent_lists = case
    ideal_obj = times_maximal_power(
        MonomialIdeal(n, tuple(Monomial(tuple(x)) for x in exponent_lists)), k
    )
    sat = MonomialIdeal(n, tuple(map(Monomial, saturation_exponents(ideal_obj))))
    assert monomial_algebra._saturated_gens(ideal_obj.exponents) == sat.exponents
    defect = monomial_algebra._defect_numerator(ideal_obj.exponents, sat.exponents)
    assert [e for e, _ in defect] == sorted({e for e, _ in defect})
    assert all(c for _, c in defect)
    lcm_degree = sum(max(column, default=0) for column in zip(*ideal_obj.exponents))
    for e in range(-1, lcm_degree + 2):
        expected = hf_quotient(ideal_obj, e) - hf_quotient(sat, e)
        assert monomial_algebra._numerator_hf(defect, n, e) == expected, e
    assert monomial_algebra._defect_numerator(sat.exponents, sat.exponents) == ()
    assert (defect == ()) == (ideal_obj == sat)


def section_matrix(ideal_obj, e, c):
    # multiplication by sum c[v] x_v from (S/I)_(e-1) to (S/I)_e, one column
    # per standard monomial of degree e - 1, by brute-force enumeration
    n = ideal_obj.n
    target = [m for m in itertools.product(range(e + 1), repeat=n + 1)
              if sum(m) == e and not ideal_obj.contains(Monomial(m))]
    source = [m for m in itertools.product(range(e), repeat=n + 1)
              if sum(m) == e - 1 and not ideal_obj.contains(Monomial(m))]
    row_of = {m: i for i, m in enumerate(target)}
    columns = []
    for u in source:
        column = {}
        for v in range(n + 1):
            i = row_of.get(u[:v] + (u[v] + 1,) + u[v + 1 :])
            if i is not None and c[v]:
                column[i] = c[v]
        columns.append(column)
    return columns, len(target)


def test_weak_lefschetz_gap_is_exact():
    # (x0^3, x1^3, x2^3, x0*x1*x2) fails the Weak Lefschetz property in
    # degree 2 -> 3 (Migliore, Miro-Roig and Nagel, Trans. AMS 2011): the 6 x 6
    # multiplication matrix has a perfect matching of nonzero entries but
    # rational rank 5, so the restriction is 1, not 0
    gap = ideal(2, "x0^3", "x1^3", "x2^3", "x0*x1*x2")
    columns, rows = section_matrix(gap, 3, (1, 1, 1))
    assert (rows, len(columns)) == (6, 6)
    assert linalg.rank(columns) == 5
    sub = module(2, (0,), [gap])
    assert generic_hyperplane_hf(sub, 3) == 1
    report = check_green_adjusted(sub, 3)
    assert report.bound_lhs == 1
    assert report.verdict != "violated"
    assert "hyperplane" not in report.context


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 2).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.lists(st.integers(0, 3), min_size=n + 1, max_size=n + 1),
                     min_size=1, max_size=4),
            st.integers(1, 3),
        )
    )
)
# Random draws are almost never rank-deficient, so these pin down cases whose
# multiplication matrix has a full matching of nonzero entries but a smaller
# rational rank (6 x 6 of rank 5, 9 x 9 of rank 8, 11 x 10 of rank 9), found
# by a search over ideals of up to four generators in three variables; a
# structural count instead of the rank fails on each of them
@example((2, [[3, 0, 0], [0, 3, 0], [0, 0, 3], [1, 1, 1]], 3))
@example((2, [[0, 0, 3], [0, 4, 0], [1, 2, 1], [3, 1, 0]], 4))
@example((2, [[0, 0, 4], [0, 3, 1], [1, 1, 2], [3, 0, 1]], 4))
def test_generic_hyperplane_matches_grid_oracle(case):
    # With R the generic rank, some R-minor of M(c) is a nonzero form of
    # degree R; setting c_0 = 1 keeps it nonzero, so it does not vanish on
    # all of {1} x S^n once |S| > R (Alon, Combinatorial Nullstellensatz,
    # 1999).  S = {0, ..., r + 1} with r = min(rows, columns) >= R is enough,
    # and the largest rational rank over that grid is R.
    n, exponent_lists, e = case
    ideal_obj = MonomialIdeal(n, tuple(Monomial(tuple(x)) for x in exponent_lists))
    columns, rows = section_matrix(ideal_obj, e, (1,) * (n + 1))
    r = min(rows, len(columns))
    grid = itertools.product(range(r + 2), repeat=n)
    generic = max(
        linalg.rank(section_matrix(ideal_obj, e, (1,) + point)[0]) for point in grid
    )
    assert generic_hyperplane_hf(module(n, (0,), [ideal_obj]), e) == rows - generic


def test_serialization_round_trips(two_free_lines, twisted_plane_pair, corpus):
    for sub in [two_free_lines, twisted_plane_pair] + corpus[:20]:
        data = module_to_dict(sub)
        assert module_from_dict(data) == sub
    i = ideal(2, "x0^2*x1")
    assert ideal_from_dict(ideal_to_dict(i), 2) == i
    assert ideal_from_dict({"unit": True}, 1).is_unit()
    assert ideal_from_dict({"gens": []}, 1).is_zero()


def test_module_from_dict_errors():
    with pytest.raises(ValueError, match="n"):
        module_from_dict({"degrees": [0]})
    with pytest.raises(ValueError, match="components"):
        module_from_dict({"n": 1, "degrees": [0]})
    with pytest.raises(ValueError):
        module_from_dict({"n": 1, "degrees": [0], "components": [{"gens": []}] * 2})


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        min_size=1,
        max_size=4,
    )
)
def test_series_matches_counting_random_ideals(exp_pairs):
    gens = tuple(Monomial((a, b)) for a, b in exp_pairs if a + b > 0)
    sub = module(1, (0,), [MonomialIdeal(1, gens)])
    series = hilbert_series(sub)
    for d in range(0, 9):
        assert series.hf(d) == hf_count(sub, d)
