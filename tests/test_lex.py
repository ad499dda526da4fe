"""Lex segments, lexification, and saturated lex ideals and modules."""
import random
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gotzmann.lex as lex_module
from gotzmann import monomial_algebra, resolution
from gotzmann.combinatorics import binomial
from gotzmann.errors import BudgetExceeded, NotAchievable, NotAdmissible
from gotzmann.lex import (
    is_lex_ideal,
    is_lex_piece,
    lex_segment,
    lexify,
    saturated_lex_ideal,
    saturated_lex_module,
)
from gotzmann.monomial_algebra import (
    GradedFreeModule,
    Monomial,
    MonomialIdeal,
    MonomialSubmodule,
    hf_direct,
    hilbert_polynomial,
    hilbert_series,
    stabilization_degree,
)
from gotzmann.numpoly import GotzmannRep, NumPoly
from gotzmann.theorems import random_submodule

from conftest import (
    STABLE_CLOSURES,
    THREE_QUADRICS,
    colon_var_power,
    hf_count,
    ideal,
    module,
    near_misses,
    random_stable_ideal,
    set_node_budget,
)
import enumeration_oracle as walk
import lexify_oracle
from ek_oracle import is_stable
from enumeration_oracle import module_monomials, monomials_of_degree


def test_lex_segment_examples():
    assert lex_segment(2, 2, 2) == [
        Monomial((2, 0, 0)),
        Monomial((1, 1, 0)),
    ]
    assert lex_segment(2, 3, 0) == []
    assert lex_segment(1, 3, 4) == [
        Monomial((3, 0)),
        Monomial((2, 1)),
        Monomial((1, 2)),
        Monomial((0, 3)),
    ]


def test_lex_segment_validation():
    with pytest.raises(ValueError):
        lex_segment(0, 2, 1)
    with pytest.raises(ValueError):
        lex_segment(2, 2, -1)
    with pytest.raises(ValueError):
        lex_segment(2, 2, 7)  # only 6 monomials of degree 2
    with pytest.raises(ValueError):
        lex_segment(1, -1, 1)  # no monomials of negative degree


def test_lex_segments_nest():
    # each segment is the head of the degree's lex-descending list
    for n in range(1, 4):
        for d in range(0, 6):
            degree = monomials_of_degree(n, d)
            for c in range(len(degree) + 1):
                assert lex_segment(n, d, c) == list(degree[:c]), (n, d, c)


def test_lex_segment_enumerates_no_degree():
    # the library has no degree enumerator: the head of a degree of
    # C(44, 4) = 135,751 monomials is one unranking and two successors
    assert lex_segment(4, 40, 3) == [
        Monomial((40, 0, 0, 0, 0)),
        Monomial((39, 1, 0, 0, 0)),
        Monomial((39, 0, 1, 0, 0)),
    ]


def test_lex_run_is_every_slice_of_the_degree():
    # lex successors from a given monomial: the same as slicing the degree's
    # exponent tuples sorted descending, which is lex with x0 > ... > xn,
    # and as the oracle's enumeration of the whole degree
    run = monomial_algebra._lex_run
    for n in range(0, 5):
        for d in range(0, 7):
            degree = sorted(
                (e for e in product(range(d + 1), repeat=n + 1) if sum(e) == d), reverse=True
            )
            assert [m.exponents for m in monomials_of_degree(n, d)] == degree
            for start, first in enumerate(degree):
                for stop in range(start, len(degree) + 1):
                    assert run(first, stop - start) == degree[start:stop]


def test_empty_lex_run_unranks_nothing():
    # the library only walks lex order forward and ranks it: neither module
    # defines an unranker, so neither lex_segment nor lexify can unrank
    assert not [
        name for mod in (monomial_algebra, lex_module) for name in vars(mod)
        if "unrank" in name or "at_rank" in name
    ]
    assert monomial_algebra._lex_run((3, 0, 0), 0) == []
    assert lex_segment(2, -1, 0) == []
    assert lex_segment(3, 5, 0) == []
    assert lex_segment(3, 5, 4) == list(monomials_of_degree(3, 5)[:4])


def test_module_monomials_position_dominant():
    ambient = GradedFreeModule(1, (-1, 0))
    basis = module_monomials(ambient, 1)
    # component 0 holds internal degree 2, component 1 internal degree 1,
    # and component 0 entries all come first
    assert [c for c, _ in basis] == [0, 0, 0, 1, 1]
    assert [str(m) for _, m in basis] == ["x0^2", "x0*x1", "x1^2", "x0", "x1"]
    assert len(module_monomials(ambient, -1)) == 1
    assert module_monomials(ambient, -2) == ()


def test_is_lex_piece(two_free_lines):
    # unit component first, free after: initial segments at every degree
    for d in range(4):
        assert is_lex_piece(two_free_lines, d)
    backwards = module(1, (0, 0), ["zero", "unit"])
    assert not is_lex_piece(backwards, 0)
    # in degree 1: a partial lex first component, then nothing, is initial;
    # anything after a partial component, or a gap after a full one, is not
    assert is_lex_piece(module(1, (0, 0), [ideal(1, "x0"), "zero"]), 1)
    assert not is_lex_piece(module(1, (0, 0), [ideal(1, "x0"), ideal(1, "x0")]), 1)
    assert not is_lex_piece(module(1, (0, 0), ["unit", ideal(1, "x1")]), 1)
    # a component below its degree is empty, and so both full and zero
    assert is_lex_piece(module(1, (0, 2), [ideal(1, "x0"), "unit"]), 1)


def test_is_lex_ideal():
    assert is_lex_ideal(MonomialIdeal.zero(2))
    assert is_lex_ideal(MonomialIdeal.unit(2))
    assert is_lex_ideal(ideal(1, "x0"))
    assert not is_lex_ideal(ideal(1, "x1"))
    assert is_lex_ideal(ideal(2, "x0^2", "x0*x1"))
    # degree-2 piece {x0^2, x1^2} skips x0*x1
    assert not is_lex_ideal(ideal(1, "x0^2", "x1^2"))
    # lex through degree 2, but the degree-3 generator x1^3 skips x0*x1^2
    assert not is_lex_ideal(ideal(1, "x0^2", "x1^3"))
    # a degree-99999999999 generator is one count, not a walk of that degree
    assert is_lex_ideal(ideal(1, "x0^99999999999"))
    assert not is_lex_ideal(ideal(1, "x1^99999999999"))


def _item_15_ideal(k):
    """The minimal generators of the first k exponent vectors of randint(0, 3)
    in 12 variables drawn from Random(1): 46 for k = 50 and 87 for k = 105,
    past the node budget for k = 105."""
    rng = random.Random(1)
    vectors = [tuple(rng.randint(0, 3) for _ in range(12)) for _ in range(k)]
    return MonomialIdeal._of_minimal(11, monomial_algebra._minimal(vectors))


def test_lex_tests_refuse_past_the_node_budget(monkeypatch):
    # not stable, and its series needs three pivot nodes: with a budget of
    # one the count that decides whether its piece is lex raises.  A lex
    # ideal is stable, so is_lex_ideal answers False off the stability test
    # alone, with no series, where it raised before
    quadrics = THREE_QUADRICS.components[0]
    assert not is_lex_ideal(quadrics)
    # lex, so stable: its series is the closed-form base case, which visits
    # no pivot node, so both tests answer under a budget of one
    lex = ideal(2, "x0^2", "x0*x1", "x0*x2", "x1^2")
    wide = [_item_15_ideal(50), _item_15_ideal(105)]
    assert [len(i.exponents) for i in wide] == [46, 87]
    assert not any(map(is_lex_ideal, wide))
    set_node_budget(monkeypatch, 1)
    assert not is_lex_ideal(quadrics)
    assert not any(map(is_lex_ideal, wide))
    with pytest.raises(BudgetExceeded):
        is_lex_piece(THREE_QUADRICS, 2)
    assert is_lex_ideal(lex)
    assert is_lex_piece(module(2, (0,), [lex]), 2)


@settings(max_examples=60, deadline=None)
@given(STABLE_CLOSURES)
def test_near_misses_are_not_lex_under_a_node_budget_of_one(stable):
    # one exchange short of stable, so not lex, and answered with no series
    with pytest.MonkeyPatch.context() as patch:
        set_node_budget(patch, 1)
        for miss in near_misses(stable):
            assert not is_lex_ideal(miss)


def test_lexify_module_example():
    ambient = GradedFreeModule(1, (0, 0, 0))
    out = lexify(ambient, [(0, 2), (1, 4), (2, 6)], NumPoly([2, 2]))
    assert out.components[0].is_unit()
    assert out.components[1].is_zero()
    assert out.components[2].is_zero()


def test_lexify_ideal_example():
    ambient = GradedFreeModule(2, (0,))
    out = lexify(ambient, [(0, 1), (1, 2)], NumPoly([1, 1]))
    assert out.components[0] == ideal(2, "x0")


def test_lexify_not_achievable():
    ambient = GradedFreeModule(1, (0,))
    with pytest.raises(NotAchievable):
        lexify(ambient, [(0, 1), (1, 3)], NumPoly([3]))
    # dropping to 1 in degree 2 then back up to 2 would need to discard
    # a monomial already generated
    with pytest.raises(NotAchievable):
        lexify(ambient, [(0, 1), (1, 2), (2, 1), (3, 2)], NumPoly([2]))
    # table with a gap
    with pytest.raises(NotAchievable):
        lexify(ambient, [(0, 1), (2, 3)], NumPoly([2, 2]))
    # table starting past the smallest ambient degree
    with pytest.raises(NotAchievable):
        lexify(ambient, [(1, 2)], NumPoly([2, 2]))
    # table giving one degree twice, with different or equal values
    for table in ([(0, 0), (0, 1), (1, 2)], [(0, 1), (1, 2), (1, 2)]):
        with pytest.raises(NotAchievable, match=f"degree {table[1][0]} more than once"):
            lexify(ambient, table, NumPoly([3]))
    # tail that is not integer valued where it is consulted
    with pytest.raises(NotAchievable, match="is not an integer-valued polynomial"):
        lexify(ambient, [(0, 1)], NumPoly(["1/2"]))
    # H(3) = 2 adds no generator, but the table's H(2) = 2 is off the tail
    # 5 - d, so that one degree does not settle the data: H(6) = -1
    with pytest.raises(NotAchievable, match="outside"):
        lexify(ambient, [(0, 1), (1, 2), (2, 2)], NumPoly([5, -1]))


def test_lexify_refuses_a_tail_off_the_integers():
    # d/2 + 1 is an integer at every even d, so a table may cover values
    # that fit, but the stop rule would read it at n + 1 consecutive degrees:
    # it is refused up front
    ambient = GradedFreeModule(1, (0,))
    half = NumPoly([1, "1/2"])
    assert not half.is_integer_valued()
    for table in ([], [(0, 1)], [(0, 1), (1, 2)]):
        with pytest.raises(NotAchievable, match="is not an integer-valued polynomial"):
            lexify(ambient, table, half)


def test_lexify_refuses_non_integer_table_entries():
    ambient = GradedFreeModule(1, (0,))
    tables = (
        [(0, 1), (1, 2.9)],
        [(0, 1), (1, True)],
        [(0, 1), (1.0, 2)],
        [(0, 1), (1, "2")],
    )
    for table in tables:
        with pytest.raises(ValueError, match="is not a pair of integers") as info:
            lexify(ambient, table, NumPoly([1, 1]))
        assert not isinstance(info.value, NotAchievable)


def lexify_data(sub):
    """(ambient, counted table through the stabilization degree, tail)."""
    ambient = sub.ambient
    d0 = max(stabilization_degree(sub), ambient.degrees[0])
    table = [(d, hf_count(sub, d)) for d in range(ambient.degrees[0], d0 + 1)]
    return ambient, table, hilbert_polynomial(sub)


def test_lexify_reproduces_hilbert_function(corpus):
    for sub in corpus[:25]:
        ambient, table, tail = lexify_data(sub)
        d0 = table[-1][0]
        out = lexify(ambient, table, tail)
        for d, value in table:
            assert hf_count(out, d) == value
            assert is_lex_piece(out, d)
        for d in range(d0 + 1, d0 + 6):
            expected = tail(d)
            assert expected.denominator == 1
            assert hf_count(out, d) == int(expected)
            assert is_lex_piece(out, d)


def test_lexify_unchanged_by_tail_values_in_table(corpus):
    # the generators of random_submodule(76)'s lex module run well past its
    # table, so tail values written into a longer table cover degrees where
    # lexify still places generators
    growing = random_submodule(76)
    data = lexify_data(growing)
    assert lexify(*data).max_gen_degree() > data[1][-1][0] + 20
    for sub in [growing] + corpus:
        ambient, table, tail = lexify_data(sub)
        longer = table + [(d, int(tail(d))) for d in range(table[-1][0] + 1, 91)]
        assert lexify(ambient, longer, tail) == lexify(ambient, table, tail)


def test_lexify_reads_no_series(corpus, monkeypatch):
    # lexify settles by Gotzmann persistence alone: with every series
    # numerator refused it returns the same modules
    data = [lexify_data(sub) for sub in [random_submodule(76)] + corpus]
    expected = [lexify(*args) for args in data]

    def refuse(*args):
        raise AssertionError("lexify computed a Hilbert series")

    monkeypatch.setattr(monomial_algebra, "_ideal_numerator", refuse)
    monomial_algebra._record.cache_clear()
    assert [lexify(*args) for args in data] == expected


def test_lexify_matches_series_replay(corpus):
    # the series of each output replays the data through the table and a
    # stretch past it, and its Hilbert polynomial is the tail
    for sub in [random_submodule(76)] + corpus:
        ambient, table, tail = lexify_data(sub)
        out = lexify(ambient, table, tail)
        series = hilbert_series(out)
        end = table[-1][0]
        for d, value in table:
            assert series.hf(d) == value
        for d in range(end + 1, max(end, series.max_exponent) + 3):
            assert series.hf(d) == tail(d)
        assert hilbert_polynomial(out) == tail


def test_lexify_components_are_minimal(corpus):
    # lexify builds its ideals without re-minimalising; the validating
    # constructor must give back the same generators in the same order
    for sub in [random_submodule(76)] + corpus:
        for component in lexify(*lexify_data(sub)).components:
            assert MonomialIdeal(component.n, component.gens) == component


def test_lexify_refuses_tail_above_degree_n():
    ambient = GradedFreeModule(1, (0,))
    with pytest.raises(NotAchievable, match="tail of degree 2"):
        lexify(ambient, [(0, 1)], NumPoly([1, 1, 1]))


@pytest.mark.parametrize("n", [80, 100])
def test_lexify_in_many_variables(n):
    # S/(x0, ..., x_(n-1), x_n^2) has values 1, 1, 0, 0, ...; persistence
    # returns at degree n + 3, far past any small degree count
    out = lexify(GradedFreeModule(n, (0,)), [(0, 1), (1, 1), (2, 0)], NumPoly([0]))
    expected = [tuple(int(v == k) for v in range(n + 1)) for k in range(n)]
    expected.append((0,) * n + (2,))
    assert out.components[0].exponents == tuple(expected)


@pytest.mark.parametrize(
    "budget, refusal",
    [(4, None), (3, "walked 3 degrees"), (2, "returns at degree 2 at the earliest")],
)
def test_lexify_walks_at_most_the_term_budget(monkeypatch, budget, refusal):
    # one point on the line: the generator x0 comes at degree 1, one past
    # start = 0, so persistence returns at degree 3 after four degrees, one
    # later than the earliest return start + n + 1 = 2
    monkeypatch.setattr(lex_module, "TERM_BUDGET", budget)
    ambient = GradedFreeModule(1, (0,))
    if refusal is None:
        assert lexify(ambient, [(0, 1)], NumPoly([1])).components[0] == ideal(1, "x0")
    else:
        with pytest.raises(BudgetExceeded, match=refusal):
            lexify(ambient, [(0, 1)], NumPoly([1]))


def test_lexify_refuses_a_far_last_degree_up_front():
    ambient = GradedFreeModule(1, (0, 10**12))
    with pytest.raises(BudgetExceeded, match="at the earliest"):
        lexify(ambient, [], NumPoly([0]))


@st.composite
def _lexify_data(draw):
    """(ambient, table, tail) of a random submodule: the table through the
    stabilization degree, then cut short (the tail takes over degrees it
    does not fit) or with one value nudged (data of no module), so the
    NotAchievable checks are reached as well as the returns."""
    n = draw(st.integers(1, 3))
    # degrees over [-2, 4]: later components often start above f_1, and
    # their pieces are 0 for a stretch of degrees
    degrees = sorted(draw(st.lists(st.integers(-2, 4), min_size=1, max_size=3)))
    comps = [draw(st.sampled_from(["zero", "unit"]) | _ideals(n, 1, 4)) for _ in degrees]
    sub = module(n, degrees, comps)
    end = max(stabilization_degree(sub), degrees[0])
    table = [(d, hf_direct(sub, d)) for d in range(degrees[0], end + 1)]
    table = table[: draw(st.integers(0, len(table)))]
    if table and draw(st.booleans()):
        i = draw(st.integers(0, len(table) - 1))
        d, v = table[i]
        table[i] = (d, v + draw(st.sampled_from([-2, -1, 1, 2])))
    return sub.ambient, table, hilbert_polynomial(sub)


def _lexify_outcome(lexify_fn, data):
    try:
        return lexify_fn(*data)
    except (NotAchievable, BudgetExceeded) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(_lexify_data())
# components starting two to four degrees above f_1, after a unit or a
# partial lex piece: below their degrees their pieces are 0 and span nothing,
# though the segment may run past them
@example(lexify_data(module(1, (0, 2), ["unit", "zero"])))
@example(lexify_data(module(2, (-1, 3), [ideal(2, "x0^2", "x1^3"), "zero"])))
@example(lexify_data(module(2, (0, 1, 4), ["unit", ideal(2, "x0", "x1^2"), "zero"])))
def test_lexify_matches_the_per_component_walk(data):
    # the segment state against the per-component lists: same generators,
    # same error and message; lexify has no unranker to call (see
    # test_empty_lex_run_unranks_nothing), as each run starts at x_0^e or
    # after u x_n, u the last monomial of the partial piece
    assert _lexify_outcome(lexify, data) == _lexify_outcome(lexify_oracle.lexify, data)


def test_lex_module_is_read_with_no_pivot_or_lattice(monkeypatch):
    # the lexify output of random_submodule(656)'s data has components of
    # 828 and 5,350 generators; lex ideals are stable, so the lex test, the
    # series and the regularity read them in closed form, with the pivot
    # recursion and the rank words refused: only an ideal that the stability
    # test refuses is encoded, for the linear-quotients test and the lattice
    sub = random_submodule(656)
    f = sub.degrees
    table = [(d, hf_direct(sub, d)) for d in range(f[0], max(stabilization_degree(sub), f[-1]) + 1)]
    out = lexify(sub.ambient, table, hilbert_polynomial(sub))
    assert sorted(len(c.exponents) for c in out.components) == [0, 828, 5350]

    def refuse(*args):
        raise AssertionError("a stable component left the closed form")

    monkeypatch.setattr(monomial_algebra, "_power_pivot_numerator", refuse)
    monkeypatch.setattr(resolution, "_rank_words", refuse)
    monomial_algebra._ideal_numerator.cache_clear()
    resolution._ideal_table.cache_clear()
    assert all(is_lex_ideal(c) for c in out.components)
    assert [hf_direct(out, d) for d, _ in table] == [v for _, v in table]
    assert hilbert_polynomial(out) == hilbert_polynomial(sub)
    assert hilbert_series(out).max_exponent == stabilization_degree(out) + sub.n
    # a stable ideal has regularity its top generator degree, one more than S/I
    assert resolution.regularity(out) == max(
        fi + (c.max_gen_degree() - 1 if c.exponents else 0) for fi, c in zip(f, out.components)
    )


def test_lexify_calls_no_gotzmann_rep(monkeypatch):
    calls = []
    monkeypatch.setattr(lex_module, "gotzmann_rep", calls.append)
    ambient = GradedFreeModule(2, (0,))
    assert lexify(ambient, [(0, 1), (1, 2)], NumPoly([1, 1])).components[0] == ideal(2, "x0")
    out = lexify(GradedFreeModule(1, (0, 0, 0)), [(0, 2), (1, 4), (2, 6)], NumPoly([2, 2]))
    assert out.components[0].is_unit()
    assert calls == []


def test_saturated_lex_ideal_examples():
    assert saturated_lex_ideal(GotzmannRep((1, 0)), 2) == ideal(2, "x0^2", "x0*x1")
    assert saturated_lex_ideal(GotzmannRep((0,)), 2) == ideal(2, "x0", "x1")
    assert saturated_lex_ideal(GotzmannRep(()), 1).is_unit()


def test_saturated_lex_ideal_validation():
    with pytest.raises(ValueError):
        saturated_lex_ideal(GotzmannRep((1,)), 0)
    # P(s) exceeds the degree-s dimension in 2 variables
    with pytest.raises(NotAchievable):
        saturated_lex_ideal(GotzmannRep((2, 2)), 1)


def saturated_lex_oracle(g, n):
    """Enumeration route: saturate the degree-s lex segment of codimension
    P(s) and check the result is lex; None when P(s) exceeds dim S_s."""
    s = g.number
    codim = binomial(s + n, n) - int(g.polynomial()(s))
    if codim < 0:
        return None
    segment_ideal = MonomialIdeal(n, tuple(lex_segment(n, s, codim)))
    sat = segment_ideal.saturation()
    # general saturation agrees with the lex shortcut: colon by the last
    # variable alone
    assert sat.exponents == colon_var_power(segment_ideal.exponents, n)
    assert is_lex_ideal(sat)
    return sat


def random_admissible_rep(rng):
    # a_1 <= n - 1 keeps P(s) strictly below the full degree-s dimension, so
    # the saturated lex ideal is nonzero
    n = rng.randint(1, 3)
    vals = sorted((rng.randint(0, n - 1) for _ in range(rng.randint(1, 20))), reverse=True)
    return GotzmannRep(tuple(vals)), n


def test_saturated_lex_ideal_seeded_invariants():
    # every non-increasing a with s <= 6 and a_1 <= n + 1 for n <= 4, and a
    # seeded sample up to s = 20 for n <= 3
    exhaustive = [
        (GotzmannRep(a), n)
        for n in range(1, 5)
        for s in range(7)
        for a in combinations_with_replacement(range(n + 1, -1, -1), s)
    ]
    rng = random.Random(20240819)
    seeded = [random_admissible_rep(rng) for _ in range(60)]
    assert {n for g, n in seeded if g.number >= 18} == {1, 2, 3}
    shape_cache = {}
    for g, n in exhaustive + seeded:
        expected = saturated_lex_oracle(g, n)
        if expected is None:
            with pytest.raises(NotAchievable):
                saturated_lex_ideal(g, n)
            continue
        out = saturated_lex_ideal(g, n)
        assert out == expected, (g, n)
        if out.is_zero():
            assert g.a == (n,)
            continue
        assert out.max_gen_degree() == g.number
        assert len(out.gens) <= n
        assert is_stable(out)
        shape = shape_cache.setdefault(n, GradedFreeModule(n, (0,)))
        quotient = MonomialSubmodule(shape, (out,))
        assert hilbert_polynomial(quotient) == g.polynomial()
    for n in range(1, 5):
        # P = C(d + n, n) fills every degree: the zero ideal
        assert saturated_lex_ideal(GotzmannRep((n,)), n).is_zero()
        # a_1 > n overshoots the ring in degree s
        with pytest.raises(NotAchievable):
            saturated_lex_ideal(GotzmannRep((n + 1,)), n)


def test_saturated_lex_module_rank_three_module():
    ambient = GradedFreeModule(1, (0, 0, 0))
    out = saturated_lex_module(NumPoly([2, 2]), ambient, 2)
    assert out.components[0].is_unit()
    assert out.components[1].is_zero()
    assert out.components[2].is_zero()
    assert hilbert_polynomial(out) == NumPoly([2, 2])


def test_saturated_lex_module_mixed_degrees():
    ambient = GradedFreeModule(2, (-1, -1, 0))
    out = saturated_lex_module(NumPoly([6, 5, 1]), ambient, 2)
    assert out.components[0] == ideal(2, "x0")
    assert out.components[1].is_zero()
    assert out.components[2].is_zero()
    assert hilbert_polynomial(out) == NumPoly([6, 5, 1])


def test_saturated_lex_module_middle_ideal():
    ambient = GradedFreeModule(2, (0, 0))
    poly = NumPoly([1, 1]) + NumPoly([1, "3/2", "1/2"])  # (d+1) + C(d+2,2)
    out = saturated_lex_module(poly, ambient, 1)
    assert out.components[0] == ideal(2, "x0")
    assert out.components[1].is_zero()
    assert hilbert_polynomial(out) == poly


def test_saturated_lex_module_degenerate():
    # zero polynomial against a rank-1 ambient: unit everywhere
    out = saturated_lex_module(NumPoly([]), GradedFreeModule(1, (0,)), 0)
    assert out.components[0].is_unit()
    # all components free, zero remainder
    ambient = GradedFreeModule(1, (0, 0))
    out = saturated_lex_module(NumPoly([2, 2]), ambient, 2)
    assert all(c.is_zero() for c in out.components)
    # all components free but nonzero remainder: impossible
    with pytest.raises(NotAdmissible):
        saturated_lex_module(NumPoly([3, 2]), ambient, 2)


# The counting lex tests against the walk of ``enumeration_oracle``, which
# lists every monomial of every degree through the top generator.  A walk
# that finds a gap stops there, but one over a lex ideal visits all
# C(top + n + 1, n + 1) monomials, so a lex ideal is walked only up to
# WALK_LIMIT of them.
WALK_LIMIT = 30_000


def walkable(ideal_obj):
    return not ideal_obj.exponents or binomial(
        ideal_obj.max_gen_degree() + ideal_obj.n + 1, ideal_obj.n + 1
    ) <= WALK_LIMIT


def without(ideal_obj, i):
    """The ideal less its i-th minimal generator: a near miss of a lex ideal."""
    exps = ideal_obj.exponents
    return MonomialIdeal._of_minimal(ideal_obj.n, exps[:i] + exps[i + 1 :])


def assert_agrees_with_walk(ideal_obj):
    assert is_lex_ideal(ideal_obj) is walk.is_lex_ideal(ideal_obj), ideal_obj


def lexify_outputs(seeds):
    return [lexify(*lexify_data(random_submodule(seed))) for seed in seeds]


def test_lexify_corpus_is_lex_by_count_and_walk():
    # every component of every output is lex, with no generator cap: 558
    # components of up to 4,425 generators and top degree 786.  Of the 356
    # with 2 to 300 generators, each less its last generator, the lex-last
    # monomial of its degree, is still lex, and 338 of them are walked; less
    # its first it is not, and that walk stops at the first gap.
    components = [c for out in lexify_outputs(range(400)) for c in out.components if c.exponents]
    assert max(len(c.exponents) for c in components) == 4425
    assert all(is_lex_ideal(c) for c in components)
    cut = [c for c in components if 1 < len(c.exponents) <= 300]
    for c in cut:
        last, first = without(c, len(c.exponents) - 1), without(c, 0)
        assert is_lex_ideal(last) and not is_lex_ideal(first), c
        assert not walk.is_lex_ideal(first)
    walked = [c for c in (without(c, len(c.exponents) - 1) for c in cut) if walkable(c)]
    assert (len(cut), len(walked)) == (356, 338)
    assert all(walk.is_lex_ideal(c) for c in walked)


def _ideals(n, min_size, max_size):
    exps = st.lists(st.integers(0, 3), min_size=n + 1, max_size=n + 1).map(tuple)
    return st.lists(exps, min_size=min_size, max_size=max_size).map(
        lambda gens: MonomialIdeal(n, tuple(map(Monomial, gens)))
    )


@st.composite
def _submodules(draw):
    n = draw(st.integers(1, 3))
    degrees = sorted(draw(st.lists(st.integers(-1, 2), min_size=1, max_size=3)))
    comps = [draw(st.sampled_from(["zero", "unit"]) | _ideals(n, 1, 5)) for _ in degrees]
    return module(n, degrees, comps)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3).flatmap(lambda n: _ideals(n, 0, 6)), st.integers(0, 5))
def test_is_lex_ideal_matches_the_walk_on_random_ideals(ideal_obj, drop):
    assert_agrees_with_walk(ideal_obj)
    if ideal_obj.exponents:
        assert_agrees_with_walk(without(ideal_obj, drop % len(ideal_obj.exponents)))


@settings(max_examples=200, deadline=None)
@given(_submodules(), st.integers(-2, 8))
def test_is_lex_piece_matches_the_walk_on_random_submodules(sub, d):
    assert is_lex_piece(sub, d) is walk.is_lex_piece(sub, d)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1499), st.integers(0, 10**6))
def test_lex_tests_match_the_walk_on_lexify_outputs(seed, drop):
    # each walkable component, less its last generator and less a drawn
    # one, and the output's pieces through degree 11
    (out,) = lexify_outputs([seed])
    for c in out.components:
        if c.exponents and walkable(c):
            assert_agrees_with_walk(c)
            assert_agrees_with_walk(without(c, len(c.exponents) - 1))
            assert_agrees_with_walk(without(c, drop % len(c.exponents)))
    if all(walkable(c) for c in out.components):
        for d in range(-2, 12):
            assert is_lex_piece(out, d) is walk.is_lex_piece(out, d)


@st.composite
def _saturated_lex_ideals(draw):
    n = draw(st.integers(1, 3))
    a = sorted(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=10)), reverse=True)
    return saturated_lex_ideal(GotzmannRep(tuple(a)), n)


@settings(max_examples=100, deadline=None)
@given(_saturated_lex_ideals(), st.integers(0, 10**4), st.integers(0, 10**6))
def test_lex_tests_match_the_walk_on_saturated_lex_and_stable_ideals(sat, seed, drop):
    # saturated lex ideals are lex, stable ideals are near lex; each also
    # less its last generator and less a drawn one
    for ideal_obj in (sat, random_stable_ideal(seed)):
        assert_agrees_with_walk(ideal_obj)
        if ideal_obj.exponents:
            assert_agrees_with_walk(without(ideal_obj, len(ideal_obj.exponents) - 1))
            assert_agrees_with_walk(without(ideal_obj, drop % len(ideal_obj.exponents)))
