"""Monomial submodules and ideals compare by the field rule of ``Value``:
equality must agree with the fields, keep the field-tuple hash, survive copy
and pickle, and never reach the ``Monomial``s of the generators."""
import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gotzmann import monomial_algebra, resolution
from gotzmann._value import Value
from gotzmann.errors import ZeroModule
from gotzmann.lex import lexify, saturated_lex_ideal
from gotzmann.monomial_algebra import (
    GradedFreeModule,
    Monomial,
    MonomialIdeal,
    MonomialSubmodule,
    adjusted_hf_decomposition,
    generic_hyperplane_hf,
    hf_direct,
    hilbert_polynomial,
    ideal_from_dict,
    ideal_to_dict,
    rank,
    saturate,
    stabilization_degree,
)
from gotzmann.numpoly import GotzmannRep
from gotzmann.resolution import koszul_betti, regularity
from gotzmann.theorems import random_submodule

from conftest import quadratic_minimal
from enumeration_oracle import monomials_of_degree


def fields_equal(a, b) -> bool:
    """Equality by the field rule alone: values of one class whose fields
    are equal, recursing through nested values and tuples."""
    if isinstance(a, Value) or isinstance(b, Value):
        return a.__class__ is b.__class__ and all(
            fields_equal(getattr(a, name), getattr(b, name)) for name in a._fields
        )
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(fields_equal, a, b))
    return a == b


def build_ideal(n, exps):
    """A fresh ideal: ``"zero"``, ``"unit"`` or a list of exponent tuples."""
    if exps == "zero":
        return MonomialIdeal.zero(n)
    if exps == "unit":
        return MonomialIdeal.unit(n)
    return MonomialIdeal(n, tuple(Monomial(tuple(e)) for e in exps))


def build(n, degrees, specs):
    return MonomialSubmodule(
        GradedFreeModule(n, tuple(degrees)), tuple(build_ideal(n, s) for s in specs)
    )


@st.composite
def module_specs(draw):
    n = draw(st.integers(0, 3))
    m = draw(st.integers(1, 3))
    degrees = sorted(draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m)))
    exps = st.lists(st.integers(0, 3), min_size=n + 1, max_size=n + 1)
    gens = st.lists(exps, min_size=1, max_size=4)
    # a repeat and a multiple of the first generator, which the build drops
    redundant = gens.map(lambda g: g + [g[0], [e + 1 for e in g[0]]])
    ideal = st.one_of(st.sampled_from(["zero", "unit"]), gens, redundant)
    return n, degrees, [draw(ideal) for _ in range(m)]


def near_misses(n, degrees, specs):
    """Fresh submodules one edit away from build(n, degrees, specs), and one
    rebuilt copy: one exponent or one degree changed, two components
    swapped, the generators moved to n + 1 variables, a component zero or
    unit."""
    out = [build(n, degrees, specs)]
    for c, spec in enumerate(specs):
        for other in ("zero", "unit"):
            out.append(build(n, degrees, specs[:c] + [other] + specs[c + 1 :]))
        if isinstance(spec, list):
            for j, e in enumerate(spec):
                for v in range(n + 1):
                    for step in (-1, 1):
                        if e[v] + step >= 0:
                            changed = e[:v] + [e[v] + step] + e[v + 1 :]
                            edited = spec[:j] + [changed] + spec[j + 1 :]
                            out.append(build(n, degrees, specs[:c] + [edited] + specs[c + 1 :]))
    for i in range(len(degrees)):
        for step in (-1, 1):
            moved = degrees[:i] + [degrees[i] + step] + degrees[i + 1 :]
            if moved == sorted(moved):
                out.append(build(n, moved, specs))
    for i in range(len(specs)):
        for j in range(i + 1, len(specs)):
            swapped = list(specs)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            out.append(build(n, degrees, swapped))
    padded = [s if isinstance(s, str) else [e + [0] for e in s] for s in specs]
    out.append(build(n + 1, degrees, padded))
    return out


def with_record(n, degrees, specs):
    """A fresh build(n, degrees, specs) with its Hilbert record built: rows
    read over a band of degrees and, for n >= 1, the hyperplane kernels."""
    sub = build(n, degrees, specs)
    for d in range(degrees[0] - 1, degrees[-1] + 3):
        adjusted_hf_decomposition(sub, d)
        if n:
            generic_hyperplane_hf(sub, d)
    assert sub._rows and (sub._kernels is not None) is (n >= 1)
    return sub


@settings(max_examples=150, deadline=None)
@given(module_specs())
def test_equality_is_field_equality(spec):
    sub = build(*spec)
    # a submodule whose record is built equals, hashes and reprs like a
    # fresh one: the record's slots are no fields
    recorded = with_record(*spec)
    assert repr(recorded) == repr(sub)
    for other in near_misses(*spec) + [recorded]:
        expected = fields_equal(sub, other)
        assert (sub == other) is expected and (other == sub) is expected
        assert (sub != other) is not expected
        if expected:
            assert hash(sub) == hash(other)
        for a in sub.components:
            for b in other.components:
                assert (a == b) is fields_equal(a, b) and (b == a) is fields_equal(a, b)
    assert near_misses(*spec)[0] == sub  # the rebuilt copy


@settings(max_examples=60, deadline=None)
@given(module_specs())
def test_hash_stays_the_field_tuple_hash(spec):
    # no override: a submodule hashes and compares like every other value
    assert not {"__eq__", "__hash__"} & set(vars(MonomialSubmodule))
    sub = build(*spec)
    assert hash(sub) == hash((sub.ambient, sub.components))
    for ideal in sub.components:
        assert hash(ideal) == hash((ideal.n, ideal.exponents))


def spec_exponents(n, spec):
    """The minimal exponent tuples an ideal spec asks for, by the oracle
    minimalizer."""
    if spec == "zero":
        return ()
    if spec == "unit":
        return ((0,) * (n + 1),)
    return quadratic_minimal(tuple(e) for e in spec)


@settings(max_examples=100, deadline=None)
@given(module_specs())
def test_ideals_store_their_minimal_exponents(spec):
    # one stored form, compared by the plain field rule
    assert MonomialIdeal._fields == ("n", "exponents")
    assert not {"__eq__", "__hash__", "_exponents"} & set(vars(MonomialIdeal))
    n, degrees, specs = spec
    sub = build(*spec)
    for ideal, ideal_spec in zip(sub.components, specs):
        assert ideal.exponents == spec_exponents(n, ideal_spec)
        gens = ideal.gens
        assert all(type(g) is Monomial for g in gens)
        assert tuple(g.exponents for g in gens) == ideal.exponents
        rebuilt = MonomialIdeal(n, gens)
        assert rebuilt == ideal and hash(rebuilt) == hash(ideal)
        assert ideal_from_dict(ideal_to_dict(ideal), n) == ideal
        # the predicates read the tuples; the oracles read the Monomials
        probes = [m for d in range(5) for m in monomials_of_degree(n, d)] + list(gens)
        for m in probes:
            assert ideal.contains(m) is any(g.divides(m) for g in gens)
        assert ideal.is_zero() is (not gens)
        assert ideal.is_unit() is any(g.degree == 0 for g in gens)
        if gens:
            assert ideal.max_gen_degree() == max(g.degree for g in gens)
        else:
            with pytest.raises(ValueError):
                ideal.max_gen_degree()
        for clone in (copy.copy(ideal), copy.deepcopy(ideal), pickle.loads(pickle.dumps(ideal))):
            assert clone == ideal and hash(clone) == hash(ideal) and repr(clone) == repr(ideal)
            assert clone.exponents == ideal.exponents


def test_saturation_and_betti_build_no_monomial(monkeypatch):
    # on prebuilt submodules these run on the stored exponent tuples alone
    subs = [random_submodule(k) for k in range(60)]
    for cache in (monomial_algebra._saturated_gens, resolution._ideal_table):
        cache.cache_clear()

    def refuse(self, exponents):
        raise AssertionError(f"Monomial{exponents} built")

    monkeypatch.setattr(Monomial, "__init__", refuse)
    for sub in subs:
        saturated = saturate(sub)
        assert all(a.saturation() == b for a, b in zip(sub.components, saturated.components))
        for as_quotient in (True, False):
            koszul_betti(sub, as_quotient=as_quotient)
            try:
                regularity(sub, as_quotient=as_quotient)
            except ZeroModule:
                pass


def test_ideal_builders_build_no_monomial(monkeypatch):
    # random_submodule, saturated_lex_ideal and lexify build exponent tuples
    # and hand them to _of_minimal; .gens is not read here, since it builds
    # its Monomials without __init__
    def refuse(self, exponents):
        raise AssertionError(f"Monomial{exponents} built")

    monkeypatch.setattr(Monomial, "__init__", refuse)
    for k in range(40):
        sub = random_submodule(k)
        poly = hilbert_polynomial(sub)
        end = max(stabilization_degree(sub), sub.degrees[-1])
        table = [(d, hf_direct(sub, d)) for d in range(sub.degrees[0], end + 1)]
        lexed = lexify(sub.ambient, table, poly)
        assert [(d, hf_direct(lexed, d)) for d, _ in table] == table
        assert hilbert_polynomial(lexed) == poly
    for a, n in [((2, 1, 1, 0, 0), 3), ((1, 1, 0), 2), ((0,) * 7, 1), ((3, 3, 2, 0), 4)]:
        g = GotzmannRep(a)
        sat = saturated_lex_ideal(g, n)
        quotient = MonomialSubmodule(GradedFreeModule(n, (0,)), (sat,))
        assert hilbert_polynomial(quotient) == g.polynomial()


def test_equal_distinct_values_never_compare_monomials(monkeypatch):
    def refuse(self, other):
        raise AssertionError(f"{type(self).__name__}.__eq__ called")

    pairs = [(random_submodule(k), random_submodule(k)) for k in range(40)]
    monkeypatch.setattr(Monomial, "__eq__", refuse)
    for a, b in pairs:
        assert a is not b and a == b and not a != b
        for x, y in zip(a.components, b.components):
            assert x == y
        # an equal but distinct key finds a dict entry through __eq__ too
        assert {a: 1}[b] == 1


@pytest.mark.parametrize("seed", range(12))
def test_copy_and_pickle_rebuild_the_derived_slots(seed):
    sub = random_submodule(seed)
    assert sub == MonomialSubmodule(sub.ambient, sub.components)
    for clone in (copy.copy(sub), copy.deepcopy(sub), pickle.loads(pickle.dumps(sub))):
        assert clone is not sub and clone == sub and sub == clone
        assert clone.n == sub.n and clone.degrees == sub.degrees
        assert rank(clone) == rank(sub) == sum(ideal.is_zero() for ideal in sub.components)
        assert clone.max_gen_degree() == sub.max_gen_degree()
        assert clone.is_zero() == sub.is_zero()
        assert hash(clone) == hash(sub)
    for ideal in sub.components:
        for clone in (copy.deepcopy(ideal), pickle.loads(pickle.dumps(ideal))):
            assert clone == ideal and clone.exponents == ideal.exponents


def test_max_gen_degree_is_computed_once(monkeypatch):
    sub = random_submodule(3)
    first = sub.max_gen_degree()
    assert first is not None
    monkeypatch.setattr(MonomialIdeal, "max_gen_degree", None)
    assert sub.max_gen_degree() == first
