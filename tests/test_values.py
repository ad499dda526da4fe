"""The value classes compare, hash, print, copy and refuse mutation as
frozen dataclasses did, and their constructors keep their checks."""
import copy
import pickle

import pytest

from gotzmann.chern import ChernData
from gotzmann.combinatorics import MacaulayRep
from gotzmann.monomial_algebra import (
    GradedFreeModule,
    HilbertSeries,
    Monomial,
    MonomialIdeal,
    MonomialSubmodule,
)
from gotzmann.numpoly import AdjustedGotzmannRep, EmbeddingDims, GotzmannRep
from gotzmann.resolution import BettiTable
from gotzmann.theorems import CheckReport


def x(*exps):
    return Monomial(exps)


def plane_ideal():
    return MonomialIdeal(1, (x(1, 1), x(2, 0)))


# (build, field tuple): each build() makes a fresh instance equal to the last
VALUES = [
    (lambda: MacaulayRep(2, ((3, 2), (1, 1))), (2, ((3, 2), (1, 1)))),
    (lambda: GotzmannRep((1, 1, 0)), (((1, 2), (0, 1)),)),
    (lambda: AdjustedGotzmannRep((0,), 2, GotzmannRep((1,))), ((0,), 2, GotzmannRep((1,)))),
    (lambda: EmbeddingDims(3, 10, 4), (3, 10, 4, 24)),
    (lambda: x(1, 0), ((1, 0),)),
    (plane_ideal, (1, ((2, 0), (1, 1)))),
    (lambda: GradedFreeModule(1, (0, 1)), (1, (0, 1))),
    (
        lambda: MonomialSubmodule(
            GradedFreeModule(1, (0, 1)), (plane_ideal(), MonomialIdeal.zero(1))
        ),
        (GradedFreeModule(1, (0, 1)), (plane_ideal(), MonomialIdeal(1, ()))),
    ),
    (lambda: HilbertSeries(1, 0, (1, -1)), (1, 0, (1, -1))),
    (lambda: BettiTable(((0, 0, 1), (1, 2, 2))), (((0, 0, 1), (1, 2, 2)),)),
    (
        lambda: CheckReport("c", {"d": 1}, True, 1, None, "holds", {"k": 0}),
        ("c", {"d": 1}, True, 1, None, "holds", {"k": 0}),
    ),
    (lambda: ChernData(2, 1, 0, 0), (2, 1, 0, 0)),
]
IDS = [build().__class__.__name__ for build, _ in VALUES]


@pytest.mark.parametrize("build, fields", VALUES, ids=IDS)
def test_equality_and_hash_follow_the_fields(build, fields):
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert tuple(getattr(a, name) for name in a._fields) == fields
    # a plain tuple of the same fields, or a value of another class, is unequal
    assert a != fields and fields != a
    for other_build, _ in VALUES:
        other = other_build()
        if other.__class__ is not a.__class__:
            assert a != other
    # keyword construction gives the same value (grass_dim is computed, an
    # ideal is built from its gens, not from its exponents field, and a
    # representation from its exponent list, not from its runs)
    if isinstance(a, GotzmannRep):
        assert GotzmannRep(a=a.a) == a
    elif not isinstance(a, MonomialIdeal):
        assert type(a)(**{n: getattr(a, n) for n in a._fields if n != "grass_dim"}) == a
    try:
        expected = hash(fields)
    except TypeError:  # CheckReport holds dicts, so neither is hashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected
        assert hash(a) == expected  # again: the same on every call
        assert len({a, b}) == 1


def test_same_fields_in_another_class_are_unequal():
    assert GotzmannRep((1, 0)) != Monomial((1, 0))
    # the fields (1, ((2, 1),)) hash alike in both classes
    assert MacaulayRep(1, ((2, 1),)) != MonomialIdeal(1, (x(2, 1),))
    assert hash(MacaulayRep(1, ((2, 1),))) == hash(MonomialIdeal(1, (x(2, 1),)))


# (class, arguments with list sequences, the same arguments with tuples)
LIST_BUILT = [
    (GotzmannRep, ([2, 1],), ((2, 1),)),
    (MacaulayRep, (3, [(5, 3)]), (3, ((5, 3),))),
    (MacaulayRep, (2, [[3, 2], [1, 1]]), (2, ((3, 2), (1, 1)))),
    (GradedFreeModule, (2, [0, 1]), (2, (0, 1))),
    (Monomial, ([1, 2],), ((1, 2),)),
    (HilbertSeries, (1, 0, [1, -1]), (1, 0, (1, -1))),
    (BettiTable, ([(0, 0, 1)],), (((0, 0, 1),),)),
    (BettiTable, ([[0, 0, 1], [1, 2, 2]],), (((0, 0, 1), (1, 2, 2)),)),
    (AdjustedGotzmannRep, ([0], 1, GotzmannRep(())), ((0,), 1, GotzmannRep(()))),
    (
        MonomialSubmodule,
        (GradedFreeModule(1, (0,)), [MonomialIdeal.zero(1)]),
        (GradedFreeModule(1, (0,)), (MonomialIdeal.zero(1),)),
    ),
]


LIST_IDS = [f"{cls.__name__}-{i}" for i, (cls, *_) in enumerate(LIST_BUILT)]


@pytest.mark.parametrize("cls, listed, tupled", LIST_BUILT, ids=LIST_IDS)
def test_list_arguments_give_the_tuple_value(cls, listed, tupled):
    a, b = cls(*listed), cls(*tupled)
    assert a == b and hash(a) == hash(b)
    # a tuple argument is stored as it is, not copied (a representation
    # stores the runs of its exponent list, not the list)
    for name, arg in zip(b._fields, tupled):
        if type(arg) is tuple and cls is not GotzmannRep:
            assert getattr(b, name) is arg, name


@pytest.mark.parametrize("build, fields", VALUES, ids=IDS)
def test_instances_are_frozen(build, fields):
    a = build()
    for name in a._fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == build()


@pytest.mark.parametrize("build, fields", VALUES, ids=IDS)
def test_copy_and_pickle_keep_the_value(build, fields):
    a = build()
    for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert clone is not a and clone == a and repr(clone) == repr(a)


def test_minimal_build_hashes_like_a_checked_build():
    quick = MonomialIdeal._of_minimal(1, ((2, 0), (1, 1)))
    assert quick == plane_ideal() and hash(quick) == hash(plane_ideal())


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: MacaulayRep(0, ()), "representation index must be >= 1, got 0"),
        (lambda: MacaulayRep(2, ((3, 1),)), "indices must descend consecutively from 2"),
        (lambda: MacaulayRep(2, ((1, 2),)), r"term C\(1, 2\) violates k >= j >= 1"),
        (lambda: MacaulayRep(2, ((3, 2), (4, 1))), "upper indices must strictly decrease"),
        (lambda: GotzmannRep((0, 1)), "exponent list must be non-increasing"),
        (lambda: GotzmannRep((1, -1)), "exponents must be nonnegative, got -1"),
        (lambda: Monomial(()), "monomial needs at least one variable"),
        (lambda: Monomial((1, -2)), r"negative exponent in \(1, -2\)"),
        (lambda: MonomialIdeal(-1, ()), "n must be nonnegative, got -1"),
        (lambda: MonomialIdeal(2, (x(1, 0),)), "generator x0 does not live in 3 variables"),
        (lambda: GradedFreeModule(-1, (0,)), "n must be nonnegative, got -1"),
        (lambda: GradedFreeModule(1, ()), "free module needs at least one generator"),
        (lambda: GradedFreeModule(1, (1, 0)), r"degree list \(1, 0\) must be ascending"),
        (
            lambda: MonomialSubmodule(GradedFreeModule(1, (0, 0)), (plane_ideal(),)),
            "1 components for rank-2 ambient",
        ),
        (
            lambda: MonomialSubmodule(GradedFreeModule(2, (0,)), (plane_ideal(),)),
            "component ring dimension differs from ambient",
        ),
        # unit() builds from tuples without __init__, and keeps its n check
        (lambda: MonomialIdeal.unit(-1), "n must be nonnegative, got -1"),
    ],
)
def test_constructor_checks(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_reprs_keep_the_dataclass_text():
    one_component = MonomialSubmodule(GradedFreeModule(1, (0,)), (plane_ideal(),))
    assert repr(one_component) == (
        "MonomialSubmodule(ambient=GradedFreeModule(n=1, degrees=(0,)), "
        "components=(MonomialIdeal(n=1, exponents=((2, 0), (1, 1))),))"
    )
    assert repr(EmbeddingDims(3, 10, 4)) == (
        "EmbeddingDims(s=3, ambient_dim=10, sub_dim=4, grass_dim=24)"
    )


def test_check_reports_do_not_share_a_context():
    first = CheckReport("c", {}, True, 0, 0, "holds")
    second = CheckReport("c", {}, True, 0, 0, "holds")
    assert first.context == second.context == {}
    first.context["k"] = 1
    assert second.context == {}
