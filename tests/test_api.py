"""Package-wide properties: every export resolves to its submodule's object
and appears once, every cache has the one bound, and no cache is keyed by
a value."""
import importlib
import pkgutil
import re

import pytest

import gotzmann
from gotzmann._value import Value
from gotzmann.monomial_algebra import CACHE_ENTRIES


def _package_members():
    """(name, object) of every module-level name of every gotzmann module."""
    for info in pkgutil.iter_modules(gotzmann.__path__):
        module = importlib.import_module(f"gotzmann.{info.name}")
        yield from vars(module).items()


def test_all_exports_resolve_once():
    assert len(gotzmann.__all__) == len(set(gotzmann.__all__))
    for name in gotzmann.__all__:
        assert hasattr(gotzmann, name), name


def test_star_import():
    namespace = {}
    exec("from gotzmann import *", namespace)
    assert set(gotzmann.__all__) <= set(namespace)


def test_exports_are_their_submodules_objects():
    assert set(gotzmann.__all__) <= set(dir(gotzmann))
    for name in gotzmann.__all__:
        value = getattr(gotzmann, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        gotzmann.nope


def test_every_cache_has_the_one_bound():
    # a cache is an lru_cache wrapper; hf_direct's cache_info reports the
    # submodule records, four slots of each submodule, which are no cache
    caches = {}
    for name, value in _package_members():
        if hasattr(value, "cache_parameters"):
            assert callable(getattr(value, "cache_clear", None)), name
            caches[value.__qualname__] = value.cache_info().maxsize
    assert caches.keys() == {
        "_ideal_numerator", "_saturated_gens",
        "_face_set_homology", "_relabelled_homology", "_ideal_table",
        "macaulay_transform", "green_transform",
    }
    assert caches == dict.fromkeys(caches, CACHE_ENTRIES)



def _value_classes():
    """The value classes of the package."""
    return {value for _, value in _package_members()
            if isinstance(value, type) and issubclass(value, Value)}


def test_no_cache_is_keyed_by_a_value():
    # every cache keys on ints, tuples and frozensets, such as an ideal's
    # generator exponents: a submodule key would outlive its instance, and a
    # value key would be hashed and compared field by field; none returns a
    # value either
    names = {cls.__name__ for cls in _value_classes()}
    assert {"Monomial", "MonomialIdeal", "GradedFreeModule", "MonomialSubmodule"} <= names
    for name, value in _package_members():
        if hasattr(value, "cache_parameters"):
            for parameter, annotation in value.__wrapped__.__annotations__.items():
                assert not names & set(re.findall(r"\w+", str(annotation))), (name, parameter)


def test_no_value_keeps_a_hash():
    # with no value keying a cache, each hashes its field tuple when asked
    for cls in _value_classes():
        assert not hasattr(cls, "_hash"), cls
