"""Package-wide properties: every export resolves to its submodule's object
and appears once, and every cache has the one bound."""
import importlib
import pkgutil

import pytest

import gotzmann
from gotzmann.monomial_algebra import CACHE_ENTRIES


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
    for info in pkgutil.iter_modules(gotzmann.__path__):
        module = importlib.import_module(f"gotzmann.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters"):
                assert callable(getattr(value, "cache_clear", None)), name
                # none is keyed by a submodule, which would outlive its instance
                assert "MonomialSubmodule" not in str(value.__wrapped__.__annotations__), name
                caches[value.__qualname__] = value.cache_info().maxsize
    assert caches.keys() == {
        "_ideal_numerator", "_saturated_gens",
        "_face_set_homology", "_relabelled_homology", "_ideal_table",
        "macaulay_transform", "green_transform",
    }
    assert caches == dict.fromkeys(caches, CACHE_ENTRIES)
