"""The package's public names: every export resolves and appears once."""
import gotzmann


def test_all_exports_resolve_once():
    assert len(gotzmann.__all__) == len(set(gotzmann.__all__))
    for name in gotzmann.__all__:
        assert hasattr(gotzmann, name), name


def test_star_import():
    namespace = {}
    exec("from gotzmann import *", namespace)
    assert set(gotzmann.__all__) <= set(namespace)
