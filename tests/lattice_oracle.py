"""Lcm-lattice Betti tables on exponent tuples: an oracle for the packed kernel.

The lattice and the facets are computed variable by variable on exponent
tuples, with none of the bit arithmetic of ``gotzmann.resolution``.  Every
lcm lattice element builds its upper Koszul complex K^alpha generator by
generator and asks ``_relabelled_homology`` for the ranks on exactly those
facets: no maximal facets are sought, no simplex or cone is skipped and no
vertex is relabelled, so a kernel that drops a contributing alpha or keeps a
cancelling pair disagrees with it.
"""
from __future__ import annotations

from gotzmann.monomial_algebra import MonomialIdeal
from gotzmann.resolution import _relabelled_homology


def lcm_lattice(gens: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Exponent vectors of the lcms of all nonempty sets of generators."""
    lattice: set[tuple[int, ...]] = set()
    for g in gens:
        lattice |= {tuple(map(max, g, a)) for a in lattice}
        lattice.add(g)
    return lattice


def facets(alpha: tuple[int, ...], gens: list[tuple[int, ...]]) -> frozenset[int]:
    """Facets of K^alpha as vertex bitmasks: each generator g dividing x^alpha
    contributes the variables where g stays below alpha."""
    out = set()
    for g in gens:
        mask = 0
        for v, (gv, av) in enumerate(zip(g, alpha)):
            if gv > av:
                break
            if gv < av:
                mask |= 1 << v
        else:
            out.add(mask)
    return frozenset(out)


def ideal_table(ideal: MonomialIdeal) -> tuple[tuple[int, int, int], ...]:
    """Nonzero (i, j, beta_{i,j}(I)), in the shape of ``resolution._ideal_table``."""
    table: dict[tuple[int, int], int] = {}
    gens = [g.exponents for g in ideal.gens]
    for alpha in lcm_lattice(gens):
        j = sum(alpha)
        for k, dim in _relabelled_homology(facets(alpha, gens)):
            table[k + 1, j] = table.get((k + 1, j), 0) + dim
    return tuple((i, j, v) for (i, j), v in sorted(table.items()))
