"""Graded Betti numbers and Castelnuovo-Mumford regularity.

One exact backend computes every Betti table (Miller-Sturmfels,
*Combinatorial Commutative Algebra*, Thm 1.34): for a monomial ideal I,

    beta_{i,alpha}(I) = dim H~_{i-1}(K^alpha(I); Q),
    K^alpha(I) = {squarefree F : x^(alpha - F) in I},

and beta_{i,alpha}(I) vanishes unless alpha lies in the lcm lattice of the
minimal generators (Gasharov-Peeva-Welker, "The lcm-lattice in monomial
resolutions", 1999).  K^alpha lives on at most n+1 vertices, so its boundary
matrices are tiny; its homology is memoised per facet set in bounded caches.

Lattice and facets run on packed exponent words (one int per monomial, a
guarded field of bit_length(max generator exponent) + 1 bits per variable),
so lcm, divisibility and facets are a few whole-word integer operations.  An
alpha whose K^alpha is a cone is acyclic: a full simplex is skipped as soon
as the facet scan meets the facet supp(alpha).  Every other alpha is one
lookup of its facet set, as guard-bit patterns, in the homology cache; lattice
elements repeat their complexes heavily, so the work behind a miss runs once
per distinct complex.  A miss keeps the maximal facets (one pass by size),
answers () for a cone, where one vertex lies in every maximal facet, and
otherwise relabels the vertices (by the sizes of the maximal facets holding
them) before the rank work.  The ranks are memoised again under the
relabelled facets, so most complexes that differ by a permutation of the
variables share one rank computation.

``regularity`` reads max(j - i) off the ``koszul_betti`` table it asks for.
The tests hold this backend to a dense Koszul computation, to the
Eliahou-Kervaire formulas on stable ideals and to the per-variable tuple route.
"""
from __future__ import annotations

from functools import lru_cache, reduce
from operator import and_

from . import linalg
from ._value import Value
from .errors import ZeroModule
from .monomial_algebra import CACHE_ENTRIES, MonomialIdeal, MonomialSubmodule


class BettiTable(Value):
    """Sparse graded Betti numbers: sorted (i, j, value) triples, values > 0."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[int, int, int], ...]) -> None:
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_dict(cls, data: dict[tuple[int, int], int]) -> "BettiTable":
        triples = tuple(
            (i, j, v) for (i, j), v in sorted(data.items()) if v > 0
        )
        return cls(triples)

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {(i, j): v for i, j, v in self.entries}

    def get(self, i: int, j: int) -> int:
        return self.as_dict().get((i, j), 0)

    def is_empty(self) -> bool:
        return not self.entries

    def regularity(self) -> int:
        if not self.entries:
            raise ZeroModule("the zero module has no regularity (its Betti table is empty)")
        return max(j - i for i, j, _ in self.entries)

    def to_dict(self) -> dict:
        return {"betti": [[i, j, v] for i, j, v in self.entries]}


def _lcm_lattice(words: list[int], guards: int, w: int) -> set[int]:
    """Packed words of the lcms of all nonempty sets of generators: per field,
    (a | G) - b keeps its guard bit exactly when a_v >= b_v, and that bit,
    moved to the field's low end and spread over the field, selects a."""
    full, shift = (1 << w) - 1, w - 1
    lattice: set[int] = set()
    for b in words:
        lattice |= {(a & (m := (((a | guards) - b & guards) >> shift) * full)) | (b & ~m)
                    for a in lattice}
        lattice.add(b)
    return lattice


def _facets(word: int, words: list[int], guards: int, ones: int) -> frozenset[int] | None:
    """Facets of K^alpha as guard-bit patterns: each generator g dividing x^alpha
    ((A | G) - g keeps every guard bit) gives the variables where g_v < alpha_v,
    the largest squarefree F with x^(alpha - F) a multiple of g.  None when
    a facet is supp(alpha) != 0: K^alpha is then a full simplex, a cone.  At
    alpha = 0 the one facet is the empty face, whose complex has H~_{-1} = Q."""
    lifted = word | guards
    simplex = ((lifted - ones) & guards) or -1
    facets = set()
    for g in words:
        t = lifted - g
        if t & guards == guards:
            facet = (t - ones) & guards
            if facet == simplex:
                return None
            facets.add(facet)
    return frozenset(facets)


# complexes repeat heavily across the lattice elements of one ideal and
# across the lcm lattices of related ideals
@lru_cache(maxsize=CACHE_ENTRIES)
def _reduced_homology(facets: frozenset[int]) -> tuple[tuple[int, int], ...]:
    """Nonzero (k, dim H~_k) over Q of the simplicial complex with these facets.

    Each facet is a bit pattern with one set bit per vertex: a vertex mask,
    or a guard-bit pattern of ``_facets`` (vertex v at bit v*w + w - 1),
    which is the same complex.  Non-maximal faces may be listed too.  One
    pass over the faces by size, largest first, keeps the maximal facets.
    When one vertex lies in all of them the complex is a cone, which is
    acyclic.  Otherwise the vertices are relabelled before any rank work:
    vertices in no facet are dropped and the rest are ordered by the sorted
    sizes of the maximal facets that contain them, ties by bit position.  A
    relabelling is a bijection, so the homology is unchanged, and complexes
    that differ by a permutation of the variables mostly share one entry of
    ``_relabelled_homology``.
    """
    maximal: list[int] = []
    for f in sorted(facets, key=int.bit_count, reverse=True):
        if not any(f & g == f for g in maximal):
            maximal.append(f)
    if reduce(and_, maximal):
        return ()
    sizes: dict[int, list[int]] = {}  # vertex bit -> sizes of its facets
    for f in maximal:
        size, rest = f.bit_count(), f
        while rest:
            vertex = rest & -rest
            sizes.setdefault(vertex, []).append(size)
            rest ^= vertex
    order = sorted(sizes, key=lambda v: (sorted(sizes[v]), v))
    label = {v: 1 << i for i, v in enumerate(order)}
    return _relabelled_homology(frozenset(
        sum(label[v] for v in order if f & v) for f in maximal
    ))


@lru_cache(maxsize=CACHE_ENTRIES)
def _relabelled_homology(facets: frozenset[int]) -> tuple[tuple[int, int], ...]:
    """``_reduced_homology`` past the relabelling: the boundary ranks.

    The complex lives on at most n + 1 vertices, so each boundary matrix has
    at most C(n + 1, k) rows.
    """
    faces: set[int] = set()
    for f in facets:
        sub = f
        while True:
            faces.add(sub)
            if not sub:
                break
            sub = (sub - 1) & f
    by_size: dict[int, list[int]] = {}
    for face in faces:
        by_size.setdefault(face.bit_count(), []).append(face)
    top = max(by_size)
    # ranks[s]: rank of the boundary map from faces of size s to size s - 1;
    # every vertex goes to the empty face, so ranks[1] is 1 once one exists
    ranks = [0, min(top, 1)] + [0] * top
    for s in range(2, top + 1):
        row_of = {face: r for r, face in enumerate(by_size[s - 1])}
        columns = []
        for face in by_size[s]:
            column = {}
            sign = 1
            for v in range(face.bit_length()):
                if face >> v & 1:
                    column[row_of[face ^ (1 << v)]] = sign
                    sign = -sign
            columns.append(column)
        ranks[s] = linalg.rank(columns)
    out = []
    for s in range(top + 1):
        dim = len(by_size[s]) - ranks[s] - ranks[s + 1]
        if dim:
            out.append((s - 1, dim))
    return tuple(out)


# regularity reuses the table that koszul_betti computed for the same ideal
@lru_cache(maxsize=CACHE_ENTRIES)
def _ideal_table(ideal: MonomialIdeal) -> tuple[tuple[int, int, int], ...]:
    """Nonzero graded Betti numbers (i, j, beta_{i,j}) of I as a module.

    beta_{i,alpha}(I) = dim H~_{i-1}(K^alpha(I)) is nonzero only for alpha in
    the lcm lattice of the minimal generators.  Variable v of a packed word
    owns bits [v*w, (v+1)*w), w = bit_length(max generator exponent) + 1, the
    top one a guard bit G.  Lattice exponents never exceed the largest
    generator exponent, so no field reaches its guard bit and no subtraction
    borrows across fields.  A cone is acyclic, so alpha is skipped when
    ``_facets`` finds a full simplex.  Every other alpha is one lookup of its
    facet set, exactly as ``_facets`` returns it, in ``_reduced_homology``,
    which finds the maximal facets and answers () for any other cone.  No
    vertex of a lattice element lies in every facet, since each variable of
    alpha reaches alpha_v in a generator dividing it, so only the maximal
    facets can show such a cone.
    """
    gens = ideal.exponents
    variables = range(ideal.n + 1)
    w = max(map(max, gens), default=0).bit_length() + 1
    ones = sum(1 << (v * w) for v in variables)
    guards = ones << (w - 1)
    words = [sum(e << (v * w) for v, e in enumerate(g)) for g in gens]
    table: dict[tuple[int, int], int] = {}
    for word in _lcm_lattice(words, guards, w):
        facets = _facets(word, words, guards, ones)
        if facets is None:
            continue
        homology = _reduced_homology(facets)
        if homology:
            j = sum(word >> (v * w) & ((1 << w) - 1) for v in variables)
            for k, dim in homology:
                table[k + 1, j] = table.get((k + 1, j), 0) + dim
    return tuple((i, j, v) for (i, j), v in sorted(table.items()))


def koszul_betti(submodule: MonomialSubmodule, as_quotient: bool = True) -> BettiTable:
    """Betti table of F/N (as_quotient=True) or of N itself.

    Componentwise: a resolution of a direct sum splits, so each component
    ideal I is handled on its own and shifted by its degree f.  On the
    quotient side beta_{i+1,j}(S/I) = beta_{i,j}(I), plus beta_{0,0}(S/I) = 1,
    and a unit ideal contributes nothing.
    """
    total: dict[tuple[int, int], int] = {}
    for f, ideal in zip(submodule.degrees, submodule.components):
        if as_quotient:
            if ideal.is_unit():
                continue
            total[0, f] = total.get((0, f), 0) + 1
        for i, j, v in _ideal_table(ideal):
            key = (i + as_quotient, j + f)
            total[key] = total.get(key, 0) + v
    return BettiTable.from_dict(total)


def regularity(submodule: MonomialSubmodule, as_quotient: bool = True) -> int:
    """Castelnuovo-Mumford regularity of F/N (as_quotient) or N (not as_quotient),
    max(j - i) over the ``koszul_betti`` table of that module.  Raises
    ZeroModule when the requested module is zero.
    """
    return koszul_betti(submodule, as_quotient=as_quotient).regularity()
