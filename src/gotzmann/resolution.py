"""Graded Betti numbers and Castelnuovo-Mumford regularity.

One exact backend computes every Betti table, with two base cases, each
picked by an exact test of the component ideal and both answered by
beta_{p, p + deg u}(I) = sum over generators u of C(r_u, p), read off the
generator counts by degree and r_u.  An ideal that ``_stable_counts`` finds
stable, as every lex ideal is, has the Eliahou-Kervaire table, r_u = m(u)
the largest index of a variable dividing u.  An ideal that is not stable
but has linear quotients in the canonical generator order
(``_linear_quotient_counts``), such as the squarefree Veronese ideals and
many equigenerated ideals, has the Herzog-Takayama table, r_u the number of
variables generating the colon of the earlier generators by u.  Every other
ideal goes to the lcm lattice
(Miller-Sturmfels, *Combinatorial Commutative Algebra*, Thm 1.34): for a
monomial ideal I,

    beta_{i,alpha}(I) = dim H~_{i-1}(K^alpha(I); Q),
    K^alpha(I) = {squarefree F : x^(alpha - F) in I},

and beta_{i,alpha}(I) vanishes unless alpha lies in the lcm lattice of the
minimal generators (Gasharov-Peeva-Welker, "The lcm-lattice in monomial
resolutions", 1999).  K^alpha lives on at most n+1 vertices, and its ranks
run on at most min(#maximal faces, #vertices) of them, through the nerve of
its maximal faces; its homology is memoised in bounded caches.

Lattice and facets run on unary words of exponent ranks: in each variable
the distinct generator exponents, with 0, are numbered 0, 1, 2, ... in
increasing order, and a monomial is one int whose field for x_v holds rank
r_v as r_v low set bits, below a guard bit.  Ranks keep every comparison of
exponents, so they keep the lcm lattice and each K^alpha, and a field is at
most one bit wider than the generator count, whatever the exponents.  The
lcm of two words is their OR, divisibility and facets are a few whole-word
integer operations, and a degree is one masked bit count per distinct step
between consecutive exponents of a variable, or one bit count when every
step has one size.  The linear-quotients test reads the same words: the
quotient u_j / gcd(u_j, u) is the bits of u_j & ~u.  An alpha whose K^alpha
is a cone is acyclic: a full simplex is skipped as soon as the facet scan
meets the facet supp(alpha).  Every other alpha ORs the down-closures of its
facets into one int, bit F set iff the vertex mask F is a face, and looks
that int up in the homology cache.  Equal complexes give equal ints, and
lattice elements repeat their complexes heavily, so the work behind a miss
runs once per distinct complex.  A miss reads the maximal faces off the
bits, answers () for a cone, where one vertex lies in every maximal face,
passes to the nerve of the maximal faces when they are fewer than the
vertices, and otherwise relabels the vertices (by the sizes of the maximal
faces holding them) before the rank work.  The ranks are memoised again
under the relabelled facets, so most complexes that differ by a permutation
of the variables share one rank computation.

A face set on N vertices has 2^N bits, so only ideals in at most
FACE_SET_VERTICES variables key their complexes by face set, with the
variables as the vertices.  In more variables the scan lists each alpha's
maximal facets and hands them straight to the cone test, the nerve and the
relabelling.  The nerve keeps the rank work on at most as many vertices as
generators divide alpha, however many variables the facets span.

``regularity`` reads max(j - i) off the ``koszul_betti`` table it asks for.
The tests hold this backend to a dense Koszul computation and to the
per-variable tuple route, and both base cases to ``_lattice_walk`` called
on its own, the route they bypass, and to the closed-form oracles of the
tests.
"""
from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache, reduce
from math import comb
from operator import and_

from . import linalg
from ._value import Value, tuples
from .errors import ZeroModule
from .monomial_algebra import CACHE_ENTRIES, MonomialSubmodule, _stable_counts


class BettiTable(Value):
    """Sparse graded Betti numbers: sorted (i, j, value) triples, values > 0."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[int, int, int], ...]) -> None:
        object.__setattr__(self, "entries", tuples(entries))

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


# a face set on N vertices is an int of 2^N bits: at most 512 bytes here
FACE_SET_VERTICES = 12


def _lcm_lattice(words: list[int]) -> set[int]:
    """Unary words of the lcms of all nonempty sets of generators: per field,
    the OR of two runs of low bits is the longer run, so the lcm is the OR."""
    lattice: set[int] = set()
    for b in words:
        lattice |= {a | b for a in lattice}
        lattice.add(b)
    return lattice


def _down_closure(facet: int, w: int) -> int:
    """Face set of one facet given as a guard-bit pattern (vertex v at bit
    v*w + w - 1): bit F is set iff the vertex mask F is a subset of it.
    Adding a vertex v to the faces without it moves bit F to bit F + 2^v, so
    each vertex of the facet doubles the set with one shift."""
    faces, step = 1, 1
    facet >>= w - 1
    while facet:
        if facet & 1:
            faces |= faces << step
        facet >>= w
        step <<= 1
    return faces


def _maximal(masks: set[int]) -> list[int]:
    """The masks that no other mask contains."""
    return [f for f in masks if not any(f != g and f & g == f for g in masks)]


def _facets(word: int, words: list[int], guards: int, fill: int) -> list[int] | None:
    """The maximal facets of K^alpha as guard-bit patterns, or None for a
    full simplex: the scan of ``_lattice_walk`` in more than
    FACE_SET_VERTICES variables, where it lists the facets in place of ORing
    their down-closures."""
    simplex = ((word + fill) & guards) or -1
    facets = set()
    for g in words:
        if g | word == word:
            facet = ((word ^ g) + fill) & guards
            if facet == simplex:
                return None
            facets.add(facet)
    return _maximal(facets)


# complexes repeat heavily across the lattice elements of one ideal and
# across the lcm lattices of related ideals
@lru_cache(maxsize=CACHE_ENTRIES)
def _face_set_homology(faces: int) -> tuple[tuple[int, int], ...]:
    """Nonzero (k, dim H~_k) over Q of a nonempty simplicial complex given
    as its face set: bit F is set iff the vertex mask F is a face.

    On N vertices the key has 2^N bits, so callers keep N at most
    FACE_SET_VERTICES.  A face F is maximal unless some vertex v outside it
    has F + 2^v in the set, so one shift per vertex reads the maximal faces
    off the bits, which ``_facets_homology`` takes from there.
    """
    covered, ruler = 0, 1  # ruler: one bit every 2^(v+1) masks
    for v in reversed(range((faces.bit_length() - 1).bit_length())):
        step = 1 << v
        # the masks without vertex v are runs of 2^v bits, one at each ruler bit
        covered |= faces >> step & (ruler << step) - ruler
        ruler |= ruler << step
    rest = faces & ~covered
    maximal: list[int] = []
    while rest:
        f = rest.bit_length() - 1
        maximal.append(f)
        rest ^= 1 << f
    return _facets_homology(maximal)


def _facets_homology(maximal: list[int]) -> tuple[tuple[int, int], ...]:
    """Nonzero (k, dim H~_k) of the complex with these maximal faces, given
    as vertex masks.

    When one vertex lies in all of them the complex is a cone, which is
    acyclic.  When they are fewer than the vertices they use, their nerve,
    generated by the maximal vertex stars S_v = {i : v in F_i}, has the same
    homology on fewer vertices (nerve theorem: Borsuk 1948; Bjorner,
    "Topological methods", 1995).  K = {empty face} has no vertices and
    keeps its own.  Otherwise the vertices are relabelled before any rank
    work: vertices in no face are dropped and the rest are ordered by the
    sorted sizes of the maximal faces that contain them, ties by bit
    position.  A relabelling is a bijection, so the homology is unchanged,
    and complexes that differ by a permutation of the variables mostly share
    one entry of ``_relabelled_homology``.
    """
    if reduce(and_, maximal):
        return ()
    sizes: dict[int, list[int]] = {}  # vertex bit -> sizes of its facets
    stars: dict[int, int] = {}  # vertex bit -> mask of the facets holding it
    for i, f in enumerate(maximal):
        size, rest = f.bit_count(), f
        while rest:
            vertex = rest & -rest
            sizes.setdefault(vertex, []).append(size)
            stars[vertex] = stars.get(vertex, 0) | 1 << i
            rest ^= vertex
    if len(maximal) < len(stars):
        return _facets_homology(_maximal(set(stars.values())))
    order = sorted(sizes, key=lambda v: (sorted(sizes[v]), v))
    label = {v: 1 << i for i, v in enumerate(order)}
    return _relabelled_homology(frozenset(
        sum(label[v] for v in order if f & v) for f in maximal
    ))


@lru_cache(maxsize=CACHE_ENTRIES)
def _relabelled_homology(facets: frozenset[int]) -> tuple[tuple[int, int], ...]:
    """``_face_set_homology`` past the relabelling: the boundary ranks of the
    complex with these facets, as vertex masks.

    The complex lives on at most min(#facets, #vertices) vertices of the one
    ``_facets_homology`` was given, and on N vertices each boundary matrix
    has at most C(N, k) rows.
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


# keyed by generator exponents, as _ideal_numerator is: regularity reuses the
# table that koszul_betti computed for an equal ideal
@lru_cache(maxsize=CACHE_ENTRIES)
def _ideal_table(gens: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, int, int], ...]:
    """Nonzero graded Betti numbers (i, j, beta_{i,j}) of I as a module, I
    given by its minimal exponent tuples in canonical order.

    Two base cases are answered in closed form, both by

        beta_{p, p + deg u}(I) = sum over generators u of C(r_u, p).

    A stable ideal (``_stable_counts``) has the Eliahou-Kervaire resolution
    (J. Algebra 129, 1990), with r_u = m(u), the largest index of a variable
    dividing u (0 for u = 1, whose one row is beta_{0,0} = 1).  The zero
    ideal is stable with no generators, so its table is empty.  An ideal
    that is not stable but has linear quotients in the canonical generator
    order (``_linear_quotient_counts``) has the Herzog-Takayama mapping-cone
    resolution, with r_u the number of variables generating the colon of u.
    Every other ideal goes to the lcm-lattice walk, on the rank words
    already built for the second test.
    """
    counts = _stable_counts(gens)
    if counts is None:
        words, w, steps = _rank_words(gens)
        counts = _linear_quotient_counts(gens, words, steps.get(1, 0))
        if counts is None:
            return _lattice_walk(len(gens[0]) - 1, words, w, steps)
    table: dict[tuple[int, int], int] = {}
    for (d, k), count in counts.items():
        for p in range(k + 1):
            table[p, p + d] = table.get((p, p + d), 0) + count * comb(k, p)
    return tuple((i, j, v) for (i, j), v in sorted(table.items()))


def _rank_words(gens: tuple[tuple[int, ...], ...]) -> tuple[list[int], int, dict[int, int]]:
    """The minimal generators of I, given as exponent tuples, as unary words
    of exponent ranks, the field width w and the steps.

    In each variable the distinct generator exponents, with 0, are numbered
    0, 1, 2, ... in increasing order.  Variable v of a word owns bits
    [v*w, (v+1)*w): rank r_v of its exponent as r_v low set bits, w - 1 >= r_v,
    and the top bit a guard bit, never set in a word.  Bit i of a field is
    the step from its variable's i-th exponent to the next, and ``steps``
    maps each step size to the mask of its bits, so a degree is the sum of
    the steps set in a word: one masked bit count per size.
    """
    # per variable, the distinct exponents with 0, so that the steps up to the
    # r-th sum to it: the r-th is r low set bits
    ranked = [sorted({0, *column}) for column in zip(*gens)]
    w = max(map(len, ranked), default=1)
    fields = range(0, len(ranked) * w, w)  # the low bit of each variable's field
    words = [
        sum(((1 << bisect_left(values, e)) - 1) << s for s, e, values in zip(fields, g, ranked))
        for g in gens
    ]
    steps: dict[int, int] = {}
    for s, values in zip(fields, ranked):
        for i, (low, high) in enumerate(zip(values, values[1:])):
            steps[high - low] = steps.get(high - low, 0) | 1 << (s + i)
    return words, w, steps


def _linear_quotient_counts(
    gens: tuple[tuple[int, ...], ...], words: list[int], unit: int
) -> dict[tuple[int, int], int] | None:
    """For an ideal with linear quotients in the canonical generator order,
    the number of generators u of each degree d and colon size r = r_u, as
    {(d, r): count}; None when it has none.  The test is exact.

    ``gens`` are the minimal exponent tuples in canonical order, ``words``
    their ``_rank_words`` and ``unit`` the mask of the steps of size 1.  The
    colon (u_1, ..., u_(i-1)) : u_i is generated by the quotients
    u_j / gcd(u_j, u_i), j < i, none of them 1.  It is generated by variables
    exactly when each quotient has in its support a variable x_v that is
    itself one of them, that is, x_v u_i lies in the earlier generators; r_u
    counts those x_v.  In words the support of a quotient is the fields of
    g & ~u that are nonzero, and the quotient is x_v exactly when g & ~u is a
    single bit of a step of size 1.  That bit is the one just above u's run
    in field v, the lowest bit of g & ~u in field v of every g with g_v > u_v,
    so the OR of the variable bits meets g & ~u iff the quotient's support
    holds one of them.  The canonical order rises in degree, so the
    Herzog-Takayama resolution by iterated mapping cones is minimal
    (Homology Homotopy Appl. 4, 2002, Lemma 1.5) and
    beta_{p, p + deg u}(I) = sum_u C(r_u, p).
    """
    counts: dict[tuple[int, int], int] = {}
    for i, u in enumerate(words):
        quotients = [g & ~u for g in words[:i]]
        colon = 0
        for q in quotients:
            if not q & (q - 1) and q & unit:
                colon |= q
        for q in quotients:
            if not q & colon:
                return None
        key = (sum(gens[i]), colon.bit_count())
        counts[key] = counts.get(key, 0) + 1
    return counts


def _lattice_walk(
    n: int, words: list[int], w: int, steps: dict[int, int]
) -> tuple[tuple[int, int, int], ...]:
    """Nonzero (i, j, beta_{i,j}) of the ideal with these ``_rank_words`` in
    n + 1 variables, by the lcm lattice.

    beta_{i,alpha}(I) = dim H~_{i-1}(K^alpha(I)) is nonzero only for alpha in
    the lcm lattice of the minimal generators.  Each generator g dividing
    x^alpha (g | A == A) gives a facet, the variables where g_v < alpha_v:
    the largest squarefree F with x^(alpha - F) a multiple of g.  Those are
    the nonzero fields of A ^ g, and adding ``fill`` (2^(w-1) - 1 per field)
    carries each of them into its guard bit.  A cone is acyclic, so alpha is
    skipped as soon as the scan meets the facet supp(alpha) != 0, a full
    simplex.  In at most FACE_SET_VERTICES variables the scan ORs the
    facets' down-closures, kept by guard-bit pattern, into K^alpha's face
    set, an int of 2^(n+1) bits, bit F set iff the vertex mask F is a face,
    and looks it up in ``_face_set_homology``, which answers () for any
    other cone.  Complexes that are equal share one entry, whichever
    generators gave their facets, so the rank work runs once per distinct
    complex.  At alpha = 0 the one facet is the empty face, whose complex
    has H~_{-1} = Q.  In more variables ``_facets`` lists each alpha's
    maximal facets for ``_facets_homology``.  The degree of an alpha with
    homology is one masked bit count per step size, and when every step has
    one size, one bit count.
    """
    ones = sum(1 << s for s in range(0, (n + 1) * w, w))
    guards = ones << (w - 1)
    fill = guards - ones
    # every set bit of a word is a step, so with one step size s a degree is
    # s times the word's bit count; this path, against the general sum alone,
    # cuts the betti benchmark's op_ms.tail by 6-8% (lower in 30/30 pairs)
    size = next(iter(steps)) if len(steps) == 1 else 0
    closures: dict[int, int] = {}
    table: dict[tuple[int, int], int] = {}
    for word in _lcm_lattice(words):
        homology = ()
        if n < FACE_SET_VERTICES:
            simplex = ((word + fill) & guards) or -1
            faces = 0
            for g in words:
                if g | word == word:
                    facet = ((word ^ g) + fill) & guards
                    if facet == simplex:
                        break
                    closure = closures.get(facet)
                    if closure is None:
                        closure = closures[facet] = _down_closure(facet, w)
                    faces |= closure
            else:
                homology = _face_set_homology(faces)
        else:
            maximal = _facets(word, words, guards, fill)
            if maximal is not None:
                homology = _facets_homology(maximal)
        if homology:
            if size:
                j = size * word.bit_count()
            else:
                j = sum(step * (word & bits).bit_count() for step, bits in steps.items())
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
        for i, j, v in _ideal_table(ideal.exponents):
            key = (i + as_quotient, j + f)
            total[key] = total.get(key, 0) + v
    return BettiTable.from_dict(total)


def regularity(submodule: MonomialSubmodule, as_quotient: bool = True) -> int:
    """Castelnuovo-Mumford regularity of F/N (as_quotient) or N (not as_quotient),
    max(j - i) over the ``koszul_betti`` table of that module, read off each
    component's cached ``_ideal_table`` rows shifted as ``koszul_betti``
    shifts them, so no table is built.  Raises ZeroModule when the requested
    module is zero.
    """
    tops = []
    for f, ideal in zip(submodule.degrees, submodule.components):
        if as_quotient:
            if ideal.is_unit():
                continue
            tops.append(f)  # beta_{0,f}
        tops.extend(j - i - as_quotient + f for i, j, _ in _ideal_table(ideal.exponents))
    if not tops:
        raise ZeroModule("the zero module has no regularity (its Betti table is empty)")
    return max(tops)
