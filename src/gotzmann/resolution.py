"""Graded Betti numbers and Castelnuovo-Mumford regularity.

One exact backend computes every Betti table (Miller-Sturmfels,
*Combinatorial Commutative Algebra*, Thm 1.34): for a monomial ideal I,

    beta_{i,alpha}(I) = dim H~_{i-1}(K^alpha(I); Q),
    K^alpha(I) = {squarefree F : x^(alpha - F) in I},

and beta_{i,alpha}(I) vanishes unless alpha lies in the lcm lattice of the
minimal generators (Gasharov-Peeva-Welker, "The lcm-lattice in monomial
resolutions", 1999).  K^alpha lives on at most n+1 vertices, so its boundary
matrices are tiny; its homology is memoised per facet set in a bounded cache.

``regularity`` reads max(j - i) off that same cached table per component.
The tests hold this backend to two independent oracles: a dense Koszul
computation and, on stable ideals, the Eliahou-Kervaire formulas.
"""
from __future__ import annotations

from functools import lru_cache

from . import linalg
from ._value import Value
from .errors import ZeroModule
from .monomial_algebra import MonomialIdeal, MonomialSubmodule

# Distinct upper Koszul complexes whose homology is kept; complexes repeat
# heavily across the lcm lattices of related ideals.
HOMOLOGY_CACHE_SIZE = 4096
# Ideals whose Betti table is kept, so that regularity reuses the table that
# koszul_betti just computed for the same component.
IDEAL_TABLE_CACHE_SIZE = 1024


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
            raise ZeroModule("empty Betti table has no regularity")
        return max(j - i for i, j, _ in self.entries)

    def to_dict(self) -> dict:
        return {"betti": [[i, j, v] for i, j, v in self.entries]}


def _merge_shifted(tables: list[tuple[dict[tuple[int, int], int], int]]) -> BettiTable:
    total: dict[tuple[int, int], int] = {}
    for table, shift in tables:
        for (i, j), v in table.items():
            key = (i, j + shift)
            total[key] = total.get(key, 0) + v
    return BettiTable.from_dict(total)


def _lcm_lattice(gens: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Exponent vectors of the lcms of all nonempty sets of generators."""
    lattice: set[tuple[int, ...]] = set()
    for g in gens:
        lattice |= {tuple(map(max, g, a)) for a in lattice}
        lattice.add(g)
    return lattice


def _facets(alpha: tuple[int, ...], gens: list[tuple[int, ...]]) -> frozenset[int]:
    """Facets of the upper Koszul complex K^alpha as vertex bitmasks.

    Each generator g dividing x^alpha contributes supp(alpha) minus the
    variables where g reaches alpha: the largest squarefree F with
    x^(alpha - F) still a multiple of g.
    """
    facets = set()
    for g in gens:
        mask = 0
        for v, (gv, av) in enumerate(zip(g, alpha)):
            if gv > av:
                break
            if gv < av:
                mask |= 1 << v
        else:
            facets.add(mask)
    return frozenset(facets)


@lru_cache(maxsize=HOMOLOGY_CACHE_SIZE)
def _reduced_homology(facets: frozenset[int]) -> tuple[tuple[int, int], ...]:
    """Nonzero (k, dim H~_k) over Q of the simplicial complex with these facets.

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
    # ranks[s]: rank of the boundary map from faces of size s to size s - 1
    ranks = [0] * (top + 2)
    for s in range(1, top + 1):
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


@lru_cache(maxsize=IDEAL_TABLE_CACHE_SIZE)
def _ideal_table(ideal: MonomialIdeal) -> tuple[tuple[int, int, int], ...]:
    """Nonzero graded Betti numbers (i, j, beta_{i,j}) of I as a module.

    beta_{i,alpha}(I) = dim H~_{i-1}(K^alpha(I)) is nonzero only for alpha in
    the lcm lattice of the minimal generators.
    """
    table: dict[tuple[int, int], int] = {}
    gens = [g.exponents for g in ideal.gens]
    for alpha in _lcm_lattice(gens):
        j = sum(alpha)
        for k, dim in _reduced_homology(_facets(alpha, gens)):
            table[k + 1, j] = table.get((k + 1, j), 0) + dim
    return tuple((i, j, v) for (i, j), v in sorted(table.items()))


def _component_table(ideal: MonomialIdeal, quotient: bool) -> dict[tuple[int, int], int]:
    """Graded Betti numbers of S/I (quotient=True) or of I as a module.

    beta_{i+1,j}(S/I) = beta_{i,j}(I), plus beta_{0,0}(S/I) = 1.
    """
    if quotient and ideal.is_unit():
        return {}
    table = {(0, 0): 1} if quotient else {}
    for i, j, v in _ideal_table(ideal):
        table[i + quotient, j] = v
    return table


def koszul_betti(submodule: MonomialSubmodule, as_quotient: bool = True) -> BettiTable:
    """Betti table of F/N (as_quotient=True) or of N itself.

    Componentwise: a resolution of a direct sum splits, so each component
    ideal is handled on its own and shifted by its degree.
    """
    pieces = []
    for f, ideal in zip(submodule.degrees, submodule.components):
        pieces.append((_component_table(ideal, as_quotient), f))
    return _merge_shifted(pieces)


# ---------------------------------------------------------------------------
# Regularity, read off the lcm-lattice Betti table


def _quotient_reg(ideal: MonomialIdeal) -> int:
    """Regularity of S/I for a proper nonzero monomial ideal: max(j - i) over
    beta_{i+1,j}(S/I) = beta_{i,j}(I)."""
    return max(j - i - 1 for i, j, _ in _ideal_table(ideal))


def regularity(submodule: MonomialSubmodule, of: str = "quotient") -> int:
    """Castelnuovo-Mumford regularity of F/N (of='quotient') or N (of='submodule').

    Computed as max(j - i) over each component's lcm-lattice Betti table,
    the one ``koszul_betti`` caches.  For a proper nonzero ideal the two
    sides differ by exactly one.  Raises ZeroModule when the requested
    module is zero.
    """
    if of not in ("quotient", "submodule"):
        raise ValueError(f"of must be 'quotient' or 'submodule', got {of!r}")
    quotient = of == "quotient"
    best: int | None = None
    for f, ideal in zip(submodule.degrees, submodule.components):
        if quotient:
            if ideal.is_unit():
                continue
            reg_c = 0 if ideal.is_zero() else _quotient_reg(ideal)
        else:
            if ideal.is_zero():
                continue
            reg_c = 0 if ideal.is_unit() else _quotient_reg(ideal) + 1
        best = reg_c + f if best is None else max(best, reg_c + f)
    if best is None:
        raise ZeroModule(
            f"the {'quotient' if quotient else 'submodule'} is the zero module"
        )
    return best
