"""Degree enumeration and the walking lex tests, a test oracle.

The library enumerates no degree: it unranks monomials, walks stretches of
a degree with ``_lex_run``, and decides lex-ness by counting.  This module
lists every monomial of a degree instead, by its own recursion, and decides
lex-ness by walking each degree up to the top generator, so the tests can
hold the library's counts to plain enumeration.
"""
from __future__ import annotations

from gotzmann.monomial_algebra import (
    GradedFreeModule,
    Monomial,
    MonomialIdeal,
    MonomialSubmodule,
)


def exponents_of_degree(n: int, d: int) -> list[tuple[int, ...]]:
    """Degree-d exponent tuples in n + 1 variables, descending in lex
    (x_0 > ... > x_n): the x_0 exponent from d down, then the rest."""
    if d < 0:
        return []
    if n == 0:
        return [(d,)]
    return [(a,) + rest for a in range(d, -1, -1) for rest in exponents_of_degree(n - 1, d - a)]


def monomials_of_degree(n: int, d: int) -> tuple[Monomial, ...]:
    """All degree-d monomials in n + 1 variables, descending in lex."""
    return tuple(map(Monomial, exponents_of_degree(n, d)))


def quotient_basis(ideal: MonomialIdeal, e: int) -> tuple[Monomial, ...]:
    """Degree-e monomials outside the ideal (a k-basis of (S/I)_e), lex order."""
    return tuple(m for m in monomials_of_degree(ideal.n, e) if not ideal.contains(m))


def module_monomials(ambient: GradedFreeModule, d: int) -> tuple[tuple[int, Monomial], ...]:
    """Degree-d monomial basis of the free module, largest first.

    Entries are (component index, monomial); component c holds monomials of
    internal degree d - f_c.
    """
    out: list[tuple[int, Monomial]] = []
    for c, f in enumerate(ambient.degrees):
        out.extend((c, mono) for mono in monomials_of_degree(ambient.n, d - f))
    return tuple(out)


def is_lex_piece(submodule: MonomialSubmodule, d: int) -> bool:
    """Whether the degree-d piece of the submodule is an initial segment:
    no monomial of it comes after a monomial outside it."""
    seen_gap = False
    for c, mono in module_monomials(submodule.ambient, d):
        inside = submodule.components[c].contains(mono)
        if inside and seen_gap:
            return False
        if not inside:
            seen_gap = True
    return True


def is_lex_ideal(ideal: MonomialIdeal) -> bool:
    """Whether every graded piece of the ideal through its top generator
    degree is a lex initial segment, walked degree by degree."""
    if ideal.is_zero():
        return True
    sub = MonomialSubmodule(GradedFreeModule(ideal.n, (0,)), (ideal,))
    return all(is_lex_piece(sub, d) for d in range(ideal.max_gen_degree() + 1))
