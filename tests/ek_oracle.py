"""Eliahou-Kervaire: closed-form Betti numbers of stable ideals, a test oracle.

For a stable ideal I every Betti number is a sum over the minimal generators
(Eliahou and Kervaire, J. Algebra 129, 1990):

    beta_{p, p + deg u}(I) = sum over generators u of C(m(u), p),

where m(u) is the largest index of a variable dividing u, and the
regularity of I is its top generator degree.  It shares no code with the
lcm-lattice backend in ``gotzmann.resolution``, so the tests hold that
backend to it on stable ideals.
"""
from __future__ import annotations

from itertools import groupby

from gotzmann.combinatorics import binomial
from gotzmann.errors import ZeroModule
from gotzmann.monomial_algebra import MonomialIdeal
from gotzmann.resolution import BettiTable


def top_index(exps: tuple[int, ...]) -> int:
    """Largest variable index with a positive exponent; -1 for the unit."""
    return max((v for v, e in enumerate(exps) if e), default=-1)


def is_stable(ideal: MonomialIdeal) -> bool:
    """A monomial ideal is stable when for every generator g with largest
    variable x_u, all exchanges x_j * g / x_u (j < u) stay inside the ideal.

    An exchange has degree deg g, so it lies in the ideal exactly when it is
    a generator of that degree or a multiple of one of lower degree; those
    come first in the canonical generator order.  The zero and unit ideals
    are stable vacuously.
    """
    gens = [g.exponents for g in ideal.gens]
    start = 0
    for _, group in groupby(gens, key=sum):
        same = set(group)
        lower = gens[:start]
        start += len(same)
        for g in same:
            u = top_index(g)
            for j in range(u):
                h = g[:j] + (g[j] + 1,) + g[j + 1 : u] + (g[u] - 1,) + g[u + 1 :]
                if h not in same and not any(
                    all(a <= b for a, b in zip(low, h)) for low in lower
                ):
                    return False
    return True


def ek_regularity(ideal: MonomialIdeal) -> int:
    """Regularity of a stable ideal: the maximal generator degree."""
    if not is_stable(ideal):
        raise ValueError(f"{ideal} is not stable")
    if ideal.is_zero():
        raise ZeroModule("zero ideal has no generators")
    return ideal.max_gen_degree()


def ek_betti_table(ideal: MonomialIdeal, quotient: bool = False) -> BettiTable:
    """Graded Betti numbers of a stable ideal (quotient=False) or of S/I."""
    if not is_stable(ideal):
        raise ValueError(f"{ideal} is not stable")
    if ideal.is_unit():
        ideal_table = {(0, 0): 1}
    else:
        ideal_table = {}
        for u in ideal.gens:
            m0 = top_index(u.exponents)
            for p in range(m0 + 1):
                key = (p, p + u.degree)
                ideal_table[key] = ideal_table.get(key, 0) + binomial(m0, p)
    if not quotient:
        return BettiTable.from_dict(ideal_table)
    if ideal.is_unit():
        return BettiTable.from_dict({})
    table = {(0, 0): 1}
    for (p, j), v in ideal_table.items():
        table[(p + 1, j)] = v
    return BettiTable.from_dict(table)
