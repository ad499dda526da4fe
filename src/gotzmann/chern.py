"""First and second Chern classes out of a Hilbert polynomial.

For a rank-r sheaf on projective n-space the top three coefficients of the
Hilbert polynomial determine c1 and c2 through exact coefficient identities:

    coeff_n     = r / n!
    coeff_(n-1) = (c1 + r(n+1)/2) / (n-1)!
    coeff_(n-2) = ((c1^2 - 2 c2 + (n+1) c1)/2 + r(n+1)(3n+2)/24) / (n-2)!

Everything is exact rational arithmetic; the classes must come out integral,
otherwise the input triple (P, n, r) is rejected.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial

from ._value import Value
from .errors import (
    InvariantViolated,
    NonIntegralChern,
    PreconditionViolated,
    RankMismatch,
)
from .numpoly import NumPoly, adjusted_gotzmann_rep, poly_to_dict
from .theorems import CheckReport, _compare


class ChernData(Value):
    __slots__ = _fields = ("n", "r", "c1", "c2")

    def __init__(self, n: int, r: int, c1: int, c2: int) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)

    def to_dict(self) -> dict:
        return {"n": self.n, "r": self.r, "c1": self.c1, "c2": self.c2}


def chern_from_hilbert(poly: NumPoly, n: int, r: int) -> ChernData:
    """Extract (c1, c2) for a rank-r sheaf on projective n-space.

    Requires deg P = n with leading coefficient exactly r/n!; c1 and c2 must
    come out integral or the polynomial is not the Hilbert polynomial of any
    rank-r sheaf.
    """
    if n < 2:
        raise PreconditionViolated(f"need n >= 2 to see three coefficients, got {n}")
    if r < 1:
        raise PreconditionViolated(f"need positive rank, got {r}")
    if poly.degree != n:
        raise RankMismatch(f"polynomial degree {poly.degree} != n = {n}")
    if poly.coeffs[n] != Fraction(r, factorial(n)):
        raise RankMismatch(
            f"leading coefficient {poly.coeffs[n]} != r/n! = {Fraction(r, factorial(n))}"
        )
    coeff_n1 = poly.coeffs[n - 1]
    coeff_n2 = poly.coeffs[n - 2]
    c1 = coeff_n1 * factorial(n - 1) - Fraction(r * (n + 1), 2)
    if c1.denominator != 1:
        raise NonIntegralChern(f"c1 = {c1} is not an integer")
    reduced = coeff_n2 * factorial(n - 2) - Fraction(r * (n + 1) * (3 * n + 2), 24)
    c2 = (c1 * c1 + (n + 1) * c1 - 2 * reduced) / 2
    if c2.denominator != 1:
        raise NonIntegralChern(f"c2 = {c2} is not an integer")
    data = ChernData(n=n, r=r, c1=int(c1), c2=int(c2))
    # Substitute back: the two coefficient identities must hold exactly.
    back_n1 = Fraction(data.c1 + Fraction(r * (n + 1), 2), factorial(n - 1))
    back_n2 = Fraction(
        Fraction(data.c1**2 - 2 * data.c2 + (n + 1) * data.c1, 2)
        + Fraction(r * (n + 1) * (3 * n + 2), 24),
        factorial(n - 2),
    )
    if back_n1 != coeff_n1 or back_n2 != coeff_n2:
        raise InvariantViolated("Chern coefficient identities failed on re-substitution")
    return data


def check_chern_bound(
    poly: NumPoly,
    n: int,
    sheaf_rank: int,
    all_degrees: tuple[int, ...],
    module_rank: int,
) -> CheckReport:
    """c2 <= c1^2 for Hilbert polynomials passing the adjusted-representation
    admissibility gate with every ambient degree <= 0."""
    if all_degrees and max(all_degrees) > 0:
        raise PreconditionViolated(
            f"all ambient degrees must be <= 0, got max {max(all_degrees)}"
        )
    rep = adjusted_gotzmann_rep(poly, n, all_degrees, module_rank)
    data = chern_from_hilbert(poly, n, sheaf_rank)
    lhs = data.c2
    rhs = data.c1**2
    return CheckReport(
        name="chern_bound",
        instance={
            "poly": poly_to_dict(poly),
            "n": n,
            "sheaf_rank": sheaf_rank,
            "degrees": list(all_degrees),
            "module_rank": module_rank,
        },
        premises_hold=True,
        bound_lhs=lhs,
        bound_rhs=rhs,
        verdict=_compare(lhs, rhs),
        context={"c1": data.c1, "c2": data.c2, "adjusted_number": rep.number},
    )
