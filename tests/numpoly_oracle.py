"""Polynomials as power-basis Fraction coefficients, a test oracle for ``NumPoly``.

``PowerPoly`` keeps the coefficients of 1, d, d^2, ... as Fractions and does
every operation on them: Horner evaluation, schoolbook sums and products,
argument shifts by Horner in d + k, and integer-valuedness by evaluating at
e + 2 consecutive integers.  ``power_binomial_sum`` expands each
C(d + shift, a) as a falling factorial.  None of it reads the binomial-basis
coordinates the library stores, so the tests hold ``NumPoly`` to it.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial


class PowerPoly:
    """Polynomial with exact Fraction coefficients, lowest degree first; the
    zero polynomial has no coefficients and degree -1."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __call__(self, d) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * d + c
        return acc

    def __add__(self, other: "PowerPoly") -> "PowerPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        pad = lambda cs: cs + (Fraction(0),) * (n - len(cs))  # noqa: E731
        return PowerPoly(a + b for a, b in zip(pad(self.coeffs), pad(other.coeffs)))

    def __neg__(self) -> "PowerPoly":
        return PowerPoly(-c for c in self.coeffs)

    def __sub__(self, other: "PowerPoly") -> "PowerPoly":
        return self + (-other)

    def __mul__(self, other: "PowerPoly") -> "PowerPoly":
        if not self.coeffs or not other.coeffs:
            return PowerPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return PowerPoly(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PowerPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def shift_argument(self, k: int) -> "PowerPoly":
        """d -> P(d + k), by Horner in the linear polynomial d + k."""
        acc = PowerPoly()
        for c in reversed(self.coeffs):
            acc = acc * PowerPoly([k, 1]) + PowerPoly([c])
        return acc

    def is_integer_valued(self) -> bool:
        """A degree-e polynomial is integer-valued iff it is so at e + 1
        consecutive integers; this checks 0..e + 1."""
        return all(self(d).denominator == 1 for d in range(len(self.coeffs) + 1))


def power_binomial_sum(terms) -> PowerPoly:
    """sum c * C(d + shift, a) over (c, a, shift) triples: each falling factorial
    (d + shift)...(d + shift - a + 1) expanded in Fractions and divided by a!."""
    out = PowerPoly()
    for c, a, shift in terms:
        falling = PowerPoly([1])
        for t in range(a):
            falling = falling * PowerPoly([shift - t, 1])
        out = out + falling * PowerPoly([Fraction(c) / factorial(a)])
    return out
